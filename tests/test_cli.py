import json
from dataclasses import replace

import numpy as np
import pytest

from mixvar import cli
from mixvar.cli import main
from mixvar.containers import TABLE_MAGIC
from mixvar.envelope import EnvelopeTable
from mixvar.integrand import builtin_from_config


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


ENVELOPE_CFG = {
    "a": [2],
    "integrand": {"name": "double_well", "params": {"w": 1.0, "n": 1, "m": 1}},
    "lattice": [[-2.0, 2.0, 5]],
    "resolution": 17,
    "multistart": 2,
    "maxiter": 200,
    "seed": 7,
}


def test_envelope_subcommand(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", ENVELOPE_CFG)
    out = tmp_path / "table.qft"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert raw[:16] == TABLE_MAGIC
    table = EnvelopeTable.load(out)
    assert table.values.shape == (5,)
    assert "config_hash" in table.meta
    summary = json.loads((tmp_path / "table.qft.summary.json").read_text())
    assert summary["nodes"] == 5


def test_envelope_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", ENVELOPE_CFG)
    out1, out2 = tmp_path / "a.qft", tmp_path / "b.qft"
    assert main(["envelope", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["envelope", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_envelope_programming_error_exits_nonzero(tmp_path, monkeypatch):
    # a ValueError in the descent at the lattice node V = 0 is a bug: the run
    # must fail instead of writing a table with that node masked
    def faulty(c):
        F = builtin_from_config(c)

        def ev(V):
            if V.ndim > 2 and np.any(V == 0.0):
                raise ValueError("integrand bug")
            return F.eval(V)

        return replace(F, eval=ev)

    monkeypatch.setattr(cli, "builtin_from_config", faulty)
    cfg = write_config(tmp_path / "cfg.json", ENVELOPE_CFG)
    out = tmp_path / "table.qft"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) != 0
    assert not out.exists()


def test_validation_error_names_field(tmp_path, capsys):
    bad = dict(ENVELOPE_CFG)
    bad["a"] = [0, 2]
    cfg = write_config(tmp_path / "bad.json", bad)
    rc = main(["envelope", "--config", cfg, "--out", str(tmp_path / "x.qft")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'a'" in err


def test_non_dyadic_levels_are_a_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {**ENVELOPE_CFG, "levels": [17, 40]})
    rc = main(["envelope", "--config", cfg, "--out", str(tmp_path / "t.qft")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'levels'" in err
    assert not (tmp_path / "t.qft").exists()


def test_missing_seed_is_a_validation_error(tmp_path, capsys):
    cfg_data = {k: v for k, v in ENVELOPE_CFG.items() if k != "seed"}
    cfg = write_config(tmp_path / "noseed.json", cfg_data)
    rc = main(["envelope", "--config", cfg, "--out", str(tmp_path / "x.qft")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    rc = main(["envelope", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.qft")])
    assert rc == 2


def test_coerce_subcommand(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "a": [1, 2],
        "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 2}},
        "t_grid": [0.0, 1.0, 2.0],
        "resolution": 17,
        "multistart": 2,
        "seed": 3,
    })
    out = tmp_path / "theta.csv"
    assert main(["coerce", "--config", cfg, "--out", str(out), "--q", "2.0"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,theta_hat,feasibility_gap,iterations"
    assert len(lines) == 5
    fit = json.loads(out.with_suffix(".csv.fit.json").read_text())
    assert 0.9 <= fit["c1"] <= 1.1
    assert fit["coercive"] is True


def test_coerce_t_range_flag(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "a": [2],
        "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
        "resolution": 17,
        "multistart": 2,
        "seed": 4,
    })
    out = tmp_path / "theta.csv"
    assert main(["coerce", "--config", cfg, "--out", str(out), "--q", "2.0",
                 "--t", "0:4:9"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 + 9


def test_solve_subcommand(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "a": [1, 2],
        "domain": [[-1, 1], [-1, 1]],
        "integrand": {"name": "pantographic", "params": {}},
        "datum": {"coeffs": {"1,0": [1.0], "0,2": [2.0]}},
        "p": 2.0,
        "resolution": 17,
        "seed": 0,
    })
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["energy"] == pytest.approx(4.0 * 5.0, rel=1e-9)
    assert (out / "u.field").exists()
    assert (out / "trace.csv").read_text().startswith("# config_hash=")


def test_relax_subcommand(tmp_path):
    env_cfg = write_config(tmp_path / "env.json", {
        "a": [2],
        "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
        "lattice": [[-2.0, 2.0, 21]],
        "resolution": 33,
        "multistart": 2,
        "maxiter": 300,
        "seed": 5,
    })
    table_path = tmp_path / "t.qft"
    assert main(["envelope", "--config", env_cfg, "--out", str(table_path)]) == 0
    solve_cfg = write_config(tmp_path / "solve.json", {
        "a": [2],
        "domain": [[-1, 1]],
        "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
        "datum": {"coeffs": {"2": [0.4]}},
        "p": 2.0,
        "resolution": 9,
        "seed": 6,
    })
    out = tmp_path / "relaxrun"
    assert main(["relax", "--config", solve_cfg, "--table", str(table_path),
                 "--levels", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["lower_bound_ok"] is True
    assert report["no_relaxation_gap_detected"] is True
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[1].split(",")[0] == "level"
    assert lines[1].split(",")[-1] == "converged"
    assert [row.split(",")[-1] for row in lines[2:]] == ["True", "True"]


def test_relax_requires_table(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", {
        "a": [2], "domain": [[-1, 1]],
        "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
        "datum": {"coeffs": {"0": [0.0]}}, "resolution": 9, "seed": 1,
    })
    rc = main(["relax", "--config", cfg, "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "table" in capsys.readouterr().err


def test_ym_subcommand(tmp_path):
    cfg = write_config(tmp_path / "ym.json", {
        "a": [2],
        "source": {"type": "scale_and_tile", "j": 1, "resolution": 33,
                    "target_resolution": 65},
        "p": 2.0,
        "seed": 9,
    })
    out = tmp_path / "ymrun"
    assert main(["ym", "--config", cfg, "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert abs(diag["barycentre"][0]) <= 1e-10
    lines = (out / "measure.csv").read_text().strip().splitlines()
    assert lines[1] == "w0,weight"
    assert len(lines) == 2 + diag["atoms"]


def test_numerical_failure_writes_manifest(tmp_path, capsys):
    # datum runs out of the tiny table hull: exit 3 plus a failure manifest
    env_cfg = write_config(tmp_path / "env.json", {
        "a": [2],
        "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
        "lattice": [[-0.5, 0.5, 5]],
        "resolution": 17,
        "multistart": 2,
        "maxiter": 200,
        "seed": 5,
    })
    table_path = tmp_path / "tiny.qft"
    assert main(["envelope", "--config", env_cfg, "--out", str(table_path)]) == 0
    solve_cfg = write_config(tmp_path / "solve.json", {
        "a": [2], "domain": [[-1, 1]],
        "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
        "datum": {"coeffs": {"2": [1.9]}}, "p": 2.0, "resolution": 9, "seed": 6,
    })
    out = tmp_path / "failrun"
    rc = main(["relax", "--config", solve_cfg, "--table", str(table_path),
               "--levels", "1", "--out", str(out)])
    assert rc == 3
    manifest = json.loads((out / "failure.json").read_text())
    assert "hull" in manifest["message"]

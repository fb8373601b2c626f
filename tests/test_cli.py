import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from mixvar import cli
from mixvar.cli import main
from mixvar.coercivity import ThetaOptions
from mixvar.containers import TABLE_MAGIC
from mixvar.envelope import EnvelopeOptions, EnvelopeTable
from mixvar.integrand import builtin_from_config
from mixvar.solver import SolveOptions
from test_envelope import fails_at_zero


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

# a budget past the screening one: a start of the 33-node middle node polishes
POLISHED_ENVELOPE_CFG = {**ENVELOPE_CFG, "lattice": [[-1.0, 1.0, 3]], "resolution": 33,
                         "maxiter": 300}


SOLVE_CFG = {
    "a": [2], "domain": [[-1, 1]],
    "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
    "datum": {"coeffs": {"0": [0.0]}}, "resolution": 9, "seed": 1,
}
YM_CFG = {"a": [2], "source": {"type": "scale_and_tile", "j": 1, "resolution": 33}, "seed": 9}


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


def test_solve_and_coerce_determinism_byte_identical(tmp_path):
    # criterion 11 beyond tables: a 2-D Dirichlet solve and the penalised theta descents
    solve = write_config(tmp_path / "solve.json", {
        "a": [1, 2], "domain": [[-1.0, 1.0], [-1.0, 1.0]],
        "integrand": {"name": "double_well", "params": {"w": 1.0, "n": 1, "m": 2, "col": 1}},
        "datum": {"coeffs": {"1,0": [0.5], "0,2": [0.3]}}, "p": 4.0, "resolution": 9,
        "maxiter": 100, "multistart": 2, "seed": 5,
    })
    coerce = write_config(tmp_path / "coerce.json", {
        "a": [1, 2], "integrand": {"name": "pnorm", "params": {"p": 2.0, "n": 1, "m": 2}},
        "t_grid": [0.0, 1.0, 2.0], "q": 2.0, "resolution": 9, "multistart": 2, "maxiter": 50,
        "seed": 3,
    })
    runs = []
    for run in ("one", "two"):
        assert main(["solve", "--config", solve, "--out", str(tmp_path / run)]) == 0
        assert main(["coerce", "--config", coerce, "--out", str(tmp_path / f"{run}.csv")]) == 0
        runs.append([(tmp_path / run / "u.field").read_bytes(),
                     (tmp_path / f"{run}.csv").read_bytes()])
    assert runs[0] == runs[1]


def test_a_theta_point_that_overflows_prints_only_its_failure(tmp_path, capfd):
    # every start of t = 2.5e307 overflows; the finite-row rule makes its
    # rows +inf without a numpy warning, so the failure line is all of stderr
    cfg = write_config(tmp_path / "cfg.json", {
        "a": [2], "integrand": {"name": "pnorm", "params": {"p": 2.0, "n": 1, "m": 1}},
        "resolution": 17, "multistart": 2, "seed": 4})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["coerce", "--config", cfg, "--q", "2", "--t", "0:1e308:5",
                     "--out", str(tmp_path / "theta.csv")])
    assert code == 3
    assert capfd.readouterr().err.splitlines() == [
        "numerical failure: every theta descent diverged at t=2.5e+307"]


def faulty_integrand(c):
    # raises inside the descents of a field of mean gradient 0: those of the
    # lattice node V = 0, and those of the solve of datum 0
    return fails_at_zero(builtin_from_config(c), ValueError("integrand bug"))


def test_envelope_programming_error_exits_nonzero(tmp_path, monkeypatch):
    # a ValueError in the descent at the lattice node V = 0 is a bug: the run
    # must fail (the exception propagates, so the process exits 1) instead of
    # writing a table with that node masked
    monkeypatch.setattr(cli, "builtin_from_config", faulty_integrand)
    cfg = write_config(tmp_path / "cfg.json", ENVELOPE_CFG)
    out = tmp_path / "table.qft"
    with pytest.raises(ValueError, match="integrand bug"):
        main(["envelope", "--config", cfg, "--out", str(out)])
    assert not out.exists()


def test_solve_programming_error_is_not_a_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "builtin_from_config", faulty_integrand)
    cfg = write_config(tmp_path / "cfg.json", SOLVE_CFG)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="integrand bug"):
        main(["solve", "--config", cfg, "--out", str(out)])
    assert "numerical failure" not in capsys.readouterr().err
    assert not (out / "failure.json").exists()


def test_validation_error_names_field(tmp_path, capsys):
    bad = dict(ENVELOPE_CFG)
    bad["a"] = [0, 2]
    cfg = write_config(tmp_path / "bad.json", bad)
    rc = main(["envelope", "--config", cfg, "--out", str(tmp_path / "x.qft")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'a'" in err


def test_unknown_config_keys_are_a_validation_error(tmp_path, capsys):
    # a stale option and two typos must not fall back to defaults silently
    cfg = write_config(tmp_path / "cfg.json",
                       {**ENVELOPE_CFG, "threads": 8, "bogus": 1, "multistrat": 3})
    rc = main(["envelope", "--config", cfg, "--out", str(tmp_path / "t.qft")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert all(f"'{key}'" in err for key in ("threads", "bogus", "multistrat"))
    assert "'multistart'" not in err
    assert not (tmp_path / "t.qft").exists()


@pytest.mark.parametrize("command, cfg_data, key", [
    ("envelope", {**ENVELOPE_CFG, "integrand": {"name": "double_well", "params": {"W": 2.0}}}, "W"),
    ("ym", {**YM_CFG, "source": {**YM_CFG["source"], "amplitdue": 2.0}}, "amplitdue"),
])
def test_unknown_nested_keys_are_a_validation_error(tmp_path, capsys, command, cfg_data, key):
    # integrand params and ym's source object are checked like the top level
    cfg = write_config(tmp_path / "cfg.json", cfg_data)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{key}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, cfg_data", [
    ("solve", {**SOLVE_CFG, "levels": 2}),
    ("ym", {**YM_CFG, "resolution": 33}),
    ("coerce", {**ENVELOPE_CFG, "q": 2.0}),
])
def test_keys_of_another_subcommand_are_a_validation_error(tmp_path, capsys, command, cfg_data):
    cfg = write_config(tmp_path / "cfg.json", cfg_data)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err and command in err


# the descent subcommands run on numpy alone: importing any scipy module costs start-up time
SCIPY_MODULES = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def fresh_run(code: str, *args: str, **kwargs):
    """``code`` run by a new interpreter that imports mixvar from here."""
    import subprocess
    import sys
    from pathlib import Path

    import mixvar

    src = str(Path(mixvar.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           + code, src, *args], **kwargs)


def fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports mixvar from here."""
    return fresh_run(code, *args, capture_output=True, text=True, check=True).stdout.strip()


def test_cli_import_loads_no_scipy():
    assert fresh_python(f"import mixvar.cli; print({SCIPY_MODULES})") == "[]"


def test_descent_subcommands_load_no_scipy(tmp_path):
    configs = {
        "envelope": POLISHED_ENVELOPE_CFG,
        "solve": {**SOLVE_CFG, "multistart": 1},
        "coerce": {"a": [1, 2], "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 2}},
                   "t_grid": [0.0, 1.0, 2.0], "q": 2.0, "resolution": 9, "multistart": 2,
                   "maxiter": 50, "seed": 3},
        "relax": {**SOLVE_CFG, "multistart": 1, "levels": 2},
    }
    argv = {
        "envelope": ["--out", str(tmp_path / "t.qft")],
        "solve": ["--out", str(tmp_path / "solve")],
        "coerce": ["--out", str(tmp_path / "theta.csv")],
        "relax": ["--table", str(tmp_path / "t.qft"), "--out", str(tmp_path / "relax")],
    }
    calls = []
    for command, cfg in configs.items():
        calls.append([command, "--config", write_config(tmp_path / f"{command}.json", cfg),
                      *argv[command]])
    code = ("import json; from mixvar.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[2])]; "
            f"print(json.dumps([codes, {SCIPY_MODULES}]))")
    codes, loaded = json.loads(fresh_python(code, json.dumps(calls)))
    assert codes == [0, 0, 0, 0]
    assert loaded == []


def test_a_table_written_by_a_fresh_interpreter_is_byte_identical(tmp_path):
    # criterion 11 across processes: a process's first call writes the same
    # bytes, with and without a polishing batch
    for name, cfg_data in (("screened", ENVELOPE_CFG), ("polished", POLISHED_ENVELOPE_CFG)):
        cfg = write_config(tmp_path / f"{name}.json", cfg_data)
        fresh, here = tmp_path / f"{name}-fresh.qft", tmp_path / f"{name}-here.qft"
        code = "from mixvar.cli import main; print(main(sys.argv[2:]))"
        assert fresh_python(code, "envelope", "--config", cfg, "--out", str(fresh)) == "0"
        assert main(["envelope", "--config", cfg, "--out", str(here)]) == 0
        assert fresh.read_bytes() == here.read_bytes()


def test_non_dyadic_levels_are_a_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {**ENVELOPE_CFG, "levels": [17, 40]})
    rc = main(["envelope", "--config", cfg, "--out", str(tmp_path / "t.qft")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'levels'" in err
    assert not (tmp_path / "t.qft").exists()


def test_too_coarse_resolution_is_a_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {**ENVELOPE_CFG, "resolution": 3})
    rc = main(["envelope", "--config", cfg, "--out", str(tmp_path / "t.qft")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'resolution'" in err
    assert not (tmp_path / "t.qft").exists()


@pytest.mark.parametrize("command, cfg_data, field", [
    ("solve", {**SOLVE_CFG, "resolution": 3}, "'resolution'"),
    ("solve", {**SOLVE_CFG, "domain": [[1, -1]]}, "'domain'"),
    ("solve", {**SOLVE_CFG, "datum": {"coeffs": {"3": [1.0]}}}, "'datum'"),
    ("ym", {**YM_CFG, "source": {**YM_CFG["source"], "resolution": 3}}, "'source'"),
    ("solve", {**SOLVE_CFG, "datum": {"coeffs": {"0": [0.0, 0.0]}}}, "'datum'"),  # n = 2 vs 1
])
def test_bad_grid_or_datum_is_a_validation_error(tmp_path, capsys, command, cfg_data, field):
    cfg = write_config(tmp_path / "cfg.json", cfg_data)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, field", [
    (["--q", "3.0"], "'q'"),                        # q outside [1, p=2]
    (["--q", "2.0", "--t=-1:2:4"], "'--t'"),       # negative t
    (["--q", "2.0", "--t", "1:1:4"], "'--t'"),      # repeated t
    (["--q", "2.0", "--t", "0:2"], "'--t'"),        # not lo:hi:count
    (["--q", "2.0", "--t", "0:inf:5"], "'--t'"),    # infinite t
    (["--q", "2.0", "--t", "nan:1:3"], "'--t'"),    # nan t
])
def test_bad_theta_arguments_are_validation_errors(tmp_path, capsys, monkeypatch, flags, field):
    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran before validation")

    monkeypatch.setattr(cli, "theta_estimate", no_descent)
    cfg = write_config(tmp_path / "cfg.json", {
        "a": [2], "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
        "resolution": 17, "seed": 4,
    })
    rc = main(["coerce", "--config", cfg, "--out", str(tmp_path / "theta.csv"), *flags])
    assert rc == 2
    assert field in capsys.readouterr().err


def test_an_infinite_t_range_is_a_config_error_without_numpy_warnings(tmp_path, capfd):
    # a new interpreter prints the warnings that pytest would capture; the
    # range is checked before np.linspace, which warns of its inf * 0
    cfg = write_config(tmp_path / "cfg.json", {
        "a": [2], "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
        "resolution": 17, "seed": 4,
    })
    run = fresh_run("from mixvar.cli import main; sys.exit(main(sys.argv[2:]))",
                    "coerce", "--config", cfg, "--out", str(tmp_path / "theta.csv"),
                    "--q", "2.0", "--t", "0:inf:5")
    assert run.returncode == 2
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: field '--t'")


def test_a_t_range_no_start_survives_is_a_numerical_failure(tmp_path):
    # at t = 1e308 every start overflows: exit 3 and no curve, not inf rows and a NaN fit
    cfg = write_config(tmp_path / "cfg.json", {
        "a": [2], "integrand": {"name": "pnorm", "params": {"p": 2, "n": 1, "m": 1}},
        "resolution": 17, "multistart": 2, "seed": 4,
    })
    out = tmp_path / "theta.csv"
    with np.errstate(all="ignore"):  # the diverging descents overflow
        rc = main(["coerce", "--config", cfg, "--out", str(out), "--q", "2", "--t", "0:1e308:5"])
    assert rc == 3
    assert json.loads((tmp_path / "failure.json").read_text())["error"] == "RuntimeError"
    assert not out.exists() and not out.with_suffix(".csv.fit.json").exists()


def test_missing_seed_is_a_validation_error(tmp_path, capsys):
    cfg_data = {k: v for k, v in ENVELOPE_CFG.items() if k != "seed"}
    cfg = write_config(tmp_path / "noseed.json", cfg_data)
    rc = main(["envelope", "--config", cfg, "--out", str(tmp_path / "x.qft")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("seed", True), ("a", [True])])
def test_json_booleans_are_not_integers(tmp_path, capsys, key, value):
    # bool is an int in Python: true must not run as seed 1 or as a=(1,)
    cfg = write_config(tmp_path / "cfg.json", {**ENVELOPE_CFG, key: value})
    out = tmp_path / "x.qft"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


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


def small_table(a, n, m):
    """An envelope table for (a, n, m) with zero values; building it runs no descent."""
    lattice = tuple((-2.0, 2.0, 3) for _ in range(n * m))
    return EnvelopeTable(a, n, m, 2.0, lattice, np.zeros((3,) * (n * m)), None)


@pytest.mark.parametrize("argv, cfg_extra, field", [
    (["--levels", "0"], {}, "'--levels'"),
    ([], {"levels": 0}, "'levels'"),
    ([], {"levels": -2}, "'levels'"),
    ([], {"levels": 2.5}, "'levels'"),
])
def test_relax_without_levels_is_a_validation_error(tmp_path, capsys, monkeypatch,
                                                    argv, cfg_extra, field):
    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran before validation")

    monkeypatch.setattr(cli, "relax_compare", no_descent)
    table_path = tmp_path / "t.qft"
    small_table((2,), 1, 1).save(table_path)
    cfg = write_config(tmp_path / "s.json", {**SOLVE_CFG, **cfg_extra})
    out = tmp_path / "r"
    rc = main(["relax", "--config", cfg, "--table", str(table_path), *argv, "--out", str(out)])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_relax_with_a_table_for_another_problem_is_a_validation_error(tmp_path, capsys,
                                                                       monkeypatch):
    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran before validation")

    monkeypatch.setattr(cli, "relax_compare", no_descent)
    table_path = tmp_path / "t.qft"
    small_table((1, 2), 1, 2).save(table_path)  # an a=(1,2), m=2 table ...
    cfg = write_config(tmp_path / "s.json", SOLVE_CFG)  # ... against an a=(2,) problem
    out = tmp_path / "r"
    rc = main(["relax", "--config", cfg, "--table", str(table_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'--table'" in err and "a=(1, 2)" in err
    assert not out.exists()


def no_descent(*args, **kwargs):
    raise AssertionError("a descent ran before validation")


COERCE_CFG = {**ENVELOPE_CFG, "lattice": None, "q": 2.0, "t_grid": [0.0, 1.0, 2.0]}


@pytest.mark.parametrize("command, cfg_data, field, message", [
    ("envelope", {**ENVELOPE_CFG, "lattice": [[-2.0, 2.0, 5]] * 2}, "'lattice'", "needs 1"),
    ("envelope", {**ENVELOPE_CFG, "lattice": [[-2.0, 2.0]]}, "'lattice'", "[lo, hi, count]"),
    ("envelope", {**ENVELOPE_CFG, "lattice": [5]}, "'lattice'", "[lo, hi, count]"),
    ("envelope", {**ENVELOPE_CFG, "lattice": [[-2.0, 2.0, 0]]}, "'lattice'", "integer >= 1"),
    ("envelope", {**ENVELOPE_CFG, "lattice": [[-2.0, 2.0, 1]]}, "'lattice'", "lo == hi"),
    ("envelope", {**ENVELOPE_CFG, "multistart": 0}, "'multistart'", "integer >= 1"),
    ("envelope", {**ENVELOPE_CFG, "maxiter": "20"}, "'maxiter'", "integer >= 0"),
    ("coerce", {**COERCE_CFG, "maxiter": 2.5}, "'maxiter'", "integer >= 0"),
    ("solve", {**SOLVE_CFG, "maxiter": "20"}, "'maxiter'", "integer >= 0"),
    ("solve", {**SOLVE_CFG, "multistart": -1}, "'multistart'", "integer >= 0"),
    ("envelope", {**ENVELOPE_CFG, "tol": "x"}, "'tol'", "finite number"),
    ("envelope", {**ENVELOPE_CFG, "resolution": 17.5}, "'resolution'", "integer >= 1"),
    ("envelope", {**ENVELOPE_CFG, "levels": [9.5, 18]}, "'levels'", "integers"),
    ("coerce", {**COERCE_CFG, "c_min": "x"}, "'c_min'", "finite number"),
    ("coerce", {**COERCE_CFG, "resolution": "9"}, "'resolution'", "integer >= 1"),
    ("solve", {**SOLVE_CFG, "gtol": "x"}, "'gtol'", "finite number"),
    ("solve", {**SOLVE_CFG, "perturbation": "x"}, "'perturbation'", "finite number"),
    ("solve", {**SOLVE_CFG, "p": "x"}, "'p'", "finite number"),
    ("solve", {**SOLVE_CFG, "domain": [[-1, 1, 5]]}, "'domain'", "[lo, hi]"),
    ("solve", {**SOLVE_CFG, "domain": [["a", "b"]]}, "'domain'", "[lo, hi]"),
    ("solve", {**SOLVE_CFG, "resolution": [9.5]}, "'resolution'", "list of integers"),
    ("ym", {**YM_CFG, "source": {**YM_CFG["source"], "j": "x"}}, "'source.j'", "integer >= 0"),
    ("ym", {**YM_CFG, "source": {**YM_CFG["source"], "j": -1}}, "'source.j'", "integer >= 0"),
    ("ym", {**YM_CFG, "source": {**YM_CFG["source"], "components": "x"}},
     "'source.components'", "integer >= 1"),
    ("ym", {**YM_CFG, "source": {**YM_CFG["source"], "amplitude": "x"}},
     "'source.amplitude'", "finite number"),
    ("ym", {**YM_CFG, "p": "x"}, "'p'", "finite number"),
    # JSON booleans and strings are not numbers: none may run as 1.0, 0 or 2.0
    ("coerce", {**COERCE_CFG, "q": True}, "'q'", "finite number"),
    ("coerce", {**COERCE_CFG, "q": "2"}, "'q'", "finite number"),
    ("coerce", {**COERCE_CFG, "t_grid": [False, True, "3"]}, "'t_grid'", "finite numbers"),
    ("solve", {**SOLVE_CFG, "datum": {"coeffs": {"2": True, "0": "0.5"}}}, "'datum'",
     "finite number"),
    ("solve", {**SOLVE_CFG, "integrand": {"name": "pnorm", "params": {"p": "3", "n": 1, "m": 1}}},
     "'p'", "finite number"),
    ("envelope", {**ENVELOPE_CFG, "integrand": {"name": "double_well", "params": {"w": True}}},
     "'w'", "finite number"),
    ("envelope", {**ENVELOPE_CFG, "integrand": {"name": "double_well", "params": {"n": True}}},
     "'n'", "an integer"),
    ("envelope", {**ENVELOPE_CFG, "integrand": {"name": "double_well", "params": {"m": 1.7}}},
     "'m'", "an integer"),
    ("envelope", {**ENVELOPE_CFG, "integrand": {"name": "double_well", "params": {"col": False}}},
     "'col'", "an integer"),
    ("solve", {**SOLVE_CFG, "integrand": {"name": "pnorm", "params": {"p": 2, "n": 0, "m": 1}}},
     "'n'", "at least 1"),
    ("solve", {**SOLVE_CFG, "integrand": {"name": "pnorm", "params": {"p": -1, "n": 1, "m": 1}}},
     "'p'", "at least 1"),
    ("envelope", {**ENVELOPE_CFG, "integrand": {"name": "constant",
                                                "params": {"c": 1.0, "m": 0, "p": 2.0}}},
     "'m'", "at least 1"),
    # every slope is clamped at 0, so c_min = 0 would call every curve coercive
    ("coerce", {**COERCE_CFG, "c_min": 0}, "'c_min'", "positive"),
    # JSON's -Infinity is a number, and the double well overflows to nan at 5e307
    ("envelope", {**ENVELOPE_CFG, "lattice": [[-np.inf, 1.0, 3]]}, "'lattice'", "and finite"),
    ("envelope", {**ENVELOPE_CFG, "lattice": [[-1.0, 1e308, 3]]}, "'lattice'", "not finite"),
    ("envelope", {**ENVELOPE_CFG, "lattice": [[-1e308, 1e308, 3]]}, "'lattice'", "overflows"),
])
@pytest.mark.filterwarnings("error")  # a config error is reported without a numpy warning
def test_malformed_counts_and_lattices_are_validation_errors(tmp_path, capsys, monkeypatch,
                                                             command, cfg_data, field, message):
    for name in ("tabulate_envelope", "theta_estimate", "solve_dirichlet", "scale_and_tile"):
        monkeypatch.setattr(cli, name, no_descent)
    cfg_data = {k: v for k, v in cfg_data.items() if v is not None}
    cfg = write_config(tmp_path / "cfg.json", cfg_data)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and message in err
    assert not out.exists()


# option fields that no config key sets, each with the reason it stays
UNSET_OPTION_FIELDS = {
    (ThetaOptions, "domain"): "the domain-invariance property test of theta sets it",
}


@pytest.mark.parametrize("options, command", [
    (EnvelopeOptions, "envelope"), (ThetaOptions, "coerce"), (SolveOptions, "solve"),
])
def test_every_option_field_is_a_config_key_of_its_subcommand(options, command):
    # a field only tests set belongs in a module constant the tests patch
    unread = {f.name for f in fields(options)} - cli._CONFIG_KEYS[command]
    assert unread == {name for owner, name in UNSET_OPTION_FIELDS if owner is options}


def table_file(path, lattice, magic=TABLE_MAGIC, nodes=3, **changes):
    """A .qft file with the given lattice and zero values, written without any check.

    A header key given as None in ``changes`` is left out.
    """
    from mixvar.containers import write_container

    header = {"kind": "envelope-table", "a": [2], "n": 1, "m": 1, "p": 2.0, "lattice": lattice,
              "meta": {}, "failures": [0] * nodes}
    header.update(changes)
    header = {key: val for key, val in header.items() if val is not None}
    write_container(path, magic, header, np.zeros(nodes))
    return path


@pytest.mark.parametrize("make_table, message", [
    (lambda d: d / "missing.qft", "No such file"),
    (lambda d: table_file(d / "t.qft", [[-2.0, 2.0, 3]], b"NOT-A-TABLE-FILE"), "bad magic"),
    (lambda d: d / "empty.qft", "bad magic"),
    (lambda d: d / "truncated.qft", "truncated header"),
    (lambda d: table_file(d / "t.qft", [[-2.0, 2.0, 3]] * 2), "needs 1"),
    (lambda d: table_file(d / "t.qft", [[-2.0, 2.0, 3, 1]]), "[lo, hi, count]"),
    (lambda d: table_file(d / "t.qft", [[-2.0, 2.0, 0]]), "integer >= 1"),
    (lambda d: table_file(d / "t.qft", [[-2.0, 2.0, 1]]), "lo == hi"),
    (lambda d: table_file(d / "t.qft", [[0.0, 0.0, 1]], nodes=1), "flat"),
    (lambda d: table_file(d / "t.qft", [[-2.0, 2.0, 3]], failures=None), "lacks failures"),
    (lambda d: table_file(d / "t.qft", [[-2.0, 2.0, 3]], a=2), "not iterable"),
    (lambda d: table_file(d / "t.qft", [[-2.0, 2.0, 3]], n="1"), "n and m must be integers"),
])
def test_relax_with_an_unreadable_table_is_a_validation_error(tmp_path, capsys, monkeypatch,
                                                              make_table, message):
    monkeypatch.setattr(cli, "relax_compare", no_descent)
    (tmp_path / "empty.qft").write_bytes(b"")
    (tmp_path / "truncated.qft").write_bytes(TABLE_MAGIC + b"\x01\x02")
    table_path = make_table(tmp_path)
    cfg = write_config(tmp_path / "s.json", SOLVE_CFG)
    out = tmp_path / "r"
    rc = main(["relax", "--config", cfg, "--table", str(table_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'--table'" in err and message in err
    assert not out.exists()

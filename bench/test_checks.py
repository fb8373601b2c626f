"""Each independent check accepts a sound artifact and rejects a corrupted one.

Run from the root of the checkout:  python3 -m pytest bench/test_checks.py
The artifacts are written here byte by byte, without mixvar.
"""

import json
import struct

import numpy as np
import pytest

import checks


def write_container(path, magic, header, payload):
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<Q", len(blob)) + blob)
        fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def write_table(path, lattice, values):
    header = {"lattice": lattice, "failures": [0] * int(np.size(values))}
    write_container(path, checks.TABLE_MAGIC, header, values)


VS = [-1.2, -0.6, 0.0, 0.6, 1.2]
# outside the well the envelope is F itself; inside it is an upper estimate of 0
SOUND_1D = [0.1936, 1e-3, 2e-3, 1e-3, 0.1936]


def test_table_bounds_accept_sound_table(tmp_path):
    write_table(tmp_path / "t.qft", [[-1.2, 1.2, 5]], SOUND_1D)
    axes, values, failures = checks.read_table(tmp_path / "t.qft")
    excess = checks.check_table_bounds(checks.lattice_points(axes), values, 0)
    assert excess == pytest.approx(8e-4)
    assert checks.check_hull_oracle(axes[0], values) < checks.ORACLE_TOL
    assert not failures.any()


@pytest.mark.parametrize("node, value, message", [
    (4, 0.2, "above F"),          # F(1.2) = 0.1936
    (0, 0.19, "below CF"),        # CF(-1.2) = h(-1.2) = 0.1936
    (2, -1e-6, "below CF"),       # CF(0) = 0
])
def test_table_bounds_reject_corrupted_node(tmp_path, node, value, message):
    values = list(SOUND_1D)
    values[node] = value
    write_table(tmp_path / "t.qft", [[-1.2, 1.2, 5]], values)
    axes, values, _ = checks.read_table(tmp_path / "t.qft")
    with pytest.raises(checks.CheckError, match=message):
        checks.check_table_bounds(checks.lattice_points(axes), values, 0)


def test_table_bounds_two_dimensional(tmp_path):
    lattice = [[-0.5, 0.5, 3], [-1.5, 1.5, 3]]
    axes = [np.linspace(lo, hi, c) for lo, hi, c in lattice]
    pts = checks.lattice_points(axes)
    cf = checks.double_well_cf(pts, 1)
    # (V10, V02) = (0.5, 0): CF = 0.25 from the quadratic column, F = 1.25
    assert cf[2, 1] == pytest.approx(0.25)
    assert checks.double_well(pts, 1)[2, 1] == pytest.approx(1.25)
    write_table(tmp_path / "t.qft", lattice, np.minimum(cf + 1e-3, checks.double_well(pts, 1)))
    _, values, _ = checks.read_table(tmp_path / "t.qft")
    checks.check_table_bounds(pts, values, 1)
    values = values.copy()
    values[2, 1] = 0.2
    with pytest.raises(checks.CheckError, match="below CF"):
        checks.check_table_bounds(pts, values, 1)


def test_hull_oracle_rejects_far_value():
    values = np.array(SOUND_1D)
    values[2] = 0.2
    with pytest.raises(checks.CheckError, match="deviates from h"):
        checks.check_hull_oracle(np.array(VS), values)


def test_table_bad_magic(tmp_path):
    write_container(tmp_path / "t.qft", checks.FIELD_MAGIC, {"lattice": [[0, 1, 2]]}, [0.0, 0.0])
    with pytest.raises(checks.CheckError, match="bad magic"):
        checks.read_table(tmp_path / "t.qft")


def test_jensen_bound():
    V = np.array([0.5, 0.3])        # CF = 0.25, F = 0.8281 + 0.25
    checks.check_jensen(1.2, 4.0, V, col=1)
    with pytest.raises(checks.CheckError, match="Jensen"):
        checks.check_jensen(0.99, 4.0, V, col=1)      # below vol * CF = 1.0
    with pytest.raises(checks.CheckError, match="Jensen"):
        checks.check_jensen(4.4, 4.0, V, col=1)       # above vol * F = 4.3124


def write_field(path, values, shape=(9, 9)):
    header = {"domain": [[-1.0, 1.0], [-1.0, 1.0]], "shape": list(shape), "n": 1, "collar": [1, 2]}
    write_container(path, checks.FIELD_MAGIC, header, values)


COEFFS = {"1,0": [0.5], "0,2": [0.3]}


def datum_grid():
    x, y = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9), indexing="ij")
    return 0.5 * x + 0.15 * y**2


def test_collar_accepts_datum_with_free_interior(tmp_path):
    u = datum_grid()
    u[3:6, 3:6] += 0.7            # interior nodes are free
    write_field(tmp_path / "u.field", u)
    checks.check_collar(tmp_path / "u.field", COEFFS)


@pytest.mark.parametrize("node", [(0, 4), (8, 8), (4, 1), (4, 7)])
def test_collar_rejects_moved_boundary_node(tmp_path, node):
    u = datum_grid()
    u[node] += 1e-6
    write_field(tmp_path / "u.field", u)
    with pytest.raises(checks.CheckError, match="collar"):
        checks.check_collar(tmp_path / "u.field", COEFFS)


def test_nonincreasing():
    checks.check_nonincreasing([3.0, 2.0, 2.0, 1.0], "trace")
    with pytest.raises(checks.CheckError, match="increases at step 2"):
        checks.check_nonincreasing([3.0, 2.0, 2.5], "trace")


def test_theta_identity():
    ts = [0.0, 1.0, 2.0, 3.0, 4.0]
    checks.check_theta_identity(ts, [t + 1e-9 for t in ts])
    with pytest.raises(checks.CheckError, match="theta_hat"):
        checks.check_theta_identity(ts, [0.0, 1.0, 2.01, 3.0, 4.0])
    checks.check_c1(1.0)
    with pytest.raises(checks.CheckError, match="c1"):
        checks.check_c1(0.8)


def test_relax():
    checks.check_relax([0.15, 0.04, 0.01], [0.15, 0.04, 0.01])
    with pytest.raises(checks.CheckError, match="increases"):
        checks.check_relax([0.15, 0.04, 0.05], [0.15, 0.04, 0.05])
    with pytest.raises(checks.CheckError, match="gap"):
        checks.check_relax([0.15, 0.04, 0.01], [0.15, 0.04, -1e-6])
    with pytest.raises(checks.CheckError, match="negative"):
        checks.check_relax([0.15, float("nan"), 0.01], [0.15, 0.04, 0.01])


def test_csv_reader(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("# config_hash=abc\nlevel,E_F\n0,0.5\n1,nan\n", encoding="utf-8")
    assert checks.read_csv(path) == [{"level": "0", "E_F": "0.5"}, {"level": "1", "E_F": "nan"}]
    path.write_text("level,E_F\n0,0.5\n", encoding="utf-8")
    with pytest.raises(checks.CheckError, match="config-hash"):
        checks.read_csv(path)

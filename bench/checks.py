"""Independent checks on mixvar artifacts.

Everything here is computed apart from the package: the container reader,
the double-well integrand, its closed-form convex envelope, the Jensen
bounds and the datum polynomial.  Nothing imports mixvar, so a fault in the
package numerics cannot hide itself by also corrupting the reference.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

FIELD_MAGIC = b"MIXVAR-FIELD\x00\x00\x00\x00"
TABLE_MAGIC = b"MIXVAR-QCTAB\x00\x00\x00\x00"

# criterion-2 tolerance on |table - h| / (1 + |F|)
ORACLE_TOL = 0.05
BOUND_TOL = 1e-9


class CheckError(Exception):
    """An artifact contradicts an independent computation or a method property."""


def read_container(path, magic: bytes) -> tuple[dict, np.ndarray]:
    """16-byte magic, little-endian uint64 header length, JSON header, float64 payload."""
    blob = Path(path).read_bytes()
    if blob[:16] != magic:
        raise CheckError(f"{path}: bad magic {blob[:16]!r}")
    (hlen,) = struct.unpack("<Q", blob[16:24])
    header = json.loads(blob[24:24 + hlen].decode("utf-8"))
    payload = np.frombuffer(blob[24 + hlen:], dtype="<f8")
    return header, payload


def read_table(path) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Lattice axes, node values and failure mask of a `.qft` file."""
    header, payload = read_container(path, TABLE_MAGIC)
    counts = tuple(int(c) for _, _, c in header["lattice"])
    axes = [np.linspace(lo, hi, int(c)) for lo, hi, c in header["lattice"]]
    values = payload.reshape(counts)
    failures = np.array(header["failures"], dtype=bool).reshape(counts)
    return axes, values, failures


def read_csv(path) -> list[dict]:
    """Rows of a mixvar CSV report (first line is the config-hash comment)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise CheckError(f"{path}: missing config-hash comment line")
    columns = lines[1].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[2:] if line]


def h(v):
    """Convex envelope of the 1-D double well (v^2 - 1)^2."""
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) <= 1.0, 0.0, (v**2 - 1.0) ** 2)


def double_well(V, col: int):
    """(V[col]^2 - 1)^2 plus the squares of the other entries, for V of shape (..., m)."""
    V = np.asarray(V, dtype=float)
    v = V[..., col]
    return (v**2 - 1.0) ** 2 + np.sum(V**2, axis=-1) - v**2


def double_well_cf(V, col: int):
    """Closed-form convex envelope: h on the well column, the rest stays quadratic."""
    V = np.asarray(V, dtype=float)
    v = V[..., col]
    return h(v) + np.sum(V**2, axis=-1) - v**2


def lattice_points(axes: list[np.ndarray]) -> np.ndarray:
    """Node coordinates of a lattice, shape counts + (len(axes),)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def check_table_bounds(points: np.ndarray, values: np.ndarray, col: int, tol: float = BOUND_TOL):
    """CF(V) - tol <= table <= F(V) at every node; returns the mean excess over CF."""
    F = double_well(points, col)
    CF = double_well_cf(points, col)
    above = values > F
    if np.any(above):
        idx = tuple(int(i) for i in np.argwhere(above)[0])
        raise CheckError(f"table value {float(values[idx])!r} above F(V) = {float(F[idx])!r} at node {idx}")
    below = values < CF - tol
    if np.any(below):
        idx = tuple(int(i) for i in np.argwhere(below)[0])
        raise CheckError(f"table value {float(values[idx])!r} below CF(V) = {float(CF[idx])!r} at node {idx}")
    return float(np.mean(values - CF))


def check_hull_oracle(vs: np.ndarray, values: np.ndarray, tol: float = ORACLE_TOL) -> float:
    """Criterion 2: |table - h| / (1 + |F|) within tol at every 1-D node."""
    err = np.abs(values - h(vs)) / (1.0 + np.abs(double_well(vs[:, None], 0)))
    worst = float(np.max(err))
    if not worst <= tol:
        raise CheckError(f"1-D envelope deviates from h by {worst:.4f} > {tol}")
    return worst


def check_jensen(energy: float, volume: float, V, col: int, tol: float = 1e-9):
    """vol * CF(V) <= E <= vol * F(V) for a Dirichlet energy with constant-gradient datum V."""
    lo = volume * float(double_well_cf(V, col))
    hi = volume * float(double_well(V, col))
    if not (lo - tol * (1.0 + abs(lo)) <= energy <= hi + tol * (1.0 + abs(hi))):
        raise CheckError(f"solve energy {energy!r} outside the Jensen bounds [{lo}, {hi}]")


def datum_values(coeffs: dict, coords: list[np.ndarray]) -> np.ndarray:
    """Taylor-normalized polynomial sum_gamma c_gamma x^gamma / gamma! at the nodes."""
    out = np.zeros(coords[0].shape)
    for key, (c,) in coeffs.items():
        gamma = [int(g) for g in key.split(",")]
        term = np.full(coords[0].shape, float(c))
        for x, g in zip(coords, gamma):
            term = term * x**g / math.factorial(g)
        out = out + term
    return out


def check_collar(path, coeffs: dict, tol: float = 1e-12):
    """The collar of a `.field` solution (width a_i per axis) equals the datum polynomial."""
    header, payload = read_container(path, FIELD_MAGIC)
    shape = tuple(header["shape"])
    values = payload.reshape(shape + (header["n"],))[..., 0]
    coords = np.meshgrid(*[np.linspace(lo, hi, c) for (lo, hi), c in zip(header["domain"], shape)],
                         indexing="ij")
    collar = np.zeros(shape, dtype=bool)
    for axis, width in enumerate(header["collar"]):
        lo = [slice(None)] * len(shape)
        hi = [slice(None)] * len(shape)
        lo[axis] = slice(0, width)
        hi[axis] = slice(shape[axis] - width, shape[axis])
        collar[tuple(lo)] = True
        collar[tuple(hi)] = True
    want = datum_values(coeffs, coords)
    worst = float(np.max(np.abs(values[collar] - want[collar])))
    if not worst <= tol * (1.0 + float(np.max(np.abs(want)))):
        raise CheckError(f"solution collar differs from the datum by {worst:.3e}")


def check_nonincreasing(seq, name: str, tol: float = 1e-12):
    seq = [float(x) for x in seq]
    for i, (a, b) in enumerate(zip(seq, seq[1:])):
        if not b <= a + tol * (1.0 + abs(a)):
            raise CheckError(f"{name} increases at step {i + 1}: {a!r} -> {b!r}")


def check_theta_identity(ts, thetas, tol: float = 1e-6):
    """theta(t) = t for |V|^2 with q = 2."""
    for t, th in zip(ts, thetas):
        if not abs(th - t) <= tol * (1.0 + t):
            raise CheckError(f"theta_hat({t}) = {th!r}, expected {t}")


def check_c1(c1: float, lo: float = 0.9, hi: float = 1.1):
    if not lo <= c1 <= hi:
        raise CheckError(f"coercivity constant c1 = {c1!r} outside [{lo}, {hi}]")


def check_relax(E_F, gaps, gap_tol: float = 1e-8):
    """E_F >= 0 and nonincreasing over the ladder, every gap >= -gap_tol."""
    if any(not e >= 0.0 for e in E_F):
        raise CheckError(f"negative or non-finite direct energy in {E_F}")
    check_nonincreasing(E_F, "relax E_F", tol=1e-10)
    if any(not g >= -gap_tol for g in gaps):
        raise CheckError(f"relaxation gap below -{gap_tol}: {gaps}")

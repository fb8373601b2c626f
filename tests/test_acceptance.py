"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold, so a verbose run
reads as a checklist.  The double-well envelope table used by criteria 2 and
11 is produced through the CLI (twice, for the byte-determinism check) by a
module-scoped fixture.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from mixvar.cli import main as cli_main
from mixvar.coercivity import ThetaOptions, mean_coercivity_fit, strong_qc_test, theta_estimate
from mixvar.envelope import EnvelopeOptions, EnvelopeTable, dacorogna_min, dacorogna_refine, tabulate_envelope
from mixvar.grid import Grid, GridField, a_gradient
from mixvar.integrand import builtin
from mixvar.smoothness import SmoothnessVector
from mixvar.solver import DirichletProblem, SolveOptions, relax_compare, solve_dirichlet
from mixvar.youngmeasure import empirical_measure, jensen_gap, moments, decompose
from mixvar._descent import smooth_noise


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# criterion-2 configuration, shared with the determinism check (criterion 11)
CRIT2_CONFIG = {
    "a": [2],
    "integrand": {"name": "double_well", "params": {"w": 1.0, "n": 1, "m": 1}},
    "lattice": [[-2.0, 2.0, 41]],
    "resolution": 129,
    "multistart": 16,
    "maxiter": 800,
    "seed": 20260810,
}


@pytest.fixture(scope="module")
def crit2_tables(tmp_path_factory):
    """Two CLI runs of the criterion-2 config; returns paths and durations."""
    root = tmp_path_factory.mktemp("crit2")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CRIT2_CONFIG), encoding="utf-8")
    paths = [root / "run1.qft", root / "run2.qft"]
    durations = []
    for p in paths:
        t0 = time.perf_counter()
        assert cli_main(["envelope", "--config", str(cfg), "--out", str(p)]) == 0
        durations.append(time.perf_counter() - t0)
    return paths, durations


def lower_convex_hull_1d(f, lo=-3.0, hi=3.0, k=10**4):
    xs = np.linspace(lo, hi, k)
    ys = f(xs)
    hull = []
    for p in zip(xs, ys):
        while len(hull) >= 2 and (
            (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-1][0])
            >= (p[1] - hull[-1][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(p)
    hx = np.array([q[0] for q in hull])
    hy = np.array([q[1] for q in hull])
    return lambda x: np.interp(x, hx, hy)


def test_criterion_1_convex_envelope_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    opts = EnvelopeOptions(resolution=33, multistart=2, maxiter=120, seed=11)
    integrands = [
        builtin("pnorm", p=2, n=1, m=2),
        builtin("quadratic", A=[[2.0, 0.3], [0.3, 1.0]], n=1, m=2),
    ]
    worst = 0.0
    for F in integrands:
        # the descent on a copy without the certificate, and the certified F,
        # which takes F(V) without one
        plain = replace(F, hull_exact=None)
        for _ in range(20):
            V = rng.uniform(-2.0, 2.0, size=(1, 2))
            est = dacorogna_min(plain, V, (1, 2), opts)
            worst = max(worst, abs(est.value - float(F(V))))
            exact = dacorogna_min(F, V, (1, 2), opts)
            assert exact.value == float(F(V)) and exact.per_start == []
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed <= 60.0
    report(1, f"convex envelope identity, max |diff| = {worst:.2e} descended, "
              f"exact where certified, {elapsed:.1f}s")


def test_criterion_2_one_d_convexification_oracle(crit2_tables):
    paths, durations = crit2_tables
    table = EnvelopeTable.load(paths[0])
    F = builtin("double_well", w=1.0, n=1, m=1)
    hull = lower_convex_hull_1d(lambda v: (v**2 - 1.0) ** 2)
    vs = np.linspace(-2.0, 2.0, 41)
    worst = 0.0
    for v, value in zip(vs, table.values):
        err = abs(value - hull(v)) / (1.0 + abs(float(F(np.array([[v]])))))
        worst = max(worst, err)
    at_zero = table.values[20]
    assert worst <= 0.05
    assert at_zero <= 0.05
    assert durations[0] <= 300.0
    report(2, f"envelope vs convex-hull oracle, max rel err = {worst:.4f}, "
              f"value at 0 = {at_zero:.4f}, tabulation {durations[0]:.0f}s")


def test_criterion_3_mesh_monotonicity():
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(multistart=8, maxiter=1500, seed=31)
    values, _ = dacorogna_refine(F, 0.0, (2,), levels=(17, 33, 65), opts=opts)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-10
    report(3, f"refinement ladder nonincreasing: {[round(v, 6) for v in values]}")


def test_criterion_4_summation_by_parts():
    rng = np.random.default_rng(41)
    worst = 0.0
    count = 0
    for a in [(1, 2), (2, 2), (1, 1, 3)]:
        sv = SmoothnessVector(a)
        counts = tuple(max(11, 2 * ai + 3) for ai in a)
        g = Grid(tuple(((-1, 1),) * len(a)), counts, sv)
        per_case = 100 // 3 + 1
        for _ in range(per_case):
            phi = GridField(g, rng.normal(size=g.shape + (1,))).with_zero_collar()
            W = a_gradient(phi)
            mean = np.abs(W.mean()).max()
            scale = np.abs(W.values).mean()
            worst = max(worst, mean / scale)
            count += 1
    assert count >= 100
    assert worst <= 1e-12
    report(4, f"barycentre exactness over {count} fields, worst rel = {worst:.2e}")


def test_criterion_5_coercivity_fit():
    t0 = time.perf_counter()
    t_grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    F = builtin("pnorm", p=2, n=1, m=2)
    curve = theta_estimate(F, 2.0, t_grid, (1, 2), ThetaOptions(seed=51, multistart=2))
    fit = mean_coercivity_fit(curve)
    assert 0.9 <= fit.c1 <= 1.1
    assert fit.coercive
    th = curve.theta_hat
    for i in range(1, len(th) - 1):
        defect = th[i] - 0.5 * (th[i - 1] + th[i + 1])
        assert defect <= 0.1 * (1 + abs(th[i]))
    Z = builtin("constant", c=0.0, n=1, m=2)
    zcurve = theta_estimate(Z, 2.0, t_grid, (1, 2), ThetaOptions(seed=52, multistart=2))
    zfit = mean_coercivity_fit(zcurve)
    assert zfit.c1 == 0.0 and not zfit.coercive
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    report(5, f"theta fit c1 = {fit.c1:.4f} (coercive), zero integrand c1 = 0, "
              f"{elapsed:.1f}s")


def test_criterion_6_point_criterion_cross_check():
    opts = EnvelopeOptions(resolution=17, multistart=4, maxiter=200, seed=61)
    F = builtin("pnorm", p=2, n=1, m=2)
    verdict = strong_qc_test(F, 0.5, 2.0, np.zeros((1, 2)), (1, 2), opts)
    assert verdict.holds
    curve = theta_estimate(F, 2.0, [0.0, 1.0, 2.0, 3.0, 4.0], (1, 2),
                           ThetaOptions(seed=62, multistart=2))
    fit = mean_coercivity_fit(curve)
    assert fit.c1 >= 0.4
    report(6, f"point test holds at c = 1/2 and fitted c1 = {fit.c1:.4f} >= 0.4")


def test_criterion_7_quadratic_solver_oracle():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from mixvar.grid import stencil_matrix
    from mixvar.smoothness import homogeneity_set

    t0 = time.perf_counter()
    F = builtin("pantographic")
    rng = np.random.default_rng(71)
    coeffs = {(0, 0): rng.normal(), (1, 0): rng.normal(),
              (0, 1): rng.normal(), (0, 2): rng.normal()}
    prob = DirichletProblem((1, 2), ((-1, 1), (-1, 1)), F, coeffs, 17)
    res = solve_dirichlet(prob, SolveOptions(seed=72))

    grid = prob.grid()
    g = prob.datum_field(grid)
    free = ~grid.collar_mask().reshape(-1)
    mats = [stencil_matrix(grid, al) for al in homogeneity_set(grid.a)]
    gvec = g.values[..., 0].reshape(-1)
    A = sp.vstack([M[:, free] for M in mats], format="csr")
    b = np.concatenate([M @ gvec for M in mats])
    x = spla.spsolve((A.T @ A).tocsc(), -A.T @ b)
    resid = A @ x + b
    oracle = grid.quad_weight * float(resid @ resid)
    elapsed = time.perf_counter() - t0
    assert abs(res.energy - oracle) <= 1e-8 * (1 + abs(oracle))
    assert elapsed <= 10.0
    report(7, f"energy {res.energy:.10f} vs sparse SPD oracle {oracle:.10f}, "
              f"{elapsed:.1f}s")


def test_criterion_8_relaxation_gap():
    t0 = time.perf_counter()
    F = builtin("double_well", w=1.0, n=1, m=1)
    # stronger, ladder-built table so the envelope solve lower-bounds the
    # coarser direct solves
    table = tabulate_envelope(
        F, (2,), [(-2.0, 2.0, 21)],
        EnvelopeOptions(resolution=129, multistart=8, maxiter=2000, seed=81),
        levels=(17, 33, 65, 129),
    )
    prob = DirichletProblem((2,), ((-1.0, 1.0),), F, {(0,): 0.0}, 9)
    rep = relax_compare(prob, table, refinement_levels=3,
                        opts=SolveOptions(seed=82, multistart=2, perturbation=0.05))
    assert rep.lower_bound_ok, f"E_QF exceeds some E_F: gaps {rep.gaps}"
    for a, b in zip(rep.E_F, rep.E_F[1:]):
        assert b <= a + 1e-10
    assert rep.gaps[-1] <= 0.1 * (1 + rep.E_F[0])
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    report(8, f"E_F = {[round(e, 5) for e in rep.E_F]}, E_QF = {rep.E_QF:.5f}, "
              f"final gap = {rep.gaps[-1]:.5f}, {elapsed:.0f}s")


def test_criterion_9_young_measure_duality():
    a = (2,)
    src = Grid(((-1.0, 1.0),), (65,), SmoothnessVector(a))
    rng = np.random.default_rng(91)
    from mixvar.youngmeasure import scale_and_tile

    measures = []
    for i in range(10):
        phi = GridField(src, smooth_noise(src, 1, rng) * (0.5 + 0.2 * i)).with_zero_collar()
        j = 1 + (i % 2)
        target = Grid(((-1.0, 1.0),), (257,), SmoothnessVector(a))
        tiled = scale_and_tile(phi, j, target)
        measures.append(empirical_measure(a_gradient(tiled)))
    amax = max(float(np.abs(nu.atoms).max()) for nu in measures) * 1.1 + 0.5

    opts = EnvelopeOptions(resolution=33, multistart=4, maxiter=400, seed=92)
    gs = [
        builtin("pnorm", p=2, n=1, m=1),
        builtin("quadratic", A=[[1.5]], n=1, m=1),
        builtin("double_well", w=1.0, n=1, m=1),
        builtin("constant", c=0.7, n=1, m=1),
    ]
    worst = np.inf
    for g in gs:
        table = tabulate_envelope(g, a, [(-amax, amax, 33)], opts)
        for nu in measures:
            gap = jensen_gap(nu, g, table)
            worst = min(worst, gap)
            assert gap >= -1e-6
    report(9, f"jensen gap >= -1e-6 for 10 measures x {len(gs)} integrands, "
              f"min gap = {worst:.3e}")


def test_criterion_10_decomposition():
    g = Grid(((-1.0, 1.0),), (257,), SmoothnessVector((2,)))
    rng = np.random.default_rng(101)
    fields = [GridField(g, smooth_noise(g, 1, rng)).with_zero_collar() for _ in range(5)]
    from mixvar.grid import full_gradient

    osc, conc, _ = decompose(fields)
    worst = 0.0
    for u, gf, resid in zip(fields, osc, conc):
        W = full_gradient(u).values
        err = np.max(np.abs(W - (full_gradient(gf).values + resid)))
        worst = max(worst, err / (1 + np.max(np.abs(W))))
    assert worst <= 1e-10

    x = g.axes()[0]
    vals = (1e4 * np.exp(-((x - 0.1) ** 2) / 1e-4))[:, None]
    spike = GridField(g, vals).with_zero_collar()
    _, conc_s, _ = decompose([spike], p=2.0)
    W = full_gradient(spike).values
    routed = float(np.sum(conc_s[0] ** 2)) / float(np.sum(W**2))
    assert routed >= 0.95
    report(10, f"recombination rel err = {worst:.2e}, spike mass routed = {routed:.3f}")


def test_criterion_11_determinism(crit2_tables):
    paths, _ = crit2_tables
    b1 = paths[0].read_bytes()
    b2 = paths[1].read_bytes()
    assert b1 == b2
    report(11, f"two criterion-2 runs byte-identical ({len(b1)} bytes)")

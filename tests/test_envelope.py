import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mixvar.envelope import (
    EnvelopeOptions,
    EnvelopeTable,
    _check_lattice,
    dacorogna_min,
    dacorogna_refine,
    envelope_interpolate,
    is_aqc_at,
    tabulate_envelope,
)
from mixvar import _descent, envelope
from mixvar.integrand import builtin, grad_check, shifted


def lower_convex_hull_1d(f, lo=-3.0, hi=3.0, k=10**4):
    """Independent envelope oracle: lower hull of dense samples, linear interp."""
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


FAST = EnvelopeOptions(resolution=17, multistart=4, maxiter=300, seed=0)
# the double well without its hull_exact certificate: every node descends,
# as the tests of the descent, the cut and the chunking need
WELL = replace(builtin("double_well", w=1.0, n=1, m=1), hull_exact=None)
WELL_2D = replace(builtin("double_well", w=1.0, n=1, m=2, col=1), hull_exact=None)
# 16 starts a node: the screen is cut after _descent._SCREEN_CUT_ROUND evaluations
CUT_LATTICE = [(-2.0, 2.0, 5)]
CUT_OPTS = EnvelopeOptions(resolution=33, multistart=16, maxiter=300, seed=3)


def test_convex_integrand_envelope_is_exact():
    F = builtin("pnorm", p=2, n=1, m=2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        V = rng.uniform(-2, 2, size=(1, 2))
        est = dacorogna_min(F, V, (1, 2), FAST)
        assert abs(est.value - float(F(V))) <= 1e-10


def test_constant_integrand_envelope():
    F = builtin("constant", c=3.25, n=1, m=2)
    est = dacorogna_min(F, np.zeros((1, 2)), (1, 2), FAST)
    assert est.value == pytest.approx(3.25, abs=1e-12)


def test_envelope_requires_growth_bound():
    from mixvar.integrand import Integrand

    F = Integrand(lambda V: np.sum(V**2, axis=(-2, -1)), 1, 2, 2.0, name="nogrowth")
    with pytest.raises(ValueError, match="growth"):
        dacorogna_min(F, np.zeros((1, 2)), (1, 2), FAST)


def test_double_well_envelope_beats_raw_value():
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=65, multistart=8, maxiter=800, seed=2)
    est = dacorogna_min(F, 0.0, (2,), opts)
    assert est.value <= 0.05
    assert est.witness is not None


def test_is_aqc_convex_holds():
    F = builtin("pnorm", p=2, n=1, m=2)
    verdict = is_aqc_at(F, np.array([[0.5, -0.5]]), (1, 2), FAST)
    assert verdict.holds


def test_is_aqc_double_well_violated_with_witness():
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=65, multistart=8, maxiter=800, seed=3)
    verdict = is_aqc_at(F, 0.0, (2,), opts)
    assert not verdict.holds
    assert verdict.value < verdict.reference - opts.tol
    assert verdict.witness is not None
    # reproduce the violation from the witness
    from mixvar.grid import a_gradient

    W = a_gradient(verdict.witness).values
    energy = float(np.mean(F(W)))
    assert energy == pytest.approx(verdict.value, rel=1e-9)


def test_tabulate_convex_equals_integrand():
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-1.0, 1.0, 5)], FAST)
    expected = np.linspace(-1, 1, 5) ** 2
    assert np.allclose(table.values, expected, atol=1e-10)
    assert not table.failures.any()


def test_tabulate_constant():
    F = builtin("constant", c=-1.5, n=1, m=1, p=2)
    table = tabulate_envelope(F, (2,), [(-1.0, 1.0, 4)], FAST)
    assert np.allclose(table.values, -1.5, atol=1e-12)


def test_envelope_interpolation():
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-1.0, 1.0, 5)], FAST)
    # node query is exact
    assert envelope_interpolate(table, np.array([0.5])) == pytest.approx(0.25, abs=1e-12)
    # midpoint of two nodes is their average
    v = envelope_interpolate(table, np.array([0.25]))
    assert v == pytest.approx((0.0 + 0.25) / 2, abs=1e-12)
    with pytest.raises(ValueError, match="hull"):
        envelope_interpolate(table, np.array([1.5]))


@pytest.mark.parametrize("levels, opts", [
    ((17, 33, 65), EnvelopeOptions(multistart=8, maxiter=1500, seed=4)),
    # the V = 0 node of the relax test's table: a 129 level that only a
    # budget-exhausted random start could win used to exceed the 65 level
    ((17, 33, 65, 129), EnvelopeOptions(resolution=129, multistart=8, maxiter=2000, seed=20)),
], ids=["ladder-65", "ladder-129"])
def test_mesh_monotonicity_refinement(levels, opts):
    F = builtin("double_well", w=1.0, n=1, m=1)
    values, est = dacorogna_refine(F, 0.0, (2,), levels=levels, opts=opts)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-10


def test_refinement_rejects_non_dyadic_levels(monkeypatch):
    import mixvar.envelope as envelope

    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran before the levels were checked")

    monkeypatch.setattr(envelope, "dacorogna_min", no_descent)
    F = builtin("double_well", w=1.0, n=1, m=1)
    with pytest.raises(ValueError, match="dyadic"):
        dacorogna_refine(F, 0.0, (2,), levels=(17, 33, 66), opts=FAST)
    with pytest.raises(ValueError, match="dyadic"):
        tabulate_envelope(F, (2,), [(-1.0, 1.0, 3)], FAST, levels=(17, 40))
    with pytest.raises(ValueError, match="integers"):
        dacorogna_refine(F, 0.0, (2,), levels=(9.5, 18), opts=FAST)


def test_translation_covariance():
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=65, multistart=6, maxiter=800, seed=5)
    # where the estimator is exact (zero start wins) covariance holds to tol
    X0 = np.array([[0.9]])
    V = np.array([[0.6]])
    a = dacorogna_min(shifted(F, X0), V, (2,), opts)
    b = dacorogna_min(F, X0 + V, (2,), opts)
    assert abs(a.value - b.value) <= 2 * opts.tol
    # inside the well the two descents differ at ulp level and land in nearby
    # local minima; covariance holds at the estimator-slack scale
    X0 = np.array([[0.3]])
    V = np.array([[0.1]])
    a = dacorogna_min(shifted(F, X0), V, (2,), opts)
    b = dacorogna_min(F, X0 + V, (2,), opts)
    assert abs(a.value - b.value) <= 1e-2 * (1 + abs(b.value))


def test_envelope_idempotence_probe_convex():
    # converged table (convex case is exact); the interpolated envelope must
    # itself pass the pointwise quasiconvexity test at interior nodes
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 9)], FAST)
    G = table.as_integrand(fallback=F)
    for idx in (3, 4, 5):
        V = table.node_point((idx,))
        verdict = is_aqc_at(G, V, (2,), EnvelopeOptions(resolution=17, multistart=4, tol=1e-6, maxiter=300, seed=6))
        assert verdict.value >= verdict.reference - 3 * 1e-6


def test_envelope_idempotence_probe_double_well():
    # table convergence sets the certification scale: at desk resolution the
    # bottom values carry ~1e-3 optimizer slack, so the probe runs at that tol
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=65, multistart=8, maxiter=1200, seed=7)
    table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 21)], opts)
    G = table.as_integrand(fallback=F)
    slack = 5e-3
    for idx in (5, 10, 15):
        V = table.node_point((idx,))
        verdict = is_aqc_at(G, V, (2,), EnvelopeOptions(resolution=33, multistart=6, tol=slack, maxiter=600, seed=8))
        assert verdict.value >= verdict.reference - 3 * slack


def test_qft_roundtrip(tmp_path):
    F = builtin("double_well", w=1.0, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 7)], FAST, meta={"config_hash": "xyz"})
    path = tmp_path / "t.qft"
    table.save(path)
    loaded = EnvelopeTable.load(path)
    assert np.array_equal(loaded.values, table.values)
    assert loaded.a == (2,)
    assert loaded.meta["config_hash"] == "xyz"
    assert loaded.lattice == table.lattice


def test_qft_byte_determinism(tmp_path):
    F = builtin("double_well", w=1.0, n=1, m=1)
    paths = []
    for run in range(2):
        table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 5)], FAST)
        p = tmp_path / f"t{run}.qft"
        table.save(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def fails_at_zero(F, exc):
    """F whose batched evaluations (descents, not F(V) references) raise exc at the node V = 0.

    The stencils have zero mean, so each row of a batch W (K, *interior, n, m)
    keeps its node's V as its mean over the interior nodes, up to rounding.
    It has no certificate, so every node descends.
    """
    def ev(W):
        if W.ndim > 2:
            means = W.reshape(len(W), -1, F.n, F.m).mean(axis=1)
            if np.any(np.all(np.abs(means) < 1e-9, axis=(1, 2))):
                raise exc
        return F.eval(W)

    return replace(F, eval=ev, hull_exact=None)


def test_tabulate_propagates_programming_errors():
    # a ValueError is a bug, not a numerical failure: it must not become a
    # masked node; point evaluations (the exact F(V) references) still work,
    # so only the descents of the lattice node V = 0 hit the fault
    G = fails_at_zero(builtin("double_well", w=1.0, n=1, m=1), ValueError("integrand bug"))
    with pytest.raises(ValueError, match="integrand bug"):
        tabulate_envelope(G, (2,), [(-2.0, 2.0, 5)], FAST)


def test_tabulate_failure_mask():
    # an integrand whose gradient explodes still yields a table with fallbacks
    F = builtin("pnorm", p=2, n=1, m=1)
    table = tabulate_envelope(F, (2,), [(-1.0, 1.0, 3)], FAST)
    assert table.failures.shape == (3,)
    assert not table.failures.any()


def record_chunks(monkeypatch):
    """Node counts of every batched chunk that tabulation runs."""
    import mixvar.envelope as envelope

    sizes = []
    run = envelope._min_nodes

    def counted(F, Vs, *args):
        sizes.append(len(Vs))
        return run(F, Vs, *args)

    monkeypatch.setattr(envelope, "_min_nodes", counted)
    return sizes


def test_tabulate_masks_only_the_node_whose_descent_fails(monkeypatch):
    # a numerical failure inside one node's descent breaks its whole chunk;
    # the chunk runs again node by node and only that node is masked.  The
    # exact F(V) references are point evaluations and still work, so only
    # the descents of the lattice node V = 0 hit the fault
    F = WELL
    lattice = [(-2.0, 2.0, 5)]
    clean = tabulate_envelope(F, (2,), lattice, FAST)
    sizes = record_chunks(monkeypatch)
    table = tabulate_envelope(fails_at_zero(F, RuntimeError("integrand overflow")), (2,), lattice,
                              FAST)
    assert sizes == [5, 1, 1, 1, 1, 1]
    assert table.failures.tolist() == [False, False, True, False, False]
    assert table.values[2] == F(np.zeros((1, 1)))
    keep = ~table.failures
    assert np.array_equal(table.values[keep], clean.values[keep])


# a screening budget below maxiter: every chunk runs a polishing batch too
@pytest.mark.parametrize("a, F, lattice, opts, screen, levels", [
    ((2,), WELL, [(-2.0, 2.0, 5)],
     EnvelopeOptions(resolution=33, multistart=4, maxiter=300, seed=3), 40, None),
    ((1, 2), WELL_2D, [(-0.5, 0.5, 2), (-1.5, 1.5, 2)],
     EnvelopeOptions(resolution=33, multistart=3, maxiter=120, seed=11), 30, (9, 17, 33)),
    ((2,), WELL, CUT_LATTICE, CUT_OPTS, 40, None),
], ids=["1d", "2d-ladder", "1d-cut"])
def test_table_bytes_do_not_depend_on_the_chunking(tmp_path, monkeypatch, a, F, lattice, opts,
                                                   screen, levels):
    import mixvar.envelope as envelope

    monkeypatch.setattr(_descent, "_SCREEN_MAXITER", screen)
    sizes = record_chunks(monkeypatch)
    tabulate_envelope(F, a, lattice, opts, levels=levels).save(tmp_path / "chunked.qft")
    assert max(sizes) > 1
    sizes.clear()
    monkeypatch.setattr(envelope, "_CHUNK_CELLS", 1)  # every node its own chunk
    tabulate_envelope(F, a, lattice, opts, levels=levels).save(tmp_path / "nodes.qft")
    assert max(sizes) == 1
    assert (tmp_path / "chunked.qft").read_bytes() == (tmp_path / "nodes.qft").read_bytes()


def test_a_programming_error_in_a_chunk_reaches_the_caller(monkeypatch):
    # every node its own chunk; only a RuntimeError is masked, so the
    # TypeError of the node V = 0 ends the tabulation
    monkeypatch.setattr(envelope, "_CHUNK_CELLS", 1)
    G = fails_at_zero(builtin("double_well", w=1.0, n=1, m=1), TypeError("integrand bug"))
    with pytest.raises(TypeError, match="integrand bug"):
        tabulate_envelope(G, (2,), [(-1.0, 3.0, 5)], FAST)


def test_chunks_are_balanced_runs_covering_every_node_once():
    # the 33-node level of a 3x3 lattice: 9 nodes of 5 rows x 899 free values,
    # ceil(45 * 899 / _CHUNK_CELLS) = 2 runs, the longer one first
    assert -(-45 * 899 // envelope._CHUNK_CELLS) == 2
    assert [len(c) for c in envelope._runs(list(range(9)), 2)] == [5, 4]
    assert envelope._runs([], 0) == []
    rng = np.random.default_rng(0)
    for _ in range(200):
        nodes = sorted(rng.choice(60, size=rng.integers(1, 40), replace=False).tolist())
        count = int(rng.integers(1, len(nodes) + 1))
        runs = envelope._runs(nodes, count)
        assert sum(runs, []) == nodes and len(runs) == count
        lengths = [len(run) for run in runs]
        assert max(lengths) - min(lengths) <= 1 and lengths == sorted(lengths, reverse=True)


def test_one_node_estimate_equals_the_node_inside_a_chunk(monkeypatch):
    import mixvar.envelope as envelope

    batches = []
    run = _descent.run_lbfgs_batch

    def counted(energy, X0, *args, **kwargs):
        batches.append(len(X0))
        return run(energy, X0, *args, **kwargs)

    monkeypatch.setattr(_descent, "run_lbfgs_batch", counted)
    F = builtin("double_well", w=1.0, n=1, m=1)
    monkeypatch.setattr(_descent, "_SCREEN_MAXITER", 40)
    opts = EnvelopeOptions(resolution=33, multistart=5, maxiter=300, seed=0)
    Vs = np.array([0.9, 0.0, -0.4]).reshape(3, 1, 1)
    seeds = [5, 6, 7]
    grid = opts.grid(envelope.SmoothnessVector((2,)))
    chunk = envelope._min_nodes(F, Vs, envelope._references(F, Vs), grid, opts, seeds, [None] * 3)
    assert batches[0] == 12 and len(batches) == 2  # one screening, one polishing batch
    assert any(est.best_start != "zero-exact" for est in chunk)
    for V, seed, est in zip(Vs, seeds, chunk):
        alone = dacorogna_min(F, V, (2,), replace(opts, seed=seed))
        assert alone.value == est.value
        assert alone.best_start == est.best_start
        assert repr(alone.per_start) == repr(est.per_start)  # a nan cut value is not == itself


def test_a_polished_start_reports_its_screening_and_polishing_iterations(monkeypatch):
    batches = []
    run = _descent.run_lbfgs_batch

    def recorded(energy, X0, labels, **kwargs):
        batches.append(run(energy, X0, labels, **kwargs))
        return batches[-1]

    monkeypatch.setattr(_descent, "run_lbfgs_batch", recorded)
    F = builtin("double_well", w=1.0, n=1, m=1)
    monkeypatch.setattr(_descent, "_SCREEN_MAXITER", 40)
    opts = EnvelopeOptions(resolution=33, multistart=5, maxiter=300, seed=0)
    est = dacorogna_min(F, np.array([[0.3]]), (2,), opts)
    screen, polish = batches
    iterations = {label: its for label, _, its, *_ in est.per_start}
    assert polish
    for res in polish:
        screened = next(r for r in screen if r.start_label == res.start_label)
        assert screened.iterations == 40
        assert iterations[res.start_label] == 40 + res.iterations


def test_a_retired_start_ends_at_the_cut_and_is_never_polished(monkeypatch):
    batches = []
    run = _descent.run_lbfgs_batch

    def recorded(energy, X0, labels, **kwargs):
        batches.append((energy, list(labels), run(energy, X0, labels, **kwargs)))
        return batches[-1][2]

    monkeypatch.setattr(_descent, "run_lbfgs_batch", recorded)
    monkeypatch.setattr(_descent, "_SCREEN_MAXITER", 40)
    F = WELL
    Vs = np.linspace(*CUT_LATTICE[0]).reshape(-1, 1, 1)
    grid = CUT_OPTS.grid(envelope.SmoothnessVector((2,)))
    seeds = [3, 4, 5, 6, 7]
    ests = envelope._min_nodes(F, Vs, envelope._references(F, Vs), grid, CUT_OPTS, seeds,
                               [None] * len(Vs))
    (_, labels, screen), (polish, _, _) = batches
    owner = np.repeat(np.arange(len(Vs)), CUT_OPTS.multistart - 1)  # phi = 0 has no row
    retired = {k for k, res in enumerate(screen) if res.retired}
    polished = set(polish.ids.tolist())  # the X0 rows of the polishing batch
    assert retired and polished and not retired & polished
    round = _descent._SCREEN_CUT_ROUND
    for k in retired:
        res = screen[k]
        assert res.nfev == round and res.value == res.cut_value
        assert not res.converged and not res.budget_exhausted
        kept = [j for j in np.flatnonzero(owner == owner[k])
                if screen[j].nfev > round and j not in retired]
        # _SCREEN_KEEP starts of its node beat it at the cut, one of its own family too
        assert sum(screen[j].cut_value <= res.cut_value for j in kept) >= envelope._SCREEN_KEEP
        family = envelope._family(labels[k])
        assert any(envelope._family(labels[j]) == family and screen[j].cut_value <= res.cut_value
                   for j in kept)
    for node, est in enumerate(ests):
        records = {label: rest for label, *rest in est.per_start}
        for k in np.flatnonzero(owner == node):
            _, iterations, cut_value, was_retired = records[labels[k]]
            assert was_retired == screen[k].retired
            assert np.array_equal(cut_value, screen[k].cut_value * (1.0 / grid.n_interior),
                                  equal_nan=True)
            if was_retired:
                assert iterations == screen[k].iterations and labels[k] != est.best_start
    # each node cuts its own rows only: alone, it retires the same starts
    for V, seed, est in zip(Vs, seeds, ests):
        alone = dacorogna_min(F, V, (2,), replace(CUT_OPTS, seed=seed))
        assert repr(alone.per_start) == repr(est.per_start)


def test_a_node_with_at_most_keep_starts_screening_is_never_cut(monkeypatch):
    # 9 starts a node: phi = 0 is one of them and has no row, so 8 still
    # screen at the cut, and the cut leaves them as one that keeps 100 would
    F = builtin("double_well", w=1.0, n=1, m=1)
    monkeypatch.setattr(_descent, "_SCREEN_MAXITER", 40)
    opts = replace(CUT_OPTS, multistart=9)
    runs = []
    for keep in (envelope._SCREEN_KEEP, 100):
        monkeypatch.setattr(envelope, "_SCREEN_KEEP", keep)
        Vs = np.array([0.9, 0.0, -0.4]).reshape(3, 1, 1)
        ests = envelope._min_nodes(F, Vs, envelope._references(F, Vs),
                                   opts.grid(envelope.SmoothnessVector((2,))), opts, [5, 6, 7],
                                   [None] * 3)
        for est in ests:
            assert not any(retired for *_, retired in est.per_start)
            assert sum(np.isfinite(cut_value) for *_, cut_value, _ in est.per_start) == 8
        runs.append(repr([(est.value, est.best_start, est.per_start) for est in ests]))
    assert runs[0] == runs[1]


def test_a_tabulation_without_a_polishing_budget_never_builds_the_metric(monkeypatch):
    built = []
    metric = _descent.SobolevEnergy

    def recorded(energy):
        built.append(energy)
        return metric(energy)

    monkeypatch.setattr(_descent, "SobolevEnergy", recorded)
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=33, multistart=4, maxiter=200, seed=3)
    assert _descent._SCREEN_MAXITER == 200
    tabulate_envelope(F, (2,), [(-1.0, 1.0, 3)], opts)
    assert built == []
    tabulate_envelope(F, (2,), [(-1.0, 1.0, 3)], replace(opts, maxiter=201))
    assert built


def random_table(D, seed):
    """A table on a random lattice of R^D (D = n * m) with random node values."""
    n, m = {1: (1, 1), 2: (1, 2), 4: (2, 2)}[D]
    rng = np.random.default_rng(seed)
    lattice = tuple((-1.0 - rng.random(), 0.5 + rng.random(), int(rng.integers(2, 6)))
                    for _ in range(D))
    values = rng.normal(size=[c for _, _, c in lattice]) * 5.0
    return EnvelopeTable((2,), n, m, 2.0, lattice, values, None), rng


def hull_points(table, rng, k):
    lows = np.array([lo for lo, _, _ in table.lattice])
    highs = np.array([hi for _, hi, _ in table.lattice])
    return lows + (highs - lows) * rng.random((k, len(lows)))


@pytest.mark.parametrize("D", [1, 2, 4])
def test_interpolant_matches_scipy_inside_the_hull(D):
    from scipy.interpolate import RegularGridInterpolator

    table, rng = random_table(D, D)
    ref = RegularGridInterpolator(table.points, table.values, method="linear", bounds_error=True)
    X = hull_points(table, rng, 500)
    # points of the upper hull faces are inside
    for d in range(D):
        face = hull_points(table, rng, 20)
        face[:, d] = table.lattice[d][1]
        X = np.concatenate([X, face])
    G = table.as_integrand()
    got = G(X.reshape(-1, table.n, table.m))
    assert np.allclose(got, ref(X), rtol=1e-13, atol=1e-13 * np.abs(table.values).max())
    assert all(envelope_interpolate(table, x) == v for x, v in zip(X, got))
    # exact at nodes, those on the upper hull faces included
    counts = table.values.shape
    nodes = [rng.integers(0, c, 40) for c in counts]
    nodes = [np.concatenate([i, [c - 1, 0]]) for i, c in zip(nodes, counts)]
    V = np.stack([table.points[d][i] for d, i in enumerate(nodes)], axis=1)
    assert np.array_equal(G(V.reshape(-1, table.n, table.m)), table.values[tuple(nodes)])


@pytest.mark.parametrize("D", [1, 2, 4])
def test_interpolant_gradient_matches_central_differences(D):
    table, rng = random_table(D, 10 + D)
    G = table.as_integrand()
    X = hull_points(table, rng, 200)
    widths = np.array([(hi - lo) / (c - 1) for lo, hi, c in table.lattice])
    h = 1e-6
    for x in X:
        offset = (x - np.array([lo for lo, _, _ in table.lattice])) / widths
        if np.any(np.abs(offset - np.round(offset)) * widths < 10 * h):
            continue  # the gradient jumps across cell faces
        fd = [(G((x + h * e).reshape(table.n, table.m)) - G((x - h * e).reshape(table.n, table.m)))
              / (2 * h) for e in np.eye(D)]
        grad = G.gradient(x.reshape(table.n, table.m)).reshape(-1)
        assert np.allclose(grad, fd, rtol=1e-7, atol=1e-7)


def test_interpolant_gradient_is_one_sided_on_cell_faces():
    table = EnvelopeTable((2,), 1, 1, 2.0, ((-1.0, 1.0, 3),), np.array([1.0, 0.0, 4.0]), None)
    G = table.as_integrand()
    # the cell above on the interior face, the last cell on the upper hull face
    grads = G.gradient(np.array([-1.0, 0.0, 1.0]).reshape(3, 1, 1)).reshape(-1)
    assert grads.tolist() == [-1.0, 4.0, 4.0]


def test_interpolant_outside_the_hull():
    F = builtin("pnorm", p=2, n=1, m=2)
    table = EnvelopeTable((1, 2), 1, 2, 2.0, ((-1.0, 1.0, 3), (0.0, 2.0, 5)),
                          np.arange(15.0).reshape(3, 5), None)
    V = np.array([[[0.5, 1.0]], [[1.5, 1.0]], [[0.0, -0.1]]])
    barrier = table.as_integrand()(V)
    assert np.isfinite(barrier[0]) and np.all(barrier[1:] == np.inf)
    G = table.as_integrand(fallback=F)
    assert G(V)[0] == barrier[0]
    assert np.array_equal(G(V)[1:], F(V[1:]))
    grads = G.gradient(V)
    assert np.array_equal(grads[1:], F.gradient(V[1:]))
    assert np.array_equal(grads[0], table.as_integrand().gradient(V[:1])[0])
    with pytest.raises(ValueError, match="hull"):
        envelope_interpolate(table, np.array([1.5, 1.0]))


def test_a_count_of_one_is_a_single_point():
    table = EnvelopeTable((1, 2), 1, 2, 2.0, ((0.5, 0.5, 1), (0.0, 2.0, 3)),
                          np.array([[1.0, 3.0, 7.0]]), None)
    assert envelope_interpolate(table, np.array([0.5, 1.5])) == 5.0
    with pytest.raises(ValueError, match="hull"):
        envelope_interpolate(table, np.array([0.6, 1.5]))
    # off a flat hull the integrand is the fallback or +inf: it has no gradient
    for fallback in (None, builtin("pnorm", p=2, n=1, m=2)):
        with pytest.raises(ValueError, match=r"flat along lattice coordinate\(s\) \[0\]"):
            table.as_integrand(fallback=fallback)


@pytest.mark.parametrize("n, m, lattice", [
    (1, 1, ((2.0, 4.0, 3),)),                    # no standard-normal draw lands here
    (1, 2, ((2.0, 4.0, 5), (-4.0, -3.0, 2))),
    (1, 1, ((1000.0, 1000.001, 11),)),           # cells narrower than the default step
    (1, 2, ((-3.0, 3.0, 33),) * 2),              # many cells and faces
    (2, 2, ((-3.0, 3.0, 9), (-1.0, 2.0, 9), (0.0, 1.0, 5), (-2.0, 2.0, 9))),
])
def test_table_integrands_register_on_any_hull(n, m, lattice):
    rng = np.random.default_rng(len(lattice))
    values = rng.normal(size=[c for _, _, c in lattice]) * 5.0
    table = EnvelopeTable((2,), n, m, 2.0, lattice, values, None)
    for fallback in (None, builtin("pnorm", p=2, n=n, m=m)):
        G = table.as_integrand(fallback=fallback)
        assert grad_check(G) <= 1e-6
        # the check's points lie inside cells, a quarter cell or more from their faces
        V, h = G.check_points(np.random.default_rng(0))
        x = V.reshape(-1)
        for (lo, hi, c), xd in zip(lattice, x):
            t = (xd - lo) / ((hi - lo) / (c - 1))
            assert 0.25 <= t - np.floor(t) <= 0.75
            assert h <= (hi - lo) / (c - 1) / 8


def test_registration_still_catches_a_wrong_table_gradient(monkeypatch):
    table = EnvelopeTable((2,), 1, 2, 2.0, ((2.0, 4.0, 5), (-1.0, 1.0, 3)),
                          np.arange(15.0).reshape(5, 3), None)
    exact = envelope._Multilinear.gradient
    monkeypatch.setattr(envelope._Multilinear, "gradient",
                        lambda self, X: exact(self, X) * 1.001)
    with pytest.raises(ValueError, match="disagrees with finite differences"):
        table.as_integrand()


@pytest.mark.parametrize("lattice, match", [
    ([(-1.0, 1.0, 3)] * 2, "needs 1 coordinate ranges, got 2"),
    ([(-1.0, 1.0)], "entry 0 must be"),
    ([[-1.0, 1.0, 3, 4]], "entry 0 must be"),
    ([(-1.0, "1", 3)], "must be numbers"),
    ([(-1.0, 1.0, 0)], "count must be an integer >= 1"),
    ([(-1.0, 1.0, 2.5)], "count must be an integer >= 1"),
    ([(-1.0, 1.0, 1)], "single point lo == hi"),
    ([(1.0, -1.0, 3)], "need lo < hi"),
    ([(-np.inf, 1.0, 3)], "numbers and finite"),
    ([(-1e308, 1e308, 3)], "hi - lo overflows"),
])
def test_malformed_lattices_are_rejected(lattice, match):
    with pytest.raises(ValueError, match=match):
        _check_lattice(lattice, 1, 1)
    F = builtin("double_well", w=1.0, n=1, m=1)
    with pytest.raises(ValueError, match=match):
        tabulate_envelope(F, (2,), lattice, FAST)


def test_certified_nodes_take_f_of_v_without_a_descent(monkeypatch):
    # the double well is certified where |v| >= 1: those nodes take F(V) bit
    # for bit at every level, with no starts and no witness, and only the
    # other nodes reach _min_nodes
    F = builtin("double_well", w=1.0, n=1, m=1)
    descended = []
    run = envelope._min_nodes

    def recorded(F, Vs, *args):
        descended.extend(Vs.reshape(-1).tolist())
        return run(F, Vs, *args)

    monkeypatch.setattr(envelope, "_min_nodes", recorded)
    Vs = np.linspace(-1.5, 1.5, 7).reshape(-1, 1, 1)
    values, ests, _ = envelope._ladder(F, Vs, envelope.SmoothnessVector((2,)), [17, 33], FAST,
                                       list(range(7)))
    assert descended == [-0.5, 0.0, 0.5] * 2
    for V, vals, est in zip(Vs, values, ests):
        if abs(V[0, 0]) >= 1.0:
            assert vals == [float(F(V))] * 2
            assert (est.value, est.reference, est.witness, est.best_start, est.budget_exhausted,
                    est.per_start) == (float(F(V)), float(F(V)), None, "zero-exact", False, [])
    descended.clear()
    est = dacorogna_min(F, 1.5, (2,), FAST)
    assert est.value == float(F(np.array([[1.5]]))) and est.per_start == []
    assert is_aqc_at(builtin("pnorm", p=2, n=1, m=2), [[0.5, -0.5]], (1, 2), FAST).holds
    assert descended == []
    # a table integrand has no certificate
    table = tabulate_envelope(F, (2,), [(-2.0, 2.0, 3)], FAST)
    assert table.as_integrand(fallback=F).hull_exact is None


def test_a_multistart_one_node_is_f_of_v_exactly():
    # one start is phi = 0 alone, whose energy is the exact reference: no
    # start descends, so no zero field can win by ulps with itself as witness
    F = builtin("double_well", w=1.0, n=1, m=1)
    V = np.array([[-0.6]])
    values, est = dacorogna_refine(F, V, (2,), levels=(17, 33),
                                   opts=EnvelopeOptions(multistart=1, seed=5))
    assert values == [float(F(V))] * 2 == [0.4096] * 2
    assert (est.value, est.best_start, est.witness, est.per_start) == (0.4096, "zero-exact", None,
                                                                       [])


def test_a_ladder_evaluates_each_node_reference_once():
    # the references are point evaluations F(V) of shape (n, m); descents
    # evaluate batches.  Two nodes are certified, two descend at 9, 17 and 33
    F = builtin("double_well", w=1.0, n=1, m=1)
    points = None  # registration's own point checks are not counted

    def ev(W):
        if points is not None and W.ndim == 2:
            points.append(float(W[0, 0]))
        return F.eval(W)

    G = replace(F, eval=ev)
    points = []
    table = tabulate_envelope(G, (2,), [(-1.5, 1.5, 4)], FAST, levels=(9, 17, 33))
    assert points == [-1.5, -0.5, 0.5, 1.5]
    assert table.values[1] < 0.5625 == float(F(np.array([[-0.5]])))  # node -0.5 descended


def test_a_node_where_f_is_not_finite_is_rejected_before_any_descent(monkeypatch):
    # the double well overflows to nan at V = 1e308, where it is certified
    monkeypatch.setattr(envelope, "_min_nodes", lambda *args: pytest.fail("a node descended"))
    F = builtin("double_well", w=1.0, n=1, m=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite at 1 node"):
            dacorogna_min(F, [[1e308]], (2,), FAST)
        with pytest.raises(ValueError, match="not finite"):
            tabulate_envelope(F, (2,), [(-1.0, 1e308, 3)], FAST)


def test_uncertified_nodes_equal_the_run_without_a_certificate():
    # a mixed 2-D ladder: the nodes inside the well descend as they do when
    # no node is certified, per level and per start
    F = builtin("double_well", w=1.0, n=1, m=2, col=1)
    Vs = np.array([[[u, v]] for u in (-0.5, 0.5) for v in (-1.5, -0.4, 0.0, 1.0)])
    opts = EnvelopeOptions(multistart=3, maxiter=120, seed=11)
    args = (Vs, envelope.SmoothnessVector((1, 2)), [9, 17], opts, list(range(len(Vs))))
    values, ests, _ = envelope._ladder(F, *args)
    plain_values, plain, _ = envelope._ladder(WELL_2D, *args)
    certified = np.abs(Vs[:, 0, 1]) >= 1.0
    assert certified.tolist() == [True, False, False, True] * 2
    for exact, vals, est, plain_vals, alone in zip(certified, values, ests, plain_values, plain):
        if exact:
            assert est.value == est.reference and est.value >= alone.value
        else:
            assert vals == plain_vals
            assert repr((est.value, est.best_start, est.per_start)) == repr(
                (alone.value, alone.best_start, alone.per_start))
            assert np.array_equal(est.witness.values, alone.witness.values)


def test_a_table_of_many_chunks_forks_no_child(monkeypatch):
    # five in-well nodes, none certified, each its own chunk, on a host of
    # 4 usable CPUs: every chunk runs in this process, one after another
    def no_fork():
        raise AssertionError("tabulation forked")

    F = builtin("double_well", w=1.0, n=1, m=1)
    lattice = [(-0.9, 0.9, 5)]
    whole = tabulate_envelope(F, (2,), lattice, FAST)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(envelope, "_CHUNK_CELLS", 1)
    sizes = record_chunks(monkeypatch)
    chunked = tabulate_envelope(F, (2,), lattice, FAST)
    assert sizes == [1] * 5
    assert not chunked.failures.any()
    assert np.array_equal(chunked.values, whole.values)

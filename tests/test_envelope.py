import os
import threading
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
from mixvar import envelope
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


def test_tabulate_propagates_programming_errors():
    # a ValueError is a bug, not a numerical failure: it must not become a
    # masked node; point evaluations (the exact F(V) reference) still work,
    # so only the descent at the lattice node V = 0 hits the fault
    F = builtin("double_well", w=1.0, n=1, m=1)

    def ev(V):
        if V.ndim > 2 and np.any(V == 0.0):
            raise ValueError("integrand bug")
        return F.eval(V)

    with pytest.raises(ValueError, match="integrand bug"):
        tabulate_envelope(replace(F, eval=ev), (2,), [(-2.0, 2.0, 5)], FAST)


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
    # the descents at the lattice node V = 0 hit the fault
    F = builtin("double_well", w=1.0, n=1, m=1)

    def ev(V):
        if V.ndim > 2 and np.any(V == 0.0):
            raise RuntimeError("integrand overflow")
        return F.eval(V)

    lattice = [(-2.0, 2.0, 5)]
    clean = tabulate_envelope(F, (2,), lattice, FAST)
    sizes = record_chunks(monkeypatch)
    table = tabulate_envelope(replace(F, eval=ev), (2,), lattice, FAST)
    assert sizes == [5, 1, 1, 1, 1, 1]
    assert table.failures.tolist() == [False, False, True, False, False]
    assert table.values[2] == F(np.zeros((1, 1)))
    keep = ~table.failures
    assert np.array_equal(table.values[keep], clean.values[keep])


# screen_maxiter < maxiter: every chunk runs a polishing batch too
@pytest.mark.parametrize("a, F, lattice, opts, levels", [
    ((2,), builtin("double_well", w=1.0, n=1, m=1), [(-2.0, 2.0, 5)],
     EnvelopeOptions(resolution=33, multistart=4, maxiter=300, screen_maxiter=40, seed=3), None),
    ((1, 2), builtin("double_well", w=1.0, n=1, m=2, col=1), [(-0.5, 0.5, 2), (-1.5, 1.5, 2)],
     EnvelopeOptions(resolution=33, multistart=3, maxiter=120, screen_maxiter=30, seed=11),
     (9, 17, 33)),
], ids=["1d", "2d-ladder"])
def test_table_bytes_do_not_depend_on_the_chunking(tmp_path, monkeypatch, a, F, lattice, opts,
                                                   levels):
    import mixvar.envelope as envelope

    sizes = record_chunks(monkeypatch)
    tabulate_envelope(F, a, lattice, opts, levels=levels).save(tmp_path / "chunked.qft")
    assert max(sizes) > 1
    sizes.clear()
    monkeypatch.setattr(envelope, "_CHUNK_CELLS", 1)  # every node its own chunk
    tabulate_envelope(F, a, lattice, opts, levels=levels).save(tmp_path / "nodes.qft")
    assert max(sizes) == 1
    assert (tmp_path / "chunked.qft").read_bytes() == (tmp_path / "nodes.qft").read_bytes()


@pytest.mark.parametrize("a, F, lattice, opts, levels", [
    ((2,), builtin("double_well", w=1.0, n=1, m=1), [(-2.0, 2.0, 5)],
     EnvelopeOptions(resolution=33, multistart=4, maxiter=300, screen_maxiter=40, seed=3), None),
    ((1, 2), builtin("double_well", w=1.0, n=1, m=2, col=1), [(-0.5, 0.5, 2), (-1.5, 1.5, 2)],
     EnvelopeOptions(resolution=33, multistart=3, maxiter=120, screen_maxiter=30, seed=11),
     (9, 17, 33)),
], ids=["1d", "2d-ladder"])
def test_table_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, cpus, forks, a, F,
                                                       lattice, opts, levels):
    monkeypatch.setattr(envelope, "_CHUNK_CELLS", 1)  # every node its own chunk
    for workers in (1, 2, 3):
        cpus(workers)
        tabulate_envelope(F, a, lattice, opts, levels=levels).save(tmp_path / f"{workers}.qft")
        if workers == 1:
            assert forks == []
    assert len(forks) == (1 + 2) * len(levels or [None])  # a child per extra worker and level
    serial = (tmp_path / "1.qft").read_bytes()
    assert (tmp_path / "2.qft").read_bytes() == serial
    assert (tmp_path / "3.qft").read_bytes() == serial


def fails_at_zero(F, exc):
    """F whose batched evaluations (descents, not F(V) references) raise exc where V = 0."""
    def ev(V):
        if V.ndim > 2 and np.any(V == 0.0):
            raise exc
        return F.eval(V)

    return replace(F, eval=ev)


def test_a_failure_in_a_child_is_masked_as_in_process(monkeypatch, cpus, forks):
    # nodes -3 -2 -1 | 0 1: two chunks, and the failing node V = 0 breaks the
    # child's whole chunk, which runs again node by node inside the child
    F = builtin("double_well", w=1.0, n=1, m=1)
    G = fails_at_zero(F, RuntimeError("integrand overflow"))
    n_free = int(np.count_nonzero(~FAST.grid(envelope.SmoothnessVector((2,))).collar_mask()))
    monkeypatch.setattr(envelope, "_CHUNK_CELLS", 3 * FAST.multistart * n_free)
    lattice = [(-3.0, 1.0, 5)]
    cpus(1)
    serial = tabulate_envelope(G, (2,), lattice, FAST)
    cpus(2)
    forked = tabulate_envelope(G, (2,), lattice, FAST)
    assert len(forks) == 1
    assert forked.failures.tolist() == serial.failures.tolist() == [False] * 3 + [True, False]
    assert np.array_equal(forked.values, serial.values)
    assert forked.values[3] == F(np.zeros((1, 1)))


@pytest.mark.parametrize("lattice, where", [([(-3.0, 1.0, 5)], "child"),
                                            ([(-1.0, 3.0, 5)], "parent")])
def test_a_programming_error_in_any_worker_reaches_the_caller(monkeypatch, cpus, forks, lattice,
                                                              where):
    # every node its own chunk: nodes 0-1 run in this process, 2-4 in a child
    monkeypatch.setattr(envelope, "_CHUNK_CELLS", 1)
    cpus(2)
    G = fails_at_zero(builtin("double_well", w=1.0, n=1, m=1), TypeError("integrand bug"))
    with pytest.raises(TypeError, match="integrand bug") as info:
        tabulate_envelope(G, (2,), lattice, FAST)
    assert len(forks) == 1
    # a child's exception carries the child's traceback as its cause
    assert ("in ev" in str(info.value.__cause__)) == (where == "child")


def test_what_a_child_cannot_send_back_is_a_child_process_error(forks):
    class Local(Exception):  # a class defined in a function does not pickle
        pass

    def fn(task):
        if task == "raise":
            raise Local("lost")
        if task == "exit":
            os._exit(0)
        return task

    assert envelope._map_forked(fn, ["a", "b", "c"], 3) == ["a", "b", "c"]
    with pytest.raises(ChildProcessError, match="Local: lost"):
        envelope._map_forked(fn, ["a", "raise"], 2)
    with pytest.raises(ChildProcessError, match="without a reply"):
        envelope._map_forked(fn, ["a", "exit"], 2)
    assert len(forks) == 4


def test_workers_are_the_usable_cpus_and_one_without_fork(monkeypatch, cpus):
    cpus(3)
    assert envelope._usable_workers() == 3
    monkeypatch.delattr(os, "fork")
    assert envelope._usable_workers() == 1


def test_a_process_with_another_thread_tabulates_without_forking(monkeypatch, forks):
    # a child forked while another thread holds a lock could wait on it for ever
    monkeypatch.setattr(envelope, "_CHUNK_CELLS", 1)  # five chunks on 4 usable CPUs
    F = builtin("double_well", w=1.0, n=1, m=1)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        threaded = tabulate_envelope(F, (2,), [(-2.0, 2.0, 5)], FAST)
    finally:
        done.set()
        thread.join()
    assert forks == []
    forked = tabulate_envelope(F, (2,), [(-2.0, 2.0, 5)], FAST)
    assert len(forks) == 3
    assert np.array_equal(threaded.values, forked.values)


def test_chunks_are_balanced_runs_covering_every_node_once(monkeypatch):
    # the 33-node level of a 3x3 lattice: 9 nodes of 5 rows x 899 free values
    assert [len(c) for c in envelope._chunks([(i, 5) for i in range(9)], 899)] == [5, 4]
    assert envelope._chunks([], 899) == []
    rng = np.random.default_rng(0)
    monkeypatch.setattr(envelope, "_CHUNK_CELLS", 100)
    for _ in range(200):
        nodes = sorted(rng.choice(60, size=rng.integers(1, 40), replace=False).tolist())
        rows = dict(zip(nodes, rng.integers(4, 6, size=len(nodes)).tolist()))
        n_free = int(rng.integers(1, 60))
        chunks = envelope._chunks(list(rows.items()), n_free)
        assert sum(chunks, []) == nodes
        cells = [sum(rows[i] for i in c) * n_free for c in chunks]
        assert len(chunks) == min(len(nodes), -(-sum(cells) // 100))
        assert max(cells) - min(cells) <= 2 * 5 * n_free


def test_one_node_estimate_equals_the_node_inside_a_chunk(monkeypatch):
    import mixvar.envelope as envelope

    batches = []
    run = envelope.run_lbfgs_batch

    def counted(energy, X0, *args, **kwargs):
        batches.append(len(X0))
        return run(energy, X0, *args, **kwargs)

    monkeypatch.setattr(envelope, "run_lbfgs_batch", counted)
    F = builtin("double_well", w=1.0, n=1, m=1)
    opts = EnvelopeOptions(resolution=33, multistart=5, maxiter=300, screen_maxiter=40, seed=0)
    Vs = np.array([0.9, 0.0, -0.4]).reshape(3, 1, 1)
    seeds = [5, 6, 7]
    chunk = envelope._min_nodes(F, Vs, opts.grid(envelope.SmoothnessVector((2,))), opts, seeds,
                                [None] * 3)
    assert batches[0] == 15 and len(batches) == 2  # one screening, one polishing batch
    assert any(est.best_start != "zero-exact" for est in chunk)
    for V, seed, est in zip(Vs, seeds, chunk):
        alone = dacorogna_min(F, V, (2,), replace(opts, seed=seed))
        assert alone.value == est.value
        assert alone.best_start == est.best_start
        assert alone.per_start == est.per_start


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
])
def test_malformed_lattices_are_rejected(lattice, match):
    with pytest.raises(ValueError, match=match):
        _check_lattice(lattice, 1, 1)
    F = builtin("double_well", w=1.0, n=1, m=1)
    with pytest.raises(ValueError, match=match):
        tabulate_envelope(F, (2,), lattice, FAST)

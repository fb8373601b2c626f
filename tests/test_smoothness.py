import numpy as np
import pytest
from fractions import Fraction

from mixvar import smoothness
from mixvar.smoothness import (
    AnisoBox,
    SmoothnessVector,
    box_cover,
    homogeneity_set,
    kernel_monomials,
    lower_set,
    pairing,
)


def test_homogeneity_set_examples():
    assert homogeneity_set((1, 2)) == [(1, 0), (0, 2)]
    assert homogeneity_set((2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert homogeneity_set((1, 1, 1)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_lower_set_examples():
    assert set(lower_set((1, 2))) == {(0, 0), (1, 0), (0, 1), (0, 2)}
    assert set(lower_set((1, 2), strict=True)) == {(0, 0), (0, 1)}
    assert len(lower_set((2, 2))) == 6


def test_lower_set_downward_closed():
    for a in [(1, 2), (2, 3), (1, 1, 3)]:
        ls = set(lower_set(a))
        for alpha in ls:
            for i in range(len(alpha)):
                if alpha[i] > 0:
                    beta = tuple(alpha[j] - (j == i) for j in range(len(alpha)))
                    assert beta in ls


def test_partition_of_lower_set():
    for a in [(1, 2), (2, 2), (2, 3), (1, 1, 3)]:
        hyper = set(homogeneity_set(a))
        strict = set(lower_set(a, strict=True))
        full = set(lower_set(a))
        assert hyper | strict == full
        assert not (hyper & strict)
        assert len(full) == len(hyper) + len(strict)


def test_pairing_is_exact_rational():
    assert pairing((1, 1), (2, 3)) == Fraction(5, 6)
    assert pairing((1, 1), (2, 3)) < 1
    assert pairing((2, 0), (2, 3)) == 1
    # never misclassified by float rounding: 1/3 + 2/3 == 1 exactly
    assert pairing((1, 2), (3, 3)) == 1


def test_kernel_monomials_examples():
    assert set(kernel_monomials((1, 2))) == {(0, 0), (0, 1)}
    assert set(kernel_monomials((2, 2))) == {(0, 0), (1, 0), (0, 1)}
    assert kernel_monomials((1,)) == [(0,)]


def test_kernel_monomials_killed_by_every_hyperplane_index():
    for a in [(1, 2), (2, 2), (2, 3), (1, 1, 3)]:
        hyper = homogeneity_set(a)
        kern = set(kernel_monomials(a))
        for gamma in kern:
            for alpha in hyper:
                # d^alpha x^gamma == 0 iff some axis differentiates past the degree
                assert any(g < al for g, al in zip(gamma, alpha))
        # downward closed
        for gamma in kern:
            for i in range(len(gamma)):
                if gamma[i] > 0:
                    beta = tuple(gamma[j] - (j == i) for j in range(len(gamma)))
                    assert beta in kern


def test_box_volume_vs_monte_carlo():
    rng = np.random.default_rng(12345)
    box = AnisoBox((0.2, -0.1), 0.5, SmoothnessVector((1, 2)))
    # sample uniformly from a bounding rectangle and count hits
    w = box.half_widths
    lo = np.array(box.center) - 1.5 * w
    hi = np.array(box.center) + 1.5 * w
    n = 10**5
    pts = rng.uniform(lo, hi, size=(n, 2))
    hits = box.contains(pts).mean()
    rect_vol = np.prod(hi - lo)
    est = hits * rect_vol
    p = box.volume / rect_vol
    sigma = np.sqrt(p * (1 - p) / n) * rect_vol
    assert abs(est - box.volume) <= 3 * sigma


def test_box_cover_single_box():
    cover = box_cover(((-1, 1), (-1, 1)), 1.0, (1, 2))
    assert len(cover.boxes) == 1
    assert cover.covered_fraction == pytest.approx(1.0)


def test_box_cover_dyadic_anisotropic():
    cover = box_cover(((-1, 1), (-1, 1)), 0.25, (1, 2), coverage_tol=0.05)
    # disjointness via total volume, coverage via the reported fraction
    total = sum(b.volume for b in cover.boxes)
    assert cover.covered_fraction >= 0.95
    assert total == pytest.approx(cover.covered_fraction * 4.0, rel=1e-9)
    for b in cover.boxes:
        assert b.radius <= 0.25 + 1e-15
        for (blo, bhi), (dlo, dhi) in zip(b.bounds(), ((-1, 1), (-1, 1))):
            assert blo >= dlo - 1e-12 and bhi <= dhi + 1e-12


def test_box_cover_boxes_disjoint_by_sampling():
    cover = box_cover(((-1, 1), (-1, 1)), 0.25, (1, 2), coverage_tol=0.05)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(2000, 2))
    counts = np.zeros(len(pts), dtype=int)
    for b in cover.boxes:
        counts += b.contains(pts).astype(int)
    assert counts.max() <= 1


def test_box_cover_errors(monkeypatch):
    with pytest.raises(ValueError):
        box_cover(((-1, -1), (0, 1)), 0.5, (1, 2))  # zero volume
    monkeypatch.setattr(smoothness, "_MAX_BOXES", 50)
    with pytest.raises(RuntimeError):
        box_cover(((-1, 1), (-1, 1)), 1e-4, (1, 2))


def test_smoothness_vector_validation():
    with pytest.raises(ValueError):
        SmoothnessVector((0, 2))
    with pytest.raises(ValueError):
        SmoothnessVector(())
    sv = SmoothnessVector((1, 2))
    assert sv.inv_sum == Fraction(3, 2)

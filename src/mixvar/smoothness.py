"""Multi-index combinatorics of the smoothness vector and anisotropic geometry.

The smoothness vector ``a = (a_1, ..., a_N)`` fixes the maximal derivative
order per axis.  Multi-indices are weighed by the exact rational pairing
``<alpha, 1/a> = sum(alpha_j / a_j)``; all comparisons against 1 are done in
``fractions.Fraction`` arithmetic so boundary indices are never misclassified
by rounding.

Anisotropic boxes are the sublevel sets ``|x_i - c_i| ** a_i < R``, of
half-width ``R ** (1/a_i)`` along axis i.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "SmoothnessVector",
    "MultiIndex",
    "AnisoBox",
    "BoxCover",
    "pairing",
    "homogeneity_set",
    "lower_set",
    "kernel_monomials",
    "box_cover",
]

MultiIndex = tuple[int, ...]

# the most boxes box_cover may place before it gives up
_MAX_BOXES = 200_000


@dataclass(frozen=True)
class SmoothnessVector:
    """Per-axis maximal derivative orders, with exact reciprocals cached."""

    a: tuple[int, ...]
    a_inv: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a = tuple(int(ai) for ai in self.a)
        if len(a) == 0:
            raise ValueError("smoothness vector must have at least one axis")
        if any(ai < 1 for ai in a):
            raise ValueError(f"smoothness entries must be positive integers, got {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_inv", tuple(Fraction(1, ai) for ai in a))

    @property
    def ndim(self) -> int:
        return len(self.a)

    @property
    def inv_sum(self) -> Fraction:
        """|a^-1| = sum of 1/a_i, exact."""
        return sum(self.a_inv, Fraction(0))


def _as_sv(a) -> SmoothnessVector:
    if isinstance(a, SmoothnessVector):
        return a
    return SmoothnessVector(tuple(a))


def pairing(alpha: MultiIndex, a) -> Fraction:
    """Exact rational pairing <alpha, 1/a>."""
    sv = _as_sv(a)
    if len(alpha) != sv.ndim:
        raise ValueError(f"multi-index length {len(alpha)} != ndim {sv.ndim}")
    if any(int(x) < 0 for x in alpha):
        raise ValueError(f"multi-index entries must be nonnegative, got {alpha}")
    return sum((Fraction(int(al), ai) for al, ai in zip(alpha, sv.a)), Fraction(0))


def _ordered(indices) -> list[MultiIndex]:
    # Global column convention: lexicographic with the leading axis dominant,
    # so (1,0,0) precedes (0,1,0) precedes (0,0,1) as in the classical gradient.
    return sorted(indices, reverse=True)


def homogeneity_set(a) -> list[MultiIndex]:
    """All alpha with <alpha, 1/a> == 1, in the global column order.

    The cardinality of the returned list is the column count m of the
    mixed-order gradient.
    """
    return list(_homogeneity_set(_as_sv(a)))


@functools.lru_cache(maxsize=None)
def _homogeneity_set(sv: SmoothnessVector) -> tuple[MultiIndex, ...]:
    hits = []
    one = Fraction(1)
    for alpha in itertools.product(*(range(ai + 1) for ai in sv.a)):
        if pairing(alpha, sv) == one:
            hits.append(alpha)
    return tuple(_ordered(hits))


def lower_set(a, strict: bool = False) -> list[MultiIndex]:
    """All alpha with <alpha, 1/a> <= 1 (or < 1 when ``strict``), ordered.

    The result is downward-closed: if alpha is in the set then so is any
    beta <= alpha componentwise.
    """
    sv = _as_sv(a)
    one = Fraction(1)
    hits = []
    for alpha in itertools.product(*(range(ai + 1) for ai in sv.a)):
        pr = pairing(alpha, sv)
        if (pr < one) if strict else (pr <= one):
            hits.append(alpha)
    return _ordered(hits)


def kernel_monomials(a) -> list[MultiIndex]:
    """Exponents gamma with d^alpha x^gamma == 0 for every homogeneity alpha.

    Equivalently: no hyperplane multi-index alpha <= gamma componentwise.
    Any such gamma satisfies gamma_i < a_i on every axis, which bounds the
    search.  The set is downward-closed.
    """
    sv = _as_sv(a)
    hyper = homogeneity_set(sv)
    hits = []
    for gamma in itertools.product(*(range(ai) for ai in sv.a)):
        killed_all = all(
            any(g < al for g, al in zip(gamma, alpha)) for alpha in hyper
        )
        if killed_all:
            hits.append(gamma)
    return _ordered(hits)


@dataclass(frozen=True)
class AnisoBox:
    """Open anisotropic box: x is inside iff |x_i - c_i|**a_i < R for all i."""

    center: tuple[float, ...]
    radius: float
    a: SmoothnessVector

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"box radius must be positive, got {self.radius}")
        object.__setattr__(self, "a", _as_sv(self.a))
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != self.a.ndim:
            raise ValueError("center dimension does not match smoothness vector")

    @property
    def half_widths(self) -> np.ndarray:
        return np.array([self.radius ** (1.0 / ai) for ai in self.a.a])

    @property
    def volume(self) -> float:
        return float(2 ** self.a.ndim * self.radius ** float(self.a.inv_sum))

    def contains(self, x) -> np.ndarray:
        """Vectorized membership test; x has shape (..., N)."""
        x = np.asarray(x, dtype=float)
        c = np.asarray(self.center)
        w = self.half_widths
        return np.all(np.abs(x - c) < w, axis=-1)

    def bounds(self) -> list[tuple[float, float]]:
        w = self.half_widths
        return [(c - wi, c + wi) for c, wi in zip(self.center, w)]


@dataclass(frozen=True)
class BoxCover:
    boxes: tuple[AnisoBox, ...]
    covered_fraction: float


def _rect_volume(domain) -> float:
    return float(np.prod([hi - lo for lo, hi in domain]))


def box_cover(
    domain,
    max_radius: float,
    a,
    coverage_tol: float = 0.05,
) -> BoxCover:
    """Disjoint anisotropic boxes of radius <= max_radius inside a rectangle.

    Dyadic scheme: tile a core block with boxes of the largest admissible
    radius, peel the uncovered slabs off axis by axis, and recurse on the
    slabs with the radius halved (each axis then shrinks by 2**(1/a_i)).
    Stops once the uncovered fraction drops below ``coverage_tol``.
    """
    sv = _as_sv(a)
    if max_radius <= 0:
        raise ValueError("max_radius must be positive")
    domain = [(float(lo), float(hi)) for lo, hi in domain]
    if len(domain) != sv.ndim:
        raise ValueError("domain dimension does not match smoothness vector")
    total = _rect_volume(domain)
    if total <= 0:
        raise ValueError("domain has zero volume")

    boxes: list[AnisoBox] = []
    boxes_volume = 0.0  # sum of box volumes, accumulated in append order
    target_uncovered = coverage_tol * total

    def tile(rect, radius) -> float:
        """Tile ``rect`` at this radius, recurse on the peel; returns covered volume."""
        nonlocal boxes_volume
        vol = _rect_volume(rect)
        if vol <= 0:
            return 0.0
        widths = 2.0 * np.array([radius ** (1.0 / ai) for ai in sv.a])
        counts = [int(math.floor((hi - lo) / w + 1e-12)) for (lo, hi), w in zip(rect, widths)]
        if all(c >= 1 for c in counts):
            n_new = int(np.prod(counts))
            if len(boxes) + n_new > _MAX_BOXES:
                raise RuntimeError(
                    f"box cover exceeds budget of {_MAX_BOXES} boxes at radius {radius}"
                )
            for idx in itertools.product(*(range(c) for c in counts)):
                center = tuple(
                    lo + (k + 0.5) * w for (lo, hi), w, k in zip(rect, widths, idx)
                )
                boxes.append(AnisoBox(center, radius, sv))
            box_volume = boxes[-1].volume
            covered = n_new * box_volume
            for _ in range(n_new):
                boxes_volume += box_volume
            # Peel the uncovered slabs (disjoint L-shaped shell around the core).
            core_hi = [lo + c * w for (lo, hi), w, c in zip(rect, widths, counts)]
            remaining = [r for r in rect]
            for i in range(sv.ndim):
                lo_i, hi_i = rect[i]
                if core_hi[i] < hi_i - 1e-14 * max(1.0, abs(hi_i)):
                    slab = list(remaining)
                    slab[i] = (core_hi[i], hi_i)
                    if boxes_volume >= total - target_uncovered:
                        return covered
                    covered += tile(slab, radius / 2.0)
                remaining[i] = (lo_i, core_hi[i])
            return covered
        # Nothing fits at this radius: refine if there is still room to matter.
        if vol <= target_uncovered * 1e-3 or radius < 1e-14:
            return 0.0
        return tile(rect, radius / 2.0)

    covered = tile(domain, max_radius)
    frac = covered / total
    if frac < 1.0 - coverage_tol:
        # One more sweep at finer radii over what is left would duplicate work;
        # the recursion only terminates early on budget or tolerance, so
        # reaching here means the budget cut coverage short.
        raise RuntimeError(
            f"cover reached only {frac:.4f} of the domain within the box budget"
        )
    return BoxCover(tuple(boxes), frac)

"""Integrands F: R^{n x m} -> R u {+inf} with growth metadata and gradients.

Evaluation is vectorized: ``eval`` maps arrays of shape (..., n, m) to (...),
``grad`` maps (..., n, m) to (..., n, m).  Registration runs a finite
difference check on the analytic gradient, a sampled check on the upper
growth constant and a sampled tangent-plane check of the ``hull_exact``
certificate, so broken metadata fails fast.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Integrand", "builtin", "builtin_from_config", "grad_check"]

# the registration gradient check: its random points and their seed
_CHECK_SAMPLES = 20
_CHECK_SEED = 20260501
# the registration tangent-plane check of hull_exact: its random points (half
# of them at scale 1, half at scale 3) and the relative violation it forgives
# (central-difference gradients are good to about 1e-9)
_TANGENT_SAMPLES = 128
_TANGENT_TOL = 1e-6


@dataclass
class Integrand:
    """F with optional analytic gradient and p-growth metadata.

    growth: |F(V)| <= C_upper (|V|^p + 1) when C_upper is set.

    check_points(rng) -> (V, h), when set, draws the points of the
    registration gradient check for an F that is smooth only piecewise: a
    point V of shape (n, m) and a central-difference step h whose stencil
    stays where F is smooth.  Without it the check draws V ~ N(0, I) with
    the step 1e-5 (1 + |V|).

    hull_exact(V) -> bool[...], when set, certifies the points V (..., n, m)
    where F equals its convex envelope CF; it returns False wherever that
    is not known.  For a differentiable F these are exactly the points where
    F lies above its tangent plane at V.  There the quasiconvex envelope is
    F itself, on every grid: the stencils have zero mean on zero-boundary
    fields phi, so by Jensen's inequality
    mean F(V + grad_a phi) >= mean CF(V + grad_a phi) >= CF(V) = F(V),
    and phi = 0 is a minimiser (CF <= QF <= F; Dacorogna, Direct Methods in
    the Calculus of Variations, 2008).  Registration samples the
    tangent-plane inequality F(W) >= F(V) + <F'(V), W - V> at the certified
    points among its samples, so a wrong certificate fails fast.
    """

    eval: callable
    n: int
    m: int
    p: float
    grad: callable | None = None
    C_upper: float | None = None
    name: str = "custom"
    params: dict = field(default_factory=dict)
    check_points: callable | None = None
    hull_exact: callable | None = None

    def __post_init__(self):
        if self.grad is not None:
            err = grad_check(self)
            if err > 1e-4:
                raise ValueError(
                    f"analytic gradient of {self.name!r} disagrees with finite "
                    f"differences: relative error {err:.3e}"
                )
        if self.C_upper is not None:
            rng = np.random.default_rng(_CHECK_SEED + 1)
            V = rng.normal(scale=3.0, size=(1000, self.n, self.m))
            vals = np.abs(self(V))
            if np.isnan(vals).any():
                raise ValueError(f"{self.name!r} is NaN at a point of the sampled growth check")
            bound = self.C_upper * (_fro(V) ** self.p + 1.0)
            worst = float(np.max(vals - bound))
            if worst > 1e-9 * self.C_upper:
                raise ValueError(
                    f"sampled |F| exceeds declared C_upper for {self.name!r} by {worst:.3e}"
                )
        if self.hull_exact is not None:
            worst = _tangent_violation(self)
            if worst > _TANGENT_TOL:
                raise ValueError(
                    f"hull_exact of {self.name!r} certifies a point where F falls below its "
                    f"tangent plane: relative violation {worst:.3e}"
                )

    def __call__(self, V: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(V, dtype=float)), dtype=float)

    def gradient(self, V: np.ndarray) -> np.ndarray:
        """Analytic gradient when present, vectorized central differences otherwise."""
        V = np.asarray(V, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(V), dtype=float)
        return _fd_gradient(self, V)


def _is_int(val) -> bool:
    """An integer, and not a bool (JSON's true is not 1)."""
    return isinstance(val, numbers.Integral) and not isinstance(val, bool)


def _is_number(val) -> bool:
    """A finite real number, and not a bool."""
    return isinstance(val, numbers.Real) and not isinstance(val, bool) and math.isfinite(val)


def _fro(V: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(V**2, axis=(-2, -1)))


def _fd_gradient(F: Integrand, V: np.ndarray, step=None) -> np.ndarray:
    if step is None:
        step = 1e-5 * (1.0 + _fro(V))
    base_step = np.broadcast_to(step, V.shape[:-2])[..., None, None]
    out = np.empty_like(V)
    for i in range(F.n):
        for j in range(F.m):
            E = np.zeros_like(V)
            E[..., i, j] = 1.0
            h = base_step[..., 0, 0]
            out[..., i, j] = (F(V + base_step * E) - F(V - base_step * E)) / (2.0 * h)
    return out


def grad_check(F: Integrand) -> float:
    """Max over _CHECK_SAMPLES points of ||grad - central FD|| / (1 + ||grad||).

    Points and steps come from ``F.check_points`` when set, one call per
    draw.  A draw where F is NaN is a ValueError naming F; points where F is
    infinite are resampled, at most 50 * _CHECK_SAMPLES draws in all: the
    points are the first _CHECK_SAMPLES finite draws of the stream, as a
    loop that checks one draw at a time takes them.  F's gradient and
    central differences are then evaluated at all the points in one batch;
    a non-finite error counts as +inf.
    """
    if F.grad is None:
        raise ValueError("integrand has no analytic gradient to check")
    rng = np.random.default_rng(_CHECK_SEED)
    points, steps, tries = [], [], 0
    while len(points) < _CHECK_SAMPLES:
        draws = min(_CHECK_SAMPLES - len(points), 50 * _CHECK_SAMPLES - tries)
        if not draws:
            raise RuntimeError("could not sample enough finite points for grad_check")
        tries += draws
        drawn = [(rng.normal(size=(F.n, F.m)), None) if F.check_points is None
                 else F.check_points(rng) for _ in range(draws)]
        vals = F(np.stack([V for V, _ in drawn]))
        if np.isnan(vals).any():
            raise ValueError(f"{F.name!r} is NaN at a point of the sampled gradient check")
        finite = np.isfinite(vals)
        points += [V for (V, _), ok in zip(drawn, finite) if ok]
        # the default step of _fd_gradient, taken at each lone point
        steps += [1e-5 * (1.0 + _fro(V)) if h is None else h
                  for (V, h), ok in zip(drawn, finite) if ok]
    V = np.stack(points)
    g = np.asarray(F.grad(V), dtype=float)
    fd = _fd_gradient(F, V, np.array(steps, dtype=float))
    g, diff = g.reshape(len(V), -1), (g - fd).reshape(len(V), -1)
    errs = np.sqrt(np.vecdot(diff, diff)) / (1.0 + np.sqrt(np.vecdot(g, g)))
    # a NaN gradient or difference is a failure, not a sample to skip
    return float(np.max(np.where(np.isfinite(errs), errs, np.inf)))


def _tangent_violation(F: Integrand) -> float:
    """Worst relative violation of F(W) >= F(V) + <F'(V), W - V> over sampled pairs.

    V ranges over the samples that ``F.hull_exact`` certifies and W over all
    samples; pairs with a non-finite term are skipped.  A sample where F is
    NaN is a ValueError naming F.  Returns -inf when no sample is certified.
    """
    rng = np.random.default_rng(_CHECK_SEED + 2)
    half = _TANGENT_SAMPLES // 2
    W = rng.normal(size=(2 * half, F.n, F.m)) * np.repeat([1.0, 3.0], half)[:, None, None]
    fW = F(W)
    if np.isnan(fW).any():
        raise ValueError(f"{F.name!r} is NaN at a point of the sampled tangent-plane check")
    V = W[np.asarray(F.hull_exact(W), dtype=bool)]
    if not len(V):
        return -np.inf
    fV = F(V)
    g = F.gradient(V).reshape(len(V), -1)
    X, Y = W.reshape(len(W), -1), V.reshape(len(V), -1)
    tangent = fV[:, None] + g @ X.T - np.sum(g * Y, axis=1)[:, None]
    scale = (1.0 + np.abs(fW)[None, :] + np.abs(fV)[:, None]
             + np.linalg.norm(g, axis=1)[:, None] * (_fro(W)[None, :] + _fro(V)[:, None]))
    with np.errstate(invalid="ignore"):
        gap = (tangent - fW[None, :]) / scale
    return float(np.max(gap, initial=-np.inf, where=np.isfinite(gap)))


def _everywhere(V: np.ndarray) -> np.ndarray:
    """The certificate of a convex F: F = CF at every V."""
    return np.ones(np.shape(V)[:-2], dtype=bool)


def _pnorm(p: float, n: int = 1, m: int = 1) -> Integrand:
    p, n, m = float(p), int(n), int(m)

    def ev(V):
        return _fro(V) ** p

    def gr(V):
        r = _fro(V)[..., None, None]
        if p == 2.0:
            return 2.0 * V
        safe = np.maximum(r, 1e-300)
        return p * safe ** (p - 2.0) * V

    return Integrand(
        ev, n, m, p, grad=gr, C_upper=1.0, name="pnorm", params={"p": p, "n": n, "m": m},
        hull_exact=_everywhere,  # convex for p >= 1
    )


def _quadratic(A, n: int, m: int) -> Integrand:
    A, n, m = np.asarray(A, dtype=float), int(n), int(m)
    k = n * m
    if A.shape != (k, k):
        raise ValueError(f"quadratic form must be {k}x{k}, got {A.shape}")
    if not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("quadratic form must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        raise ValueError(f"quadratic form must be SPD; min eigenvalue {eigs[0]:.3e}")

    def ev(V):
        v = V.reshape(V.shape[:-2] + (k,))
        return np.einsum("...i,ij,...j->...", v, A, v)

    def gr(V):
        v = V.reshape(V.shape[:-2] + (k,))
        return (2.0 * v @ A.T).reshape(V.shape)

    return Integrand(
        ev, n, m, 2.0, grad=gr, C_upper=float(eigs[-1]), name="quadratic",
        params={"A": A.tolist(), "n": n, "m": m}, hull_exact=_everywhere,
    )


def _pantographic() -> Integrand:
    # n=1, a=(1,2): squared first column plus squared second column
    def ev(V):
        return V[..., 0, 0] ** 2 + V[..., 0, 1] ** 2

    def gr(V):
        return 2.0 * V

    return Integrand(ev, 1, 2, 2.0, grad=gr, C_upper=1.0, name="pantographic", params={},
                     hull_exact=_everywhere)


def _double_well(col: int = 0, w: float = 1.0, n: int = 1, m: int = 1) -> Integrand:
    col, w, n, m = int(col), float(w), int(n), int(m)
    if not (0 <= col < m):
        raise ValueError(f"well column {col} out of range for m={m}")

    def ev(V):
        v = V[..., 0, col]
        rest = np.sum(V**2, axis=(-2, -1)) - v**2
        return (v**2 - w**2) ** 2 + rest

    def gr(V):
        out = 2.0 * V
        v = V[..., 0, col]
        out[..., 0, col] = 4.0 * v * (v**2 - w**2)
        return out

    def hull_exact(V):
        # F is separable, so CF is the convex hull of the well, which equals
        # it off (-|w|, |w|), plus the other squares
        return np.abs(V[..., 0, col]) >= abs(w)

    return Integrand(
        ev, n, m, 4.0, grad=gr, C_upper=max(3.0, 1.0 + 2.0 * w**4),
        name="double_well", params={"col": col, "w": w, "n": n, "m": m}, hull_exact=hull_exact,
    )


def shifted(F: Integrand, X0) -> Integrand:
    X0 = np.asarray(X0, dtype=float).reshape(F.n, F.m)

    def ev(V):
        return F(X0 + V)

    gr = None
    if F.grad is not None:
        def gr(V):
            return F.grad(X0 + V)

    hull_exact = None
    if F.hull_exact is not None:
        def hull_exact(V):
            return F.hull_exact(X0 + V)

    C_upper = None
    if F.C_upper is not None:
        shift_norm = float(np.linalg.norm(X0))
        C_upper = F.C_upper * 2.0 ** max(F.p - 1.0, 0.0) * (1.0 + shift_norm**F.p + 1.0)
    return Integrand(
        ev, F.n, F.m, F.p, grad=gr, C_upper=C_upper,
        name="shifted", params={"base": F.name, "base_params": F.params, "X0": X0.tolist()},
        hull_exact=hull_exact,
    )


def minus_power(F: Integrand, c: float, q: float) -> Integrand:
    """F(.) - c |.|^q, the point-criterion integrand for coercivity tests."""
    c, q = float(c), float(q)
    if q > F.p:
        raise ValueError(f"q={q} exceeds the growth exponent p={F.p}")

    def ev(V):
        return F(V) - c * _fro(V) ** q

    gr = None
    if F.grad is not None:
        def gr(V):
            r = _fro(V)[..., None, None]
            safe = np.maximum(r, 1e-300)
            term = c * q * safe ** (q - 2.0) * V if q != 2.0 else 2.0 * c * V
            return F.grad(V) - term

    C_upper = None
    if F.C_upper is not None:
        C_upper = F.C_upper + abs(c) + 1.0
    return Integrand(
        ev, F.n, F.m, F.p, grad=gr, C_upper=C_upper,
        name="minus_power", params={"base": F.name, "base_params": F.params, "c": c, "q": q},
    )


def _constant(c: float = 0.0, n: int = 1, m: int = 1, p: float = 2.0) -> Integrand:
    c, n, m, p = float(c), int(n), int(m), float(p)

    def ev(V):
        return np.full(V.shape[:-2], c)

    def gr(V):
        return np.zeros_like(V)

    return Integrand(
        ev, n, m, p, grad=gr, C_upper=abs(c) + 1e-300,
        name="constant", params={"c": c, "n": n, "m": m, "p": p}, hull_exact=_everywhere,
    )


# the built-in integrands; each reads its factory's parameters, with their defaults
_BUILTINS = {
    "constant": _constant,
    "pnorm": _pnorm,
    "quadratic": _quadratic,
    "pantographic": _pantographic,
    "double_well": _double_well,
    "shifted": shifted,
    "minus_power": minus_power,
}
# the built-in parameters that are integers, those that are finite numbers,
# and those that are at least 1: a count, or the exponent p of W^{a,p}, which
# takes 1 <= p < inf
_INT_PARAMS = {"n", "m", "col"}
_NUMBER_PARAMS = {"c", "p", "w", "q"}
_AT_LEAST_ONE = {"n", "m", "p"}


def builtin(name: str, **params) -> Integrand:
    """The built-in integrand ``name``, built from ``params`` by its factory in ``_BUILTINS``.

    The factory's signature is the one statement of the parameters ``name``
    reads, which of them it requires and the defaults of the others.  A
    required parameter left out is a KeyError naming it.  A parameter the
    factory does not read is a ValueError, so a misspelt one cannot fall
    back to its default, and so is an n, m or col that is not an integer, a
    c, p, w or q that is not a finite number (a bool is neither), and an n,
    m or p below 1.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown integrand {name!r}")
    accepted = inspect.signature(_BUILTINS[name]).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"integrand {name!r} has no parameter(s) {', '.join(map(repr, unknown))}")
    for key, val in params.items():
        if key in _INT_PARAMS and not _is_int(val):
            raise ValueError(f"integrand {name!r} parameter {key!r} must be an integer, "
                             f"got {val!r}")
        if key in _NUMBER_PARAMS and not _is_number(val):
            raise ValueError(f"integrand {name!r} parameter {key!r} must be a finite number, "
                             f"got {val!r}")
        if key in _AT_LEAST_ONE and val < 1:
            raise ValueError(f"integrand {name!r} parameter {key!r} must be at least 1, "
                             f"got {val!r}")
    for key, param in accepted.items():
        if param.default is param.empty and key not in params:
            raise KeyError(key)
    return _BUILTINS[name](**params)


def builtin_from_config(cfg: dict) -> Integrand:
    """Build from {"integrand": spec}, spec {"name": ..., "params": {...}}; a ``base`` is a spec."""
    spec = cfg["integrand"]
    name = spec["name"]
    params = dict(spec.get("params", {}))
    if name in ("shifted", "minus_power"):
        params["F"] = builtin_from_config({"integrand": params.pop("base")})
    return builtin(name, **params)

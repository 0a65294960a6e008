"""Contamination alternatives 1 + delta * l(x) on [0, 1] and exact samplers.

The contamination rate is tied to the spacings order, delta = (n m)^(-1/4);
that is the rate at which these tests have non-trivial local power, and every
power formula assumes it.  ``delta_override`` exists as an expert escape
hatch (fixed-delta alternatives are needed e.g. for finite-n sample-size
matching) and is off-theory: none of the asymptotic power predictions apply
to an overridden delta as-is.

Null samples are sorted uniforms generated without sorting: with n iid
standard exponentials Y_0..Y_(n-1) and S their sum, the partial sums
(Y_0 + ... + Y_(k-1)) / S for k = 1..n-1 are exactly the order statistics of
n-1 uniforms.  Alternative samples push those through the inverse CDF.

The inverse CDF is seeded from a table of F^{-1} at i / 4096 with its slopes,
built once per model by the same safeguarded Newton kernel that then polishes
each query; the cubic Hermite seed usually meets the tolerance at its first
F evaluation.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import roots_legendre

from .errors import DomainError, PositivityError, QuadratureConvergenceError

_GRID = 8192  # panels for numeric paths; panel-wise 8-pt Gauss is ~1e-15 exact
_SEED_CELLS = 4096  # cells of the F^{-1} seed table on a uniform u-grid
_NEWTON_TOL = 1e-13  # an element stops at its first iterate with |F(y) - u| <= this
_NEWTON_CAP = 90


@dataclass(frozen=True)
class AlternativeModel:
    """A contamination path l with its norms, CDF pieces, and scale delta."""

    kind: str
    params: tuple
    n: int
    m: int
    delta: float
    path: object                 # l(x), vectorized
    path_integral: object        # L(x) = int_0^x l, vectorized, L(0)=L(1)=0
    l2norm2: float
    sup_abs_l: float
    off_theory_delta: bool = False
    #: cubic Hermite coefficients of F^{-1} per cell (_seed_table); set by
    #: make_alternative
    inverse_table: tuple | None = field(default=None, compare=False, repr=False)


@functools.cache
def _panel_nodes():
    """Nodes, weights and panel edges of the panel-wise 8-point Gauss rule,
    and the rule's own nodes t8 and weights w8 on [-1, 1], built once and
    shared read-only."""
    t, w = roots_legendre(8)
    edges = np.linspace(0.0, 1.0, _GRID + 1)
    half = 0.5 / _GRID
    mids = edges[:-1] + half
    x = (mids[:, None] + half * t[None, :]).ravel()
    wts = (np.broadcast_to(w[None, :] * half, (_GRID, 8))).ravel()
    for a in (x, wts, edges, t, w):
        a.flags.writeable = False
    return x, wts, edges, t, w


def _numeric_integral(l, on_panels):
    """Cumulative integral of l as a fast callable, by per-panel Gauss;
    ``on_panels`` is l at the panel nodes and l must take any shape.

    L(x) is the panel sums below x's panel plus the 8-point rule on
    [panel edge, x].  The K queries of a call are laid out node-major, an
    (8, K) block, and its rows are added in the order
    ((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7)), which is the order numpy's
    pairwise sum takes over a contiguous row of 8; L(x) is therefore the
    same float as a (K, 8) row-major sum would give."""
    _, w, edges, t8, w8 = _panel_nodes()
    vals = (on_panels * w).reshape(_GRID, 8).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(vals)])
    t1 = (t8 + 1.0)[:, None]
    w8 = w8[:, None]

    def L(x):
        x = np.asarray(x, dtype=float)
        q = x.ravel()
        idx = np.clip((q * _GRID).astype(int), 0, _GRID - 1)
        lo = edges[idx]
        halfw = 0.5 * (q - lo)
        p = l(lo + halfw * t1) * w8
        part = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
        part *= halfw
        out = cum[idx] + part
        return out[0] if x.ndim == 0 else out.reshape(x.shape)

    return L


def _norms(v, delta):
    """||l||_2^2 and sup|l| from v = l at the panel nodes.

    Raises PositivityError unless the density 1 + delta * l is positive,
    delta * sup|l| < 1 (written so that a NaN fails it), which is checked
    before v is squared: an l too large for that cannot overflow here."""
    sup = float(np.abs(v).max())
    if not delta * sup < 1.0:
        raise PositivityError(
            f"density not positive: delta * sup|l| = {delta * sup:.6g} >= 1")
    _, w, _, _, _ = _panel_nodes()
    return float((w * v * v).sum()), sup


def _check_finite(kind, names, values):
    """DomainError naming the first parameter (a number or an array) that is
    not finite."""
    for name, v in zip(names, values):
        if not np.isfinite(v).all():
            raise DomainError(f"{kind} parameter {name} must be finite")


def make_alternative(kind: str, params, n: int, m: int,
                     delta_override: float | None = None) -> AlternativeModel:
    """Build a contamination model with delta = (n m)^(-1/4).

    Kinds: ("cosine", k, theta) with l(x) = theta cos(2 pi k x);
    ("bump", center, width, theta), a smooth compactly supported bump with
    its mean removed; ("table", xs, ys), a cubic-spline path through given
    points with endpoint mean correction.  A parameter that is not finite
    is refused by name.  Each kind supplies its normalized parameters, l
    and L = int_0^x l; the density positivity delta * sup|l| < 1, the norms
    and the zero-mean invariant L(1) = 0 are then checked and computed the
    same way for every kind.
    """
    if n < 2 or m < 1:
        raise DomainError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    delta = (n * m) ** -0.25 if delta_override is None else float(delta_override)
    on_panels = None  # l at the panel nodes, where a kind has it already

    if kind == "cosine":
        k, theta = float(params[0]), float(params[1])
        _check_finite(kind, ("k", "theta"), (k, theta))
        k = int(k)
        if k < 1:
            raise DomainError("cosine frequency k must be >= 1")
        two_pi_k = 2.0 * math.pi * k

        def l(x):
            return theta * np.cos(two_pi_k * np.asarray(x, dtype=float))

        def L(x):
            return theta * np.sin(two_pi_k * np.asarray(x, dtype=float)) / two_pi_k

        params = (k, theta)
    elif kind == "bump":
        center, width, theta = (float(p) for p in params)
        _check_finite(kind, ("center", "width", "theta"), (center, width, theta))
        if not (0.0 < center < 1.0 and width > 0):
            raise DomainError("bump needs 0 < center < 1 and width > 0")

        def base(x):
            # exp(1 - 1 / (1 - t^2)) on |t| < 1, computed everywhere in one
            # buffer and zeroed outside, where it may overflow or divide by 0
            t = np.array(x, dtype=float)
            t -= center
            t /= width
            outside = ~(np.abs(t) < 1.0)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                np.multiply(t, t, out=t)
                np.subtract(1.0, t, out=t)
                np.divide(1.0, t, out=t)
                np.subtract(1.0, t, out=t)
                np.exp(t, out=t)
            np.copyto(t, 0.0, where=outside)
            return t

        x, w, _, _, _ = _panel_nodes()
        bx = base(x)
        mean = float((w * bx).sum())

        def l(x):
            return theta * (base(x) - mean)

        on_panels = theta * (bx - mean)
        L = _numeric_integral(l, on_panels)
        params = (center, width, theta)
    elif kind == "table":
        from scipy.interpolate import CubicSpline

        xs = np.asarray(params[0], dtype=float)
        ys = np.asarray(params[1], dtype=float)
        _check_finite(kind, ("x", "l(x)"), (xs, ys))
        if xs.size < 4 or xs[0] != 0.0 or xs[-1] != 1.0:
            raise DomainError("table path needs >= 4 points spanning [0, 1]")
        s = CubicSpline(xs, ys)
        mean = float(s.integrate(0.0, 1.0))
        anti = s.antiderivative()
        a0 = float(anti(0.0))

        def l(x):
            return s(np.asarray(x, dtype=float)) - mean

        def L(x):
            x = np.asarray(x, dtype=float)
            return anti(x) - a0 - mean * x

        params = (tuple(xs), tuple(ys))
    else:
        raise DomainError(f"unknown alternative kind {kind!r}")

    if on_panels is None:
        on_panels = l(_panel_nodes()[0])
    l2, sup = _norms(on_panels, delta)
    model = AlternativeModel(kind=kind, params=params, n=n, m=m, delta=delta,
                             path=l, path_integral=L, l2norm2=l2,
                             sup_abs_l=sup,
                             off_theory_delta=delta_override is not None)
    end = float(L(1.0))
    if not abs(end) <= 1e-10:  # a NaN fails it too
        raise DomainError(f"path does not integrate to zero: L(1) = {end}")
    return replace(model, inverse_table=_seed_table(model))


def cdf(model: AlternativeModel, x):
    """F(x) = x + delta * int_0^x l; strictly increasing by positivity.

    F(0) = 0 and F(1) = 1 exactly (the path integrates to zero), enforced
    against quadrature roundoff in the numeric-path kinds."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x <= 1)):  # NaN fails it too
        raise DomainError("cdf argument outside [0, 1]")
    out = x + model.delta * model.path_integral(x)
    return np.where(x == 0.0, 0.0, np.where(x == 1.0, 1.0, out))


def _newton(model: AlternativeModel, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve F(y) = u for 1-D u from the start y (overwritten), by Newton
    safeguarded with bisection on the bracket [0, 1], which each F
    evaluation narrows (F' = 1 + delta*l is known and bounded away from 0).

    Each element stops at its own first iterate within _NEWTON_TOL, and only
    elements still active are evaluated again, so an element's value depends
    only on its u and start.  Raises if any element misses the tolerance
    after _NEWTON_CAP iterations."""
    idx = np.arange(u.size)
    lo, hi = np.zeros_like(u), np.ones_like(u)
    ya, ua = y, u
    for _ in range(_NEWTON_CAP):
        f = ya + model.delta * model.path_integral(ya) - ua
        act = np.flatnonzero(~(np.abs(f) <= _NEWTON_TOL))
        if not act.size:
            return y
        idx, ya, ua, f, lo, hi = (a[act] for a in (idx, ya, ua, f, lo, hi))
        lo = np.where(f <= 0, ya, lo)
        hi = np.where(f > 0, ya, hi)
        cand = ya - f / (1.0 + model.delta * model.path(ya))
        ya = np.where((cand <= lo) | (cand >= hi), 0.5 * (lo + hi), cand)
        y[idx] = ya
    raise QuadratureConvergenceError(
        f"inverse CDF: {idx.size} of {u.size} elements missed "
        f"|F(y) - u| <= {_NEWTON_TOL:g} after {_NEWTON_CAP} Newton steps")


def _seed_table(model: AlternativeModel) -> tuple:
    """Per-cell coefficients (c0, c1, c2, c3) of the cubic Hermite
    interpolant of F^{-1} in t = u * _SEED_CELLS - i on cell i, through
    y_i = F^{-1}(i / _SEED_CELLS), solved by _newton, with slopes
    1 / F'(y_i)."""
    grid = np.arange(_SEED_CELLS + 1) / _SEED_CELLS
    y = _newton(model, grid, grid.copy())
    d = 1.0 / (_SEED_CELLS * (1.0 + model.delta * model.path(y)))
    d0, d1, dy = d[:-1], d[1:], np.diff(y)
    return y[:-1], d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy


def inverse_cdf(model: AlternativeModel, u):
    """F^{-1}(u) elementwise, for u of any shape, to |F(y) - u| <= 1e-13.

    The cell of u in the model's seed table is floor(u * 4096); the cubic
    Hermite interpolant of F^{-1} on that cell, clipped to [0, 1], seeds the
    safeguarded Newton kernel, which stops each element at its own first
    iterate within 1e-13.  An element's value therefore depends on its u
    alone, not on the other elements of u.  Raises
    QuadratureConvergenceError if an element does not converge."""
    u = np.asarray(u, dtype=float)
    shape = u.shape
    u = u.ravel()
    if not np.all((u >= 0) & (u <= 1)):  # NaN fails it too
        raise DomainError("inverse_cdf argument outside [0, 1]")
    c0, c1, c2, c3 = model.inverse_table
    t = u * _SEED_CELLS
    i = np.minimum(t.astype(np.intp), _SEED_CELLS - 1)
    t -= i
    seed = c0[i] + t * (c1[i] + t * (c2[i] + t * c3[i]))
    y = _newton(model, u, np.clip(seed, 0.0, 1.0, out=seed))
    return y[0] if not shape else y.reshape(shape)


def order_statistics(model: AlternativeModel | None,
                     y: np.ndarray) -> np.ndarray:
    """Sorted samples from standard exponentials: each row y_0..y_(n-1)
    along the last axis gives the n-1 partial sums over the row total, the
    null sample, pushed through F^{-1} under ``model``."""
    u = np.cumsum(y[..., :-1], axis=-1) / y.sum(axis=-1, keepdims=True)
    if model is None or model.delta == 0.0 or model.sup_abs_l == 0.0:
        return u
    return inverse_cdf(model, u)


def sample_values(model: AlternativeModel | None, n: int, rng) -> np.ndarray:
    """n-1 sorted observations as a raw array, from n exponentials of rng."""
    return order_statistics(model, rng.standard_exponential(n))


def parse_path(text: str, n: int, m: int) -> AlternativeModel | None:
    """CLI path syntax: cos:<k>:<theta> | bump:<center>:<width>:<theta> |
    table:<file> | null."""
    if text in ("null", "none"):
        return None
    parts = text.split(":")
    if parts[0] == "cos" and len(parts) == 3:
        return make_alternative("cosine", (int(parts[1]), float(parts[2])), n, m)
    if parts[0] == "bump" and len(parts) == 4:
        return make_alternative("bump", tuple(float(p) for p in parts[1:]), n, m)
    if parts[0] == "table" and len(parts) == 2:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty: refused below
            rows = np.loadtxt(parts[1], delimiter=None, ndmin=2)
        if rows.shape[1] != 2:
            raise DomainError(f"table path {parts[1]} needs two columns x, l(x)")
        return make_alternative("table", (rows[:, 0], rows[:, 1]), n, m)
    raise DomainError(f"cannot parse path spec {text!r}")

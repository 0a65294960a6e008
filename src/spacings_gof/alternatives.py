"""Contamination alternatives 1 + delta * l(x) on [0, 1] and exact samplers.

The contamination rate is tied to the spacings order, delta = (n m)^(-1/4);
that is the rate at which these tests have non-trivial local power, and every
power formula assumes it.  ``delta_override`` is an escape hatch for
exploring other fixed deltas and is off-theory: none of the asymptotic power
predictions apply to an overridden delta as-is.

Null samples are sorted uniforms generated without sorting: with n iid
standard exponentials Y_0..Y_(n-1) and S their sum, the partial sums
(Y_0 + ... + Y_(k-1)) / S for k = 1..n-1 are exactly the order statistics of
n-1 uniforms.  Alternative samples push those through the inverse CDF.

The bump has no closed-form L = int_0^x l.  Its l is known at the 8 Gauss
nodes of each of 8192 panels, where the norms come from too; on each panel L
is the exact integral of l's degree-7 interpolant at those nodes, a
polynomial of degree 8 whose constant term carries the integral over the
panels below.  An L evaluation is then a gather of the panel's coefficients
and one Horner step per coefficient; l itself stays analytic.  The 8-point
Gauss-Legendre nodes and weights are literals, the bits scipy's
``roots_legendre(8)`` returns, so building a model imports no scipy (a
table path still loads scipy.interpolate for its spline).

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

from .errors import DomainError, PositivityError, QuadratureConvergenceError
from .special_math import _validate_m

_GRID = 8192  # panels of the bump's L: per-panel degree-8 polynomials, ~1e-16 from Gauss
_SEED_CELLS = 4096  # cells of the F^{-1} seed table on a uniform u-grid
_NEWTON_TOL = 1e-13  # an element stops at its first iterate with |F(y) - u| <= this
_NEWTON_CAP = 90
#: the 8-point Gauss-Legendre rule on [-1, 1], as scipy.special.roots_legendre(8)
#: returns it (a test checks the bits)
_GAUSS8_NODES = (-0.9602898564975363, -0.7966664774136267, -0.525532409916329,
                 -0.18343464249564984, 0.18343464249564984, 0.525532409916329,
                 0.7966664774136267, 0.9602898564975363)
_GAUSS8_WEIGHTS = (0.10122853629037562, 0.22238103445337473, 0.3137066458778876,
                   0.36268378337836205, 0.36268378337836205, 0.3137066458778876,
                   0.22238103445337473, 0.10122853629037562)


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
    """The panel-wise 8-point Gauss rule on the _GRID panels of [0, 1], and
    the map from l at a panel's 8 nodes to its integral, built once and
    shared read-only.

    Returns the nodes x and weights w on [0, 1]; the (9, 8) matrix A whose
    row k maps l at the nodes of a panel to the t^k coefficient of the
    integral, from the panel's left edge, of l's degree-7 interpolant at
    those nodes, in the panel's coordinate t in [-1, 1]; and the weights p
    of that integral over the whole panel.  The entries of A and p are
    exact rationals in the float nodes t_j, in Python integers over a
    common denominator, each rounded once by int / int."""
    t8, w8 = np.array(_GAUSS8_NODES), np.array(_GAUSS8_WEIGHTS)
    edges = np.linspace(0.0, 1.0, _GRID + 1)
    half = 0.5 / _GRID
    mids = edges[:-1] + half
    x = (mids[:, None] + half * t8[None, :]).ravel()
    wts = (np.broadcast_to(w8[None, :] * half, (_GRID, 8))).ravel()

    ratios = [float(t).as_integer_ratio() for t in t8]
    den = max(d for _, d in ratios)          # a power of 2
    nodes = [n * (den // d) for n, d in ratios]  # t_j = nodes[j] / den
    A, p = np.empty((9, 8)), np.empty(8)
    for j, nj in enumerate(nodes):
        # l_j(t) = sum_k a[k] (t den)^k / dj, the Lagrange basis at node j
        a, dj = [1], 1
        for i, ni in enumerate(nodes):
            if i != j:
                a = [hi - ni * lo for hi, lo in zip([0] + a, a + [0])]
                dj *= nj - ni
        # int_{-1}^t l_j dx = sum_k b[k] (t^(k+1) + (-1)^k) / e with
        # dx = half dt and 840 = lcm(1..8)
        b = [ak * den ** k * (840 // (k + 1)) for k, ak in enumerate(a)]
        e = 840 * 2 * _GRID * dj
        A[1:, j] = [bk / e for bk in b]
        A[0, j] = sum(bk if k % 2 == 0 else -bk for k, bk in enumerate(b)) / e
        p[j] = sum(2 * bk for bk in b[::2]) / e
    for arr in (x, wts, A, p):
        arr.flags.writeable = False
    return x, wts, A, p


def _panel_coefficients(on_panels):
    """The (9, _GRID) coefficients c[k, i] of L on panel i, a polynomial of
    degree 8 in the panel's coordinate t in [-1, 1], from ``on_panels``, l
    at the panel nodes.

    Row k is sum_j A[k, j] v_j over the panel values v_j, added for j = 0..7
    in that order; row 0 then adds the integral over the panels below, the
    running sum, in panel order, of sum_j p_j v_j, added the same way.  Each
    step is one elementwise numpy operation, so the bits do not depend on
    BLAS or on how numpy orders a reduction."""
    _, _, A, p = _panel_nodes()
    v = on_panels.reshape(_GRID, 8).T
    coef, panel, term = np.empty((9, _GRID)), np.empty(_GRID), np.empty(_GRID)
    for row, acc in zip((*A, p), (*coef, panel)):
        np.multiply(row[0], v[0], out=acc)
        for j in range(1, 8):
            acc += np.multiply(row[j], v[j], out=term)
    coef[0, 1:] += np.cumsum(panel[:-1])
    return coef


def _panel_polynomial(coef):
    """L(x) = int_0^x l as a fast callable of any shape, from the panel
    coefficients of _panel_coefficients: x's panel i = floor(x _GRID), its
    coordinate t = 2 (x _GRID - i) - 1, and Horner's rule in t over the
    gathered c[8, i], ..., c[0, i]."""

    def L(x):
        x = np.asarray(x, dtype=float)
        z = x.ravel() * _GRID
        idx = np.clip(z.astype(np.intp), 0, _GRID - 1)
        t = z - idx
        t *= 2.0
        t -= 1.0
        out = coef[8].take(idx)
        term = np.empty_like(out)
        for row in coef[7::-1]:
            out *= t
            # idx is in range; mode "clip" keeps take from buffering out
            out += row.take(idx, out=term, mode="clip")
        return out[0] if x.ndim == 0 else out.reshape(x.shape)

    return L


def _norms(v, delta):
    """||l||_2^2 and sup|l| from v = l at the panel nodes.

    Raises PositivityError unless the density 1 + delta * l is positive,
    delta * sup|l| < 1 (written so that a NaN fails it), which is checked
    before v is squared, and DomainError if ||l||_2^2 overflows, as it can
    for a huge l under a tiny overridden delta."""
    sup = float(np.abs(v).max())
    if not delta * sup < 1.0:
        raise PositivityError(
            f"density not positive: delta * sup|l| = {delta * sup:.6g} >= 1")
    _, w, _, _ = _panel_nodes()
    with np.errstate(over="ignore"):
        l2 = float((w * v * v).sum())
    if not math.isfinite(l2):
        raise DomainError(f"path too large: ||l||_2^2 overflows (sup|l| = {sup:.6g})")
    return l2, sup


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
    points with endpoint mean correction.  A parameter that is not finite,
    a cosine k that is not an integer and an l whose ||l||_2^2 overflows
    are refused by name.  Each kind supplies its normalized parameters and
    l, and the cosine its closed-form L = int_0^x l; the bump and the table
    take L as the per-panel polynomial of l.  The density positivity
    delta * sup|l| < 1, the norms and the zero-mean invariant L(1) = 0 are
    then checked and computed the same way for every kind.
    """
    m = _validate_m(m)
    if n < 2:
        raise DomainError(f"need n >= 2, got n={n}")
    delta = (n * m) ** -0.25 if delta_override is None else float(delta_override)
    on_panels = None  # l at the panel nodes, where a kind has it already
    L = None  # int_0^x l, where a kind has it in closed form

    if kind == "cosine":
        k, theta = float(params[0]), float(params[1])
        _check_finite(kind, ("k", "theta"), (k, theta))
        if k != int(k):
            raise DomainError(f"cosine parameter k must be an integer, got {k:g}")
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

        x, w, _, _ = _panel_nodes()
        bx = base(x)
        mean = float((w * bx).sum())

        def l(x):
            return theta * (base(x) - mean)

        on_panels = theta * (bx - mean)
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

        def l(x):
            return s(np.asarray(x, dtype=float)) - mean

        params = (tuple(xs), tuple(ys))
    else:
        raise DomainError(f"unknown alternative kind {kind!r}")

    if on_panels is None:
        on_panels = l(_panel_nodes()[0])
    l2, sup = _norms(on_panels, delta)
    if L is None:  # built from on_panels once _norms has bounded l
        L = _panel_polynomial(_panel_coefficients(on_panels))
    model = AlternativeModel(kind=kind, params=params, n=n, m=m, delta=delta,
                             path=l, path_integral=L, l2norm2=l2,
                             sup_abs_l=sup,
                             off_theory_delta=delta_override is not None)
    end = float(L(1.0))
    if not abs(end) <= 1e-10 * max(1.0, sup):  # roundoff ~ sup|l|; NaN fails
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
    only on its u and start.  F is evaluated on the whole block once; the
    index, bracket and iterate arrays hold only the elements that missed.
    Raises if any element misses the tolerance after _NEWTON_CAP F
    evaluations."""
    delta, L = model.delta, model.path_integral

    f = y + delta * L(y) - u
    idx = np.flatnonzero(~(np.abs(f) <= _NEWTON_TOL))
    if not idx.size:
        return y
    ya, ua, f = y[idx], u[idx], f[idx]
    lo, hi = np.zeros_like(ya), np.ones_like(ya)
    for _ in range(_NEWTON_CAP - 1):
        lo = np.where(f <= 0, ya, lo)
        hi = np.where(f > 0, ya, hi)
        cand = ya - f / (1.0 + delta * model.path(ya))
        ya = np.where((cand <= lo) | (cand >= hi), 0.5 * (lo + hi), cand)
        y[idx] = ya
        f = ya + delta * L(ya) - ua
        act = np.flatnonzero(~(np.abs(f) <= _NEWTON_TOL))
        if not act.size:
            return y
        idx, ya, ua, f, lo, hi = (a[act] for a in (idx, ya, ua, f, lo, hi))
    raise QuadratureConvergenceError(
        f"inverse CDF: {idx.size} of {u.size} elements missed "
        f"|F(y) - u| <= {_NEWTON_TOL:g} after {_NEWTON_CAP} F evaluations")


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
        return make_alternative("cosine", (float(parts[1]), float(parts[2])), n, m)
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

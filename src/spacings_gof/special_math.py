"""Gamma-distribution expectation kernels and special functions.

Everything downstream (moments, efficacies, critical points) reduces to
expectations of the form ``E f(Z)`` and ``E f(Z_0) f(Z_j)`` where ``Z`` is a
Gamma(m) block sum of standard exponentials.  Those expectations are computed
here with generalized Gauss-Laguerre quadrature against the weight
``u^(m-1) e^(-u)``, built by Golub-Welsch on the Jacobi matrix of the
generalized Laguerre polynomials.  Weights come from the Christoffel function
(inverse sum of squared orthonormal polynomials), which avoids both the
Gamma(m) overflow of the classical weight formula and the cost of a full
eigenvector decomposition, so rules stay stable for shapes up to 1e4 and
beyond.  Rules are built for a block of shapes at once: one tridiagonal
eigenvalue solve per shape, then one three-term recurrence over the whole
(shapes x nodes) block.  ``prefetch_joint_rules`` builds the plain rules the
lagged joint expectations start from this way, ``_RULE_BATCH`` (64) shapes
per block; every other rule is a block of one shape, built on demand.

Two composite discretizations supplement the plain rule:

* ``split``: for integrands with a logarithmic or fractional-power
  singularity at zero, the measure is split at u = 1; the left piece is
  mapped by u = exp(-s), which turns log-type singularities into analytic
  integrands, and the right piece uses a shifted Laguerre rule.  Plain
  Gauss-Laguerre converges only algebraically for such integrands at small
  shape (error ~ 1/n for shape 1); the split converges geometrically.
* ``kink``: for integrands with a single interior kink (e.g. |u - m|), the
  measure is split exactly at the kink; each side is then smooth.

The right piece of both reweights a Laguerre rule by the Gamma density; the
log of the reweighted weight is formed before exponentiating, since the
density factor alone overflows at large shape (rao at m = 2000).

Accuracy is fixed by the module constants below: every adaptive rule starts
at ``START_NODES`` and doubles until two successive estimates agree to
``ABS_TOL``, up to ``NODE_CAP`` (``JOINT_NODE_CAP`` for joint expectations).
Integrands are evaluated with numpy's floating-point warnings silenced; an
estimate that is not finite is an explicit error instead.  Estimates are
plain floats.

The special functions are ``digamma``, ``zeta2_remainder``, the part of
the Hurwitz zeta function zeta(2, a) that the closed-form moments need, and
``log_minus_digamma``, which the normalized-scaling log moments need.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln as _gammaln, psi as _psi, roots_legendre

from .errors import DomainError, QuadratureConvergenceError

#: first rule size of every adaptive quadrature
START_NODES = 64
#: two successive estimates agreeing to this (relative to max(1, |estimate|),
#: so absolute for O(1) values and relative for large moments) converge
ABS_TOL = 1e-11
NODE_CAP = 2 ** 14
# Joint expectations build (n x n) evaluation matrices; cap them lower to
# bound memory (a 4096^2 double matrix is already 128 MB).
JOINT_NODE_CAP = 2 ** 12
# Below this shape the Gamma density has non-negligible mass near zero and
# singular integrands need the split discretization; above it plain rules
# converge geometrically anyway.
SPLIT_MAX_SHAPE = 64


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x), for x > 0."""
    if not x > 0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    return float(_psi(x))


#: Bernoulli numbers B_2, B_4, ..., B_12 of the Euler-Maclaurin remainder
_BERNOULLI_EVEN = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
                   5.0 / 66.0, -691.0 / 2730.0)
#: the truncated series is used from here on (relative error < 1e-17)
_REMAINDER_SERIES_MIN = 32.0


def zeta2_remainder(a: float) -> float:
    """r(a) = zeta(2, a) - 1/a - 1/(2 a^2) for a > 0, without cancellation.

    For a >= 32 this is the Euler-Maclaurin series sum_k B_2k a^-(2k+1)
    through B_12.  Below, the recurrence r(a) = r(a+1) + 1/(2 a^2 (a+1)^2),
    whose terms are all positive, climbs to the series.  Closed-form moments
    written with r keep full relative accuracy at large m, where zeta(2, a)
    and the terms subtracted from it agree to all but a few digits.
    """
    if not a > 0:
        raise DomainError(f"zeta2_remainder requires a > 0, got {a}")
    a = float(a)
    head = 0.0
    while a < _REMAINDER_SERIES_MIN:
        head += 0.5 / (a * (a + 1.0)) ** 2
        a += 1.0
    x = 1.0 / (a * a)
    series = 0.0
    for b in reversed(_BERNOULLI_EVEN):
        series = series * x + b
    return head + series / (a * a * a)


def log_minus_digamma(a: float) -> float:
    """log a - psi(a) for a > 0, without cancellation.

    For a >= 32 this is the Euler-Maclaurin series 1/(2a) +
    sum_k B_2k / (2k a^2k) through B_12.  Below, the recurrence
    f(a) = f(a+1) + 1/a - log(1 + 1/a), whose terms are all positive, climbs
    to the series."""
    if not a > 0:
        raise DomainError(f"log_minus_digamma requires a > 0, got {a}")
    a = float(a)
    head = 0.0
    while a < _REMAINDER_SERIES_MIN:
        head += 1.0 / a - math.log1p(1.0 / a)
        a += 1.0
    x = 1.0 / (a * a)
    series = 0.0
    for k in range(len(_BERNOULLI_EVEN), 0, -1):
        series = series * x + _BERNOULLI_EVEN[k - 1] / (2 * k)
    return head + 0.5 / a + series * x


# ---------------------------------------------------------------------------
# Discretizations of the Gamma(shape) probability measure
# ---------------------------------------------------------------------------

_rule_cache: dict = {}
#: shapes per batched rule build: enough to spread the recurrence's
#: per-degree Python overhead, few enough to bound its working arrays
_RULE_BATCH = 64


def _laguerre_rules(n: int, alphas):
    """Plain generalized Gauss-Laguerre rules, probability-normalized, one
    row of the (S, n) arrays (nodes, weights) per shape parameter alpha.

    Nodes are eigenvalues of each shape's Jacobi matrix; weights come from
    the Christoffel function 1 / sum_k p_k(x)^2 with per-node rescaling so
    the three-term recurrence cannot overflow for large rules.  The
    recurrence runs once over the whole block; a row with no node to rescale
    is multiplied by 1.0 and shifted by 0.0, so every row is bit for bit the
    rule a one-row call builds.
    """
    from scipy.linalg import eigh_tridiagonal

    alphas = np.asarray(alphas, dtype=float)
    k = np.arange(n)
    x = np.stack([eigh_tridiagonal(2.0 * k + alpha + 1.0,
                                   np.sqrt(k[1:] * (k[1:] + alpha)),
                                   eigvals_only=True) for alpha in alphas])
    if n == 1:
        return x, np.ones_like(x)
    col = alphas[:, None]
    kf = np.arange(1.0, n)
    b = kf * (kf + col)
    np.sqrt(b, out=b)
    prev = np.ones_like(x)
    cur = (x - (col + 1.0)) / b[:, :1]
    total = prev ** 2 + cur ** 2
    logscale = np.zeros_like(x)
    for j in range(1, n - 1):
        nxt = x - (2.0 * j + col + 1.0)
        nxt *= cur
        nxt -= b[:, j - 1:j] * prev
        nxt /= b[:, j:j + 1]
        prev, cur = cur, nxt
        total += cur ** 2
        big = np.abs(cur) > 1e140
        if big.any():
            f = np.where(big, 1e-140, 1.0)
            prev = prev * f
            cur = cur * f
            total = total * f * f
            logscale = logscale + np.where(big, np.log(1e-140), 0.0)
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(2.0 * logscale) / total
    return x, w


def _log(w: np.ndarray) -> np.ndarray:
    # log of rule weights, -inf where they underflowed to 0
    with np.errstate(divide="ignore"):
        return np.log(w)


def _legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], kept in ``_rule_cache``."""
    key = ("legendre", n)
    hit = _rule_cache.get(key)
    if hit is None:
        hit = _rule_cache[key] = roots_legendre(n)
    return hit


def gamma_discretization(shape: int, n: int, variant=("plain",)):
    """Nodes and weights approximating the Gamma(shape) probability measure.

    ``variant`` is ``("plain",)``, ``("split",)`` (log-transform left piece on
    (0, 1], shifted Laguerre on [1, inf)), or ``("kink", x0)`` (Gauss-Legendre
    on [0, x0], shifted Laguerre on [x0, inf)).  Composite variants return
    2n points.  Weights sum to 1 up to quadrature error.  The composite
    variants take their Laguerre piece from the cached shape-1 plain rule.
    """
    key = (shape, n) + tuple(variant)
    hit = _rule_cache.get(key)
    if hit is not None:
        return hit
    kind = variant[0]
    if kind == "plain":
        xs, ws = _laguerre_rules(n, [shape - 1.0])
        x, w = xs[0], ws[0]
    elif kind == "split":
        s, w0 = gamma_discretization(1, n)
        lg = _gammaln(shape)
        sc = np.minimum(s, 700.0)  # exp underflow guard; weights there are ~0
        ul = np.exp(-sc)
        wl = w0 * np.exp(-(shape - 1.0) * sc - ul - lg)
        ur = 1.0 + s
        wr = np.exp(_log(w0) + (shape - 1.0) * np.log1p(s) - 1.0 - lg)
        x = np.concatenate([ul, ur])
        w = np.concatenate([wl, wr])
    elif kind == "kink":
        x0 = float(variant[1])
        t, wt = _legendre_rule(n)
        lg = _gammaln(shape)
        a = 0.5 * (t + 1.0) * x0
        with np.errstate(divide="ignore"):
            loga = np.where(a > 0, np.log(np.maximum(a, 1e-320)), -np.inf)
        wl = 0.5 * x0 * wt * np.exp((shape - 1.0) * loga - a - lg)
        s, ws = gamma_discretization(1, n)
        ur = x0 + s
        wr = np.exp(_log(ws) + (shape - 1.0) * np.log(ur) - x0 - lg)
        x = np.concatenate([a, ur])
        w = np.concatenate([np.where(np.isfinite(wl), wl, 0.0), wr])
    else:
        raise DomainError(f"unknown discretization variant {variant!r}")
    _rule_cache[key] = (x, w)
    return x, w


def _pick_variant(shape: int, log_singular_at_zero: bool, kink):
    if kink is not None and kink > 0:
        return ("kink", float(kink))
    if log_singular_at_zero and shape <= SPLIT_MAX_SHAPE:
        return ("split",)
    return ("plain",)


def prefetch_joint_rules(
    m: int,
    *,
    log_singular_at_zero: bool = False,
    inner_mean=None,
    outer_kink: float | None = None,
):
    """Batch-build the plain rules that ``gamma_joint_expectation`` with
    these arguments needs first at the lags j = 1..m-1.

    Those are the rules of the outer shapes m - j and, without
    ``inner_mean``, the inner shapes j whose variant is plain, at
    ``START_NODES`` and ``2 * START_NODES``, the two sizes every adaptive
    run builds, ``_RULE_BATCH`` uncached shapes per batched build.  They
    land in ``_rule_cache`` under the keys ``gamma_discretization`` looks
    up; larger rules are still built on demand, one shape at a time.
    """
    m = _validate_m(m)
    shapes = [s for s in range(1, m)
              if _pick_variant(s, log_singular_at_zero, outer_kink) == ("plain",)
              or (inner_mean is None
                  and _pick_variant(s, log_singular_at_zero, None) == ("plain",))]
    for n in (START_NODES, 2 * START_NODES):
        todo = [s for s in shapes if (s, n, "plain") not in _rule_cache]
        for i in range(0, len(todo), _RULE_BATCH):
            chunk = todo[i:i + _RULE_BATCH]
            xs, ws = _laguerre_rules(n, [s - 1.0 for s in chunk])
            for s, x, w in zip(chunk, xs, ws):
                _rule_cache[(s, n, "plain")] = (x, w)


def _validate_m(m) -> int:
    if not (isinstance(m, (int, np.integer)) and not isinstance(m, bool)
            and m >= 1):
        raise DomainError(f"order m must be a positive integer, got {m!r}")
    return int(m)


def _adaptive(estimate, cap: int, what: str):
    """Double the rule size from ``START_NODES`` until two successive
    ``estimate(n)`` agree to ``ABS_TOL`` (relative to max(1, |estimate|)).

    Integrands overflowing or turning NaN raise no numpy warning here: such
    an estimate is not finite, which raises ``QuadratureConvergenceError``
    (carrying the last two estimates) at once; so does reaching ``cap``
    without agreement.
    """
    n = START_NODES
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        prev = cur = estimate(n)
        while math.isfinite(cur) and n < cap:
            n *= 2
            prev, cur = cur, estimate(n)
            if math.isfinite(cur) and \
                    abs(cur - prev) <= ABS_TOL * max(1.0, abs(cur)):
                return cur
    if not math.isfinite(cur):
        raise QuadratureConvergenceError(
            f"{what}: the {n}-node estimate is {cur!r}, not finite",
            last_estimates=(prev, cur))
    raise QuadratureConvergenceError(
        f"{what} did not converge within {cap} nodes per rule; "
        f"last two estimates {prev!r}, {cur!r}",
        last_estimates=(prev, cur))


def gamma_expectation(
    f,
    m: int,
    *,
    log_singular_at_zero: bool = False,
    kink: float | None = None,
) -> float:
    """E f(Z) for Z ~ Gamma(m), by adaptive generalized Gauss-Laguerre.

    ``f`` must be vectorized over numpy arrays.  Integrable singularities at
    zero (e.g. log) are supported; pass ``log_singular_at_zero=True`` so the
    split discretization is used at small shape, and ``kink=x0`` for
    integrands like |u - x0| that are only piecewise smooth.

    Raises ``QuadratureConvergenceError`` (carrying the last two estimates)
    if an estimate is not finite, or if doubling reaches ``NODE_CAP`` without
    two successive estimates agreeing to ``ABS_TOL`` (relative to
    max(1, |estimate|)).
    """
    m = _validate_m(m)
    variant = _pick_variant(m, log_singular_at_zero, kink)

    def estimate(n):
        x, w = gamma_discretization(m, n, variant)
        return float(np.dot(w, f(x)))

    return _adaptive(estimate, NODE_CAP, f"quadrature for m={m}")


def gamma_joint_expectation(
    f,
    m: int,
    j: int,
    *,
    log_singular_at_zero: bool = False,
    inner_mean=None,
    outer_kink: float | None = None,
) -> float:
    """E[f(Z_0) f(Z_j)] for overlapping Gamma block sums at lag j.

    Uses the shared-block decomposition Z_0 = A + B, Z_j = B + C with
    A, C ~ Gamma(j) independent and B ~ Gamma(m - j): the outer integral runs
    over B and the inner conditional integrals over A and C, i.e.
    E_B[ (E_A f(A+B))^2 ].

    ``inner_mean(j, b)`` may supply a closed form for E_A f(A + b)
    (vectorized over b); this is how kinked tuning functions avoid inner
    quadrature (the conditional mean of |A + b - c| is an incomplete-gamma
    expression and is smooth in b).  For kinked f the conditional mean is
    only C^1 at b = kink, so pass ``outer_kink`` to split the outer rule
    there; otherwise outer convergence degrades to algebraic.
    """
    m = _validate_m(m)
    if not (isinstance(j, (int, np.integer)) and 1 <= j <= m - 1):
        raise DomainError(f"lag j must satisfy 1 <= j <= m-1, got j={j}, m={m}")
    j = int(j)
    outer_variant = _pick_variant(m - j, log_singular_at_zero, outer_kink)
    inner_variant = _pick_variant(j, log_singular_at_zero, None)

    def estimate(n):
        xb, wb = gamma_discretization(m - j, n, outer_variant)
        if inner_mean is not None:
            fa = inner_mean(j, xb)
        else:
            xa, wa = gamma_discretization(j, n, inner_variant)
            fa = f(xa[None, :] + xb[:, None]) @ wa
        return float(np.dot(wb, fa * fa))

    return _adaptive(estimate, JOINT_NODE_CAP,
                     f"joint quadrature for m={m}, j={j}")

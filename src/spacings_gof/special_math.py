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
(shapes x nodes) block.  ``gamma_lag_expectations`` builds the plain rules
all the lags 1..m-1 start from this way, ``_RULE_BATCH`` (64) shapes per
block; every other rule is a block of one shape, built on demand.

For integrands with a logarithmic or fractional-power singularity at zero
the ``split`` discretization supplements the plain rule: the measure is
split at u = 1; the left piece is mapped by u = exp(-s), which turns
log-type singularities into analytic integrands, and the right piece uses a
shifted Laguerre rule.  Plain Gauss-Laguerre converges only algebraically
for such integrands at small shape (error ~ 1/n for shape 1); the split
converges geometrically.  The right piece reweights a Laguerre rule by the
Gamma density; the log of the reweighted weight is formed before
exponentiating, since the density factor alone overflows at large shape.

Accuracy is fixed by the module constants below: every adaptive rule starts
at ``START_NODES`` and doubles until two successive estimates agree to
``ABS_TOL``, up to ``NODE_CAP`` (``JOINT_NODE_CAP`` for each lag's rules).
Integrands are evaluated with numpy's floating-point warnings silenced; an
estimate that is not finite is an explicit error instead.  Estimates are
plain floats.

The special functions are ``normal_cdf``, the Phi of p-values, predicted
power and the null studies' KS distance; ``normal_quantile``, the critical
points' and the sample-size search's Phi^{-1}; ``digamma``, which the
closed-form moments need at integers; ``zeta2_remainder``, the part of the
Hurwitz zeta function zeta(2, a) that the closed-form moments need;
``log_minus_digamma``, which the normalized-scaling log moments need; and
``log_gamma_remainder``, the Stirling remainder that rao's moments need.
``normal_cdf`` is erfc(-a / sqrt 2) / 2 with ``math.erfc``, within
2 eps max(1, a^2) relative of Phi (the a^2 is erfc's condition number) or
5e-324 absolute where that is larger, deep in the subnormal range;
``normal_quantile`` is ``statistics.NormalDist().inv_cdf`` (Wichura's
AS 241), within 8 ulps down to p = 5e-324; integer ``digamma`` is
log x - ``log_minus_digamma(x)``, within 2 ulps.  The tests measure these bounds against mpmath.  scipy
loads only where a route needs it: LAPACK (``scipy.linalg``) for the
Laguerre rules and the split rule's log Gamma; elsewhere in the package,
rao's ``gammainc`` and the ``CubicSpline`` of ``table:`` paths.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

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


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N], by Horner from coef[0]."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


_SQRT1_2 = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Phi^{-1}(p), the standard normal quantile, for 0 <= p <= 1:
    ``statistics.NormalDist().inv_cdf`` (Wichura's AS 241), with -inf at 0
    and inf at 1."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"normal quantile requires 0 <= p <= 1, got {p}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return _STANDARD_NORMAL.inv_cdf(p)


def normal_cdf(a):
    """Phi(a) = erfc(-a / sqrt 2) / 2, the standard normal CDF, of a float or
    an array of them, elementwise with ``math.erfc``: no cancellation in
    either tail.  A float in, a float out; NaN gives NaN."""
    arr = np.asarray(a, dtype=float)
    y = np.fromiter((0.5 * math.erfc(-x * _SQRT1_2)
                     for x in arr.ravel().tolist()), float, arr.size)
    return float(y[0]) if arr.ndim == 0 else y.reshape(arr.shape)


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x), at a positive integer x,
    as log x - ``log_minus_digamma(x)``."""
    if isinstance(x, (bool, np.bool_)) or \
            not (x > 0 and float(x).is_integer()):
        raise DomainError(f"digamma requires a positive integer x, got {x}")
    x = float(x)
    return math.log(x) - log_minus_digamma(x)


def _gammaln(x):
    """scipy.special.gammaln, imported on first call."""
    from scipy.special import gammaln
    return gammaln(x)


#: Bernoulli numbers B_2, B_4, ..., B_12 of the Euler-Maclaurin remainder
_BERNOULLI_EVEN = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
                   5.0 / 66.0, -691.0 / 2730.0)
#: the truncated series is used from here on (relative error < 1e-17)
_REMAINDER_SERIES_MIN = 32.0
#: the Euler-Maclaurin series of zeta2_remainder, log_minus_digamma and
#: log_gamma_remainder in x = 1/a^2, from B_12 down to B_2 for _polevl
_ZETA2_SERIES = tuple(reversed(_BERNOULLI_EVEN))
_LOG_DIGAMMA_SERIES = tuple(_BERNOULLI_EVEN[k - 1] / (2 * k)
                            for k in range(len(_BERNOULLI_EVEN), 0, -1))
_LOG_GAMMA_SERIES = tuple(_BERNOULLI_EVEN[k - 1] / (2 * k * (2 * k - 1))
                          for k in range(len(_BERNOULLI_EVEN), 0, -1))


def _climb(name: str, a: float, term) -> tuple[float, float]:
    """(term(a) + term(a+1) + ..., a') up to the first a' = a + k >=
    _REMAINDER_SERIES_MIN, where the Euler-Maclaurin series of function
    ``name`` takes over; a DomainError naming it unless a > 0."""
    if not a > 0:
        raise DomainError(f"{name} requires a > 0, got {a}")
    a = float(a)
    head = 0.0
    while a < _REMAINDER_SERIES_MIN:
        head += term(a)
        a += 1.0
    return head, a


def zeta2_remainder(a: float) -> float:
    """r(a) = zeta(2, a) - 1/a - 1/(2 a^2) for a > 0, without cancellation.

    For a >= 32 this is the Euler-Maclaurin series sum_k B_2k a^-(2k+1)
    through B_12.  Below, the recurrence r(a) = r(a+1) + 1/(2 a^2 (a+1)^2),
    whose terms are all positive, climbs to the series.  Closed-form moments
    written with r keep full relative accuracy at large m, where zeta(2, a)
    and the terms subtracted from it agree to all but a few digits.
    """
    head, a = _climb("zeta2_remainder", a, lambda a: 0.5 / (a * (a + 1.0)) ** 2)
    x = 1.0 / (a * a)
    return head + _polevl(x, _ZETA2_SERIES) / (a * a * a)


def log_minus_digamma(a: float) -> float:
    """log a - psi(a) for a > 0, without cancellation.

    For a >= 32 this is the Euler-Maclaurin series 1/(2a) +
    sum_k B_2k / (2k a^2k) through B_12.  Below, the recurrence
    f(a) = f(a+1) + 1/a - log(1 + 1/a), whose terms are all positive, climbs
    to the series."""
    head, a = _climb("log_minus_digamma", a,
                     lambda a: 1.0 / a - math.log1p(1.0 / a))
    x = 1.0 / (a * a)
    return head + 0.5 / a + _polevl(x, _LOG_DIGAMMA_SERIES) * x


def log_gamma_remainder(a: float) -> float:
    """mu(a) = log Gamma(a) - (a - 1/2) log a + a - log(2 pi)/2 for a > 0,
    without the cancellation of lgamma.

    For a >= 32 this is the Euler-Maclaurin series
    sum_k B_2k / (2k (2k-1) a^(2k-1)) through B_12.  Below, the recurrence
    mu(a) = mu(a+1) + (a + 1/2) log(1 + 1/a) - 1, whose terms are all
    positive, climbs to the series."""
    head, a = _climb("log_gamma_remainder", a,
                     lambda a: (a + 0.5) * math.log1p(1.0 / a) - 1.0)
    x = 1.0 / (a * a)
    return head + _polevl(x, _LOG_GAMMA_SERIES) / a


# ---------------------------------------------------------------------------
# Discretizations of the Gamma(shape) probability measure
# ---------------------------------------------------------------------------

_rule_cache: dict = {}
#: shapes per batched rule build: enough to spread the recurrence's
#: per-degree Python overhead, few enough to bound its working arrays
_RULE_BATCH = 64


def _jacobi_eigenvalues(d, e):
    """Ascending eigenvalues of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e (len(e) >= 1), by LAPACK dsterf, the
    routine scipy's eigh_tridiagonal(..., eigvals_only=True) reaches through
    dstevd, called without that wrapper's per-call validation."""
    from scipy.linalg.lapack import dsterf

    vals, info = dsterf(d, e)
    if info != 0:
        raise QuadratureConvergenceError(
            f"LAPACK dsterf returned info={info} for a {d.size}-node "
            f"Laguerre rule")
    return vals


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
    alphas = np.asarray(alphas, dtype=float)
    if n == 1:
        x = alphas[:, None] + 1.0
        return x, np.ones_like(x)
    k = np.arange(n)
    x = np.stack([_jacobi_eigenvalues(2.0 * k + alpha + 1.0,
                                      np.sqrt(k[1:] * (k[1:] + alpha)))
                  for alpha in alphas])
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


def gamma_discretization(shape: int, n: int, variant=("plain",)):
    """Nodes and weights approximating the Gamma(shape) probability measure.

    ``variant`` is ``("plain",)`` or ``("split",)`` (log-transform left piece
    on (0, 1], shifted Laguerre on [1, inf)), which returns 2n points and
    takes its Laguerre piece from the cached shape-1 plain rule.  Weights sum
    to 1 up to quadrature error.
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
        with np.errstate(divide="ignore"):  # log 0 where weights underflowed
            wr = np.exp(np.log(w0) + (shape - 1.0) * np.log1p(s) - 1.0 - lg)
        x = np.concatenate([ul, ur])
        w = np.concatenate([wl, wr])
    else:
        raise DomainError(f"unknown discretization variant {variant!r}")
    _rule_cache[key] = (x, w)
    return x, w


def _pick_variant(shape: int, log_singular_at_zero: bool):
    if log_singular_at_zero and shape <= SPLIT_MAX_SHAPE:
        return ("split",)
    return ("plain",)


def _validate_m(m) -> int:
    if not (isinstance(m, (int, np.integer)) and not isinstance(m, bool)
            and m >= 1):
        raise DomainError(f"m must be >= 1 and an integer, got {m!r}")
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


def gamma_expectation(f, m: int, *, log_singular_at_zero: bool = False) -> float:
    """E f(Z) for Z ~ Gamma(m), by adaptive generalized Gauss-Laguerre.

    ``f`` must be vectorized over numpy arrays and smooth on (0, inf).
    Integrable singularities at zero (e.g. log) are supported; pass
    ``log_singular_at_zero=True`` so the split discretization is used at
    small shape.

    Raises ``QuadratureConvergenceError`` (carrying the last two estimates)
    if an estimate is not finite, or if doubling reaches ``NODE_CAP`` without
    two successive estimates agreeing to ``ABS_TOL`` (relative to
    max(1, |estimate|)).
    """
    m = _validate_m(m)
    variant = _pick_variant(m, log_singular_at_zero)

    def estimate(n):
        x, w = gamma_discretization(m, n, variant)
        return float(np.dot(w, f(x)))

    return _adaptive(estimate, NODE_CAP, f"quadrature for m={m}")


def gamma_lag_expectations(f, m: int, *, log_singular_at_zero: bool = False):
    """[E f(Z_0) f(Z_j) for j = 1..m-1] for overlapping Gamma(m) block sums.

    Lag j splits Z_0 = A + B, Z_j = B + C with A, C ~ Gamma(j) independent
    and B ~ Gamma(m - j), so E f(Z_0) f(Z_j) = E_B[(E_A f(A+B))^2].  Each
    shape's variant is picked once, and the plain rules every lag starts
    from (sizes ``START_NODES`` and ``2 * START_NODES``) are built first,
    ``_RULE_BATCH`` uncached shapes a block.  A lag that fails raises
    ``QuadratureConvergenceError`` naming m and j, with its last two
    estimates.
    """
    m = _validate_m(m)
    variant = {s: _pick_variant(s, log_singular_at_zero) for s in range(1, m)}
    plain = [s for s in variant if variant[s] == ("plain",)]
    for n in (START_NODES, 2 * START_NODES):
        todo = [s for s in plain if (s, n, "plain") not in _rule_cache]
        for i in range(0, len(todo), _RULE_BATCH):
            chunk = todo[i:i + _RULE_BATCH]
            xs, ws = _laguerre_rules(n, [s - 1.0 for s in chunk])
            for s, x, w in zip(chunk, xs, ws):
                _rule_cache[(s, n, "plain")] = (x, w)

    def lag(j):
        def estimate(n):
            xb, wb = gamma_discretization(m - j, n, variant[m - j])
            xa, wa = gamma_discretization(j, n, variant[j])
            fa = f(xa[None, :] + xb[:, None]) @ wa
            return float(np.dot(wb, fa * fa))

        return _adaptive(estimate, JOINT_NODE_CAP,
                         f"joint quadrature for m={m}, j={j}")

    return [lag(j) for j in range(1, m)]

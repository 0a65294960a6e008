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
``normal_cdf``, ``normal_quantile`` and integer ``digamma`` are bit-for-bit
ports of Cephes ``ndtr`` (with its ``erf`` and ``erfc``), ``ndtri`` and
``psi`` (Moshier 1989, *Methods and Programs for Mathematical Functions*)
that perform scipy.special's float operations in the same order, so they
return scipy's bits without importing scipy.  scipy loads only where a
route needs it: LAPACK (``scipy.linalg``) for the Laguerre rules and the
split rule's log Gamma; elsewhere in the package, rao's ``gammainc`` and the
``CubicSpline`` of ``table:`` paths.
"""

from __future__ import annotations

import math

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
    """coef[0] x^N + ... + coef[N], by Horner from coef[0], for a float x
    or elementwise over an array."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: Horner with a leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


#: ndtri's rational approximations: P0/Q0 in the centre, P1/Q1 in the tail
#: while sqrt(-2 log p) < 8, P2/Q2 beyond
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
#: exp(-2), where the centre and tail approximations meet, and sqrt(2 pi)
_EXPM2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242


def normal_quantile(p: float) -> float:
    """Phi^{-1}(p), the standard normal quantile, for 0 <= p <= 1.

    Cephes ndtri, scalar, with math.log and math.sqrt: a rational function
    of p - 1/2 in the centre, and of 1/x with x = sqrt(-2 log p) in the
    tails (the upper tail by symmetry from 1 - p)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"normal quantile requires 0 <= p <= 1, got {p}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    y, lower = p, True
    if y > 1.0 - _EXPM2:
        y, lower = 1.0 - y, False
    if y > _EXPM2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if lower else x


#: erf's rational approximation T/U on |x| <= 1; erfc's P/Q on [1, 8) and
#: R/S beyond, each times exp(-x^2)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
#: log of the largest double: exp(-x^2) underflows to 0 past x^2 = MAXLOG
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 7.07106781186547524401E-1


def _erf_centre(x):
    """erf(x) for |x| <= 1: x T(x^2) / U(x^2)."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc_tail(x):
    """erfc(x) for x >= 1: exp(-x^2) P(x)/Q(x) below 8 and R(x)/S(x) from
    8, with libm's exp per element (numpy's exp differs in the last bit);
    0 where x^2 exceeds MAXLOG (or overflows), and NaN at NaN."""
    with np.errstate(over="ignore"):
        z = -(x * x)
    y = np.zeros_like(x)
    live = ~(z < -_MAXLOG)
    xl = x[live]
    e = np.fromiter(map(math.exp, z[live].tolist()), float, xl.size)
    near = xl < 8.0
    far = ~near
    e[near] *= _polevl(xl[near], _ERFC_P)
    e[near] /= _p1evl(xl[near], _ERFC_Q)
    e[far] *= _polevl(xl[far], _ERFC_R)
    e[far] /= _p1evl(xl[far], _ERFC_S)
    y[live] = e
    return y


def normal_cdf(a):
    """Phi(a), the standard normal CDF, of a float or an array of them.

    Cephes ndtr with Cephes erf/erfc: with x = a / sqrt(2), 1/2 + erf(x)/2
    for |x| < 1/sqrt(2) and erfc(|x|)/2 (reflected for x > 0) beyond, where
    erfc(x) = 1 - erf(x) below 1.  The float operations are scipy.special's,
    in the same order, so the result has scipy's bits.  A float in, a float
    out; NaN gives NaN."""
    arr = np.asarray(a, dtype=float)
    x = arr.ravel() * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    inner = z < 1.0
    xi, zi = x[inner], z[inner]
    centre = zi < _SQRT1_2
    e = _erf_centre(np.where(centre, xi, zi))
    y[inner] = np.where(centre, 0.5 + 0.5 * e, 0.5 * (1.0 - e))
    outer = ~inner
    y[outer] = 0.5 * _erfc_tail(z[outer])
    upper = x >= _SQRT1_2
    y[upper] = 1.0 - y[upper]
    return float(y[0]) if arr.ndim == 0 else y.reshape(arr.shape)


_EULER = 0.57721566490153286061
#: psi's asymptotic series in z = 1/x^2: B_2k / (2k) for k = 7 down to 1
_PSI_A = (8.33333333333333333333E-2, -2.10927960927960927961E-2,
          7.57575757575757575758E-3, -4.16666666666666666667E-3,
          3.96825396825396825397E-3, -8.33333333333333333333E-3,
          8.33333333333333333333E-2)


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x), at a positive integer x.

    Cephes psi: the harmonic sum minus Euler's constant up to 10, and
    log x - 1/(2x) - z A(z), z = 1/x^2, beyond (the series term is dropped
    from 1e17)."""
    if not (x > 0 and float(x).is_integer()):
        raise DomainError(f"digamma requires a positive integer x, got {x}")
    x = float(x)
    if x <= 10.0:
        y = 0.0
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    y = 0.0
    if x < 1e17:
        z = 1.0 / (x * x)
        y = z * _polevl(z, _PSI_A)
    return math.log(x) - 0.5 / x - y


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
    return head + _polevl(x, _ZETA2_SERIES) / (a * a * a)


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
    return head + 0.5 / a + _polevl(x, _LOG_DIGAMMA_SERIES) * x


def log_gamma_remainder(a: float) -> float:
    """mu(a) = log Gamma(a) - (a - 1/2) log a + a - log(2 pi)/2 for a > 0,
    without the cancellation of lgamma.

    For a >= 32 this is the Euler-Maclaurin series
    sum_k B_2k / (2k (2k-1) a^(2k-1)) through B_12.  Below, the recurrence
    mu(a) = mu(a+1) + (a + 1/2) log(1 + 1/a) - 1, whose terms are all
    positive, climbs to the series."""
    if not a > 0:
        raise DomainError(f"log_gamma_remainder requires a > 0, got {a}")
    a = float(a)
    head = 0.0
    while a < _REMAINDER_SERIES_MIN:
        head += (a + 0.5) * math.log1p(1.0 / a) - 1.0
        a += 1.0
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

"""Asymptotic moments, efficacies, critical points, and Pitman efficiencies.

Under the Gamma representation, every null moment of a spacings statistic is
an expectation against a Gamma(m) density.  The central quantities for a
tuning function h and order m are

* ``mean_h``: E h(Z), the per-term null mean,
* ``tau``: cov(h(Z), Z) / m, the slope of the affine part of h,
* ``sigma_star2``: var h(Z) - m tau^2, the variance scale of the disjoint
  statistic (equivalently var of the linearly corrected phi(Z)),
* ``sigma2``: var h(Z) + 2 sum_{j=1}^{m-1} cov(h(Z_0), h(Z_j)) - m^2 tau^2,
  the variance scale of the overlapping statistic (empty sum at m = 1),
* ``mu``: the correlation between phi(Z) and the centered quadratic
  (Z - m)^2 - 2(Z - m), whose variance is exactly 2m(m+1).  mu^2 <= 1 with
  equality exactly for quadratic h, and mu governs both efficacies:
  overlapping e^2 = (m+1) sigma*^2 mu^2 / (2 sigma^2), disjoint
  e*^2 = (m+1) mu^2 / (2m).

``moments(h, m)`` returns them together as a ``MomentSet``.  It picks one
route from h alone:

* the zeta-function closed forms for moran and entropy (and for pd:-1 and
  pd:0, which are the same functions);
* for a power form h = A x^a + B (greenwood, integer-index power
  divergence), the Lancaster expansion of the lagged pair (Z_0, Z_j) in
  the Laguerre polynomials of Gamma(m), a finite series in exact rationals
  (``_power_series``);
* for rao, h(x) = |x - m|, closed forms for all but sigma^2 and the same
  Lancaster expansion for the lag sum, a 1-D series in floating point
  (``_rao_moment_set``);
* quadrature otherwise, which batch-builds the plain Laguerre rules its
  lags start from before it runs them.

The first two are tagged closed_form, rao's series is tagged series, and
all three stay cheap at any m; the last is tagged quadrature.  Both series
routes hand their sums to ``_series_moment_set``.  ``efficacy`` and all
downstream read only the ``MomentSet``.

These are the moments of the by-n statistic.  ``standardization``,
``critical_point`` and ``shifted_mean`` take the statistic's
``SpacingsPlan`` and map them through h(x/m) = alpha h + beta x + gamma
for normalized scaling, so no scaling adds a route.

Note on the entropy closed forms: a commonly reproduced display has
sigma*^2 = m(m+1) zeta(2, m) - m, which disagrees with direct quadrature
already at m = 1 (where sigma*^2 must equal sigma^2).  The forms used here
shift the zeta argument (the tests check them against quadrature):
sigma*^2 = m(m+1) zeta(2, m+1) - m and
sigma^2 = (m(m+1))^2/2 zeta(2, m+2) - m(m+1)(2m-1)/4.

Evaluated as written, the moran and entropy forms lose digits to
cancellation at large m (relative error 1e-4 at m = 1e6).  They are
evaluated instead through r(a) = zeta(2, a) - 1/a - 1/(2a^2):
moran sigma*^2 = 1/(2m^2) + r(m), sigma^2 = 1/(2m^2) + (2m^2-2m+1) r(m);
entropy sigma*^2 = m/(2(m+1)) + m(m+1) r(m+1),
sigma^2 = m(m+1)(m+4)/(4(m+2)^2) + (m(m+1))^2/2 r(m+2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    InternalConsistencyError,
    QuadratureConvergenceError,
    UnsupportedLimitError,
)
from .special_math import (
    _validate_m,
    digamma,
    gamma_expectation,
    gamma_joint_expectation,
    log_gamma_remainder,
    log_minus_digamma,
    normal_quantile,
    prefetch_joint_rules,
    zeta2_remainder,
)
from .serialize import Record
from .spacings import SpacingsPlan
from .tuning import PD_LIMIT_BAND, TuningFunction

_MU_TOL = 1e-12
_CRESSIE_TOL = 1e-9
#: the quadrature route's sigma*^2 counts as zero within this many ulps of
#: E h^2; affine h leaves at most about 50 (m from 1 to 30000)
_STAR_ULPS = 256


@dataclass(frozen=True)
class MomentSet(Record):
    """All (h, m) moment quantities with a provenance tag."""

    m: int
    h_name: str
    mean_h: float
    tau: float
    sigma2: float
    sigma_star2: float
    mu: float
    source: str

    def __post_init__(self):
        for name in ("mean_h", "tau", "sigma2", "sigma_star2", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise InternalConsistencyError(
                    f"{name} = {getattr(self, name)} is not finite in "
                    f"MomentSet({self.h_name}, m={self.m})")
        if self.sigma2 < 0 or self.sigma_star2 < 0:
            raise InternalConsistencyError(
                f"negative variance in MomentSet({self.h_name}, m={self.m})")
        if self.mu * self.mu > 1.0 + _MU_TOL:
            raise InternalConsistencyError(
                f"mu^2 = {self.mu ** 2} > 1 for {self.h_name}, m={self.m}")
        lhs = self.m * self.sigma_star2
        if lhs < self.sigma2 * (1.0 - _CRESSIE_TOL) - _CRESSIE_TOL:
            raise InternalConsistencyError(
                f"m sigma*^2 = {lhs} < sigma^2 = {self.sigma2} "
                f"for {self.h_name}, m={self.m}")


_cache: dict = {}


def clear_moment_cache():
    _cache.clear()


# ---------------------------------------------------------------------------
# Lancaster series: exact rationals for power forms, floats for rao
# ---------------------------------------------------------------------------

def _power_series(power, m: int):
    """Exact (mean, tau, sigma*^2, lag, c_2^2) of h = A x^a + B, integer
    a >= 2, under Z ~ Gamma(m).

    The Lancaster expansion of the lagged pair (Z_0, Z_j) has the orthonormal
    Laguerre polynomials p_k of Gamma(m) as canonical variables with
    correlations (m-j)_k / (m)_k.  With g = (m)_a, c_k = E h(Z) p_k(Z) has
    c_k^2 = A^2 g^2 ((-a)_k)^2 / (k! (m)_k), zero past k = a; c_1^2 is
    m tau^2, sigma*^2 = sum_{k>=2} c_k^2 and lag = sum_{k>=2} c_k^2 / (k+1)."""
    A, a, B = power
    g = math.prod(range(m, m + a))
    c2 = [Fraction(A * g * a) ** 2 / m]
    for k in range(2, a + 1):
        c2.append(c2[-1] * (k - 1 - a) ** 2 / (k * (m + k - 1)))
    lag = sum(c / (k + 1) for k, c in enumerate(c2[1:], 2))
    return A * g + B, A * g * a / m, sum(c2[1:]), lag, c2[1]


def _series_moment_set(h: TuningFunction, m: int, mean, tau, star, lag, c22,
                       sign: float, source: str) -> MomentSet:
    """The MomentSet of h from its Lancaster coefficients c_k under Gamma(m):
    mean, tau, sigma*^2 = sum_{k>=2} c_k^2, lag = sum_{k>=2} c_k^2 / (k+1)
    and c_2^2.  Summing the correlations (m-j)_k / (m)_k over the lags
    j = 1..m-1 gives sigma^2 = sigma*^2 + (2m - 2) lag, and
    mu = sign sqrt(c_2^2 / sigma*^2).  Exact rationals are rounded once, at
    the end; a value past the float range is a DomainError."""
    try:
        mean, tau, sig, star, mu2 = (float(v) for v in (
            mean, tau, star + (2 * m - 2) * lag, star, c22 / star))
    except OverflowError:
        raise DomainError(f"moments of {h.name} at m={m} exceed the "
                          f"floating-point range") from None
    return MomentSet(m=m, h_name=h.name, mean_h=mean, tau=tau, sigma2=sig,
                     sigma_star2=star, mu=math.copysign(math.sqrt(mu2), sign),
                     source=source)


#: terms of rao's Laguerre series; the partial sum at a tenth of them is the
#: second point of its Richardson step
_RAO_TERMS = 10_000


def _rao_moment_set(h: TuningFunction, m: int) -> MomentSet:
    """Moments of rao, h(x) = |x - m| at order m, from its Laguerre series.

    With D = m^(m+1) e^-m / Gamma(m) = m sqrt(m / 2pi) e^-mu(m), mu the
    Stirling remainder: E h = 2D/m; tau = 1 - 2 P(m+1, m) by Stein's
    identity E[(Z - m) f(Z)] = E[Z f'(Z)]; sigma*^2 = m - (E h)^2 - m tau^2.
    Two integrations by parts of Rodrigues' formula give c_k = 2 D g_k /
    (k (k-1)), k >= 2, g_k = L_(k-2)^(m+1)(m) sqrt(k! / (m)_k), and
    ``_series_moment_set`` assembles mu and sigma^2 from c_2^2 and
    lag = sum_k c_k^2 / (k+1).  g_k runs through the Laguerre recurrence
    rescaled by rho_n = sqrt((n+3)/(m+n+2)), which cannot overflow.  The
    terms fall like k^-3.5: the sum stops at k = _RAO_TERMS, and one
    Richardson step (exponent 2.5) against the partial sum at a tenth of
    that removes most of the tail.
    """
    if h.m != m:
        raise DomainError(f"{h.name} is |x - {h.m}|; its moments are known "
                          f"only at order m = {h.m}, not at m = {m}")
    from scipy.special import gammainc

    d = m * math.sqrt(m / (2.0 * math.pi)) * math.exp(-log_gamma_remainder(m))
    mean = 2.0 * d / m
    tau = 1.0 - 2.0 * float(gammainc(m + 1.0, m))
    star = m - mean * mean - m * tau * tau
    g, rho = [0.0, math.sqrt(2.0 / (m * (m + 1.0)))], 0.0  # g[n+1] = g_(n+2)
    for n in range(_RAO_TERMS - 2):
        r = math.sqrt((n + 3.0) / (m + n + 2.0))
        g.append(r * (2.0 * g[-1] - (n + m + 1.0) / (n + 1.0) * rho * g[-2]))
        rho = r
    k = np.arange(2.0, _RAO_TERMS + 1)
    t = np.square(g[1:]) / (k * k * (k - 1.0) ** 2 * (k + 1.0))
    head = math.fsum(t[:_RAO_TERMS // 10 - 1])
    s = head + math.fsum(t[_RAO_TERMS // 10 - 1:])
    s += (s - head) / (10.0 ** 2.5 - 1.0)
    return _series_moment_set(h, m, mean, tau, star, 4.0 * d * d * s,
                              2.0 * d * d / (m * (m + 1.0)), 1.0, "series")


# ---------------------------------------------------------------------------
# Closed forms for the named families
# ---------------------------------------------------------------------------

def _closed_moment_set(family: str, m: int, name: str) -> MomentSet:
    # zeta(2, a) = 1/a + 1/(2a^2) + r(a): the forms below are the textbook
    # zeta forms with the leading terms cancelled by hand, so no two large
    # terms cancel in floating point at large m
    if family == "moran":
        r = zeta2_remainder(m)
        star = 0.5 / (m * m) + r
        # equals sigma*^2 exactly at m = 1, where the lag sum is empty
        sig = 0.5 / (m * m) + (2.0 * m * m - 2.0 * m + 1.0) * r
        mu = 1.0 / math.sqrt(star * 2.0 * m * (m + 1))
        return MomentSet(m=m, h_name=name, mean_h=-digamma(m), tau=-1.0 / m,
                         sigma2=sig, sigma_star2=star, mu=mu, source="closed_form")
    mm = m * (m + 1.0)  # entropy
    star = m / (2.0 * (m + 1.0)) + mm * zeta2_remainder(m + 1)
    sig = star if m == 1 else \
        mm * (m + 4.0) / (4.0 * (m + 2.0) ** 2) \
        + mm * mm / 2.0 * zeta2_remainder(m + 2)
    mu = m / math.sqrt(star * 2.0 * m * (m + 1))
    return MomentSet(m=m, h_name=name, mean_h=m * digamma(m + 1),
                     tau=digamma(m + 1) + 1.0, sigma2=sig, sigma_star2=star,
                     mu=mu, source="closed_form")


# ---------------------------------------------------------------------------
# Generic quadrature route
# ---------------------------------------------------------------------------

def _expect(h: TuningFunction, f, m: int) -> float:
    return gamma_expectation(f, m, log_singular_at_zero=h.log_singular_at_zero)


def _quadrature_moment_set(h: TuningFunction, m: int) -> MomentSet:
    hv = h.eval_fn
    e1 = _expect(h, hv, m)
    e2 = _expect(h, lambda u: hv(u) ** 2, m)
    ez = _expect(h, lambda u: hv(u) * u, m)
    mq = _expect(h, lambda u: hv(u) * (u - m) ** 2, m)
    var = e2 - e1 * e1
    tau = (ez - e1 * m) / m
    star = var - m * tau * tau
    # var h - m tau^2 cancels E h^2 down to its roundoff when h is affine in
    # the Gamma(m) bulk; mu divides by sigma*, so such h is refused before
    # any lag quadrature runs, and a sigma*^2 further below zero is a
    # quadrature failure
    tol = _STAR_ULPS * sys.float_info.epsilon * e2
    if star < -tol:
        raise InternalConsistencyError(
            f"sigma*^2 = {star} < 0 beyond roundoff for {h.name}, m={m}")
    if star <= tol:
        raise DomainError(f"sigma*^2 = {star:.3g} is zero to roundoff of "
                          f"E h^2 = {e2:.3g} for {h.name}, m={m}: mu is "
                          f"undefined (affine h?)")
    prefetch_joint_rules(m, log_singular_at_zero=h.log_singular_at_zero)
    lag = 0.0
    for j in range(1, m):
        try:
            joint = gamma_joint_expectation(
                hv, m, j, log_singular_at_zero=h.log_singular_at_zero)
        except QuadratureConvergenceError as exc:
            raise QuadratureConvergenceError(
                f"lag-{j} covariance failed for {h.name}, m={m}: {exc}",
                last_estimates=exc.last_estimates) from exc
        lag += joint - e1 * e1
    sig = var + 2.0 * lag - m * m * tau * tau if m > 1 else star
    if sig < 0:
        if sig < -1e-9 * max(1.0, var):
            raise InternalConsistencyError(
                f"sigma^2 = {sig} < 0 beyond roundoff for {h.name}, m={m}")
        sig = 0.0
    covq = mq - e1 * m - 2.0 * m * tau  # cov(phi, centered quadratic)
    mu = covq / math.sqrt(star * 2.0 * m * (m + 1))
    if mu * mu > 1.0:
        mu = math.copysign(min(abs(mu), math.sqrt(1.0 + _MU_TOL / 2)), mu)
    return MomentSet(m=m, h_name=h.name, mean_h=e1, tau=tau, sigma2=sig,
                     sigma_star2=star, mu=mu, source="quadrature")


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

#: the families with zeta-function closed forms; pd:0 and pd:-1 are members
_ZETA_FAMILIES = ("moran", "entropy")


def moments(h: TuningFunction, m: int) -> MomentSet:
    """MomentSet for (h, m), memoized.

    The route follows from h: the closed forms for moran and entropy (and
    pd:-1, pd:0, which are those functions), the exact Laguerre series for a
    power form, the Laguerre series of rao (only at the order its h is built
    for), quadrature otherwise.  ``m`` must be a positive integer.
    """
    m = _validate_m(m)
    key = (h.cache_key, m)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    if h.family in _ZETA_FAMILIES:
        ms = _closed_moment_set(h.family, m, h.name)
    elif h.power is not None:
        ms = _series_moment_set(h, m, *_power_series(h.power, m),
                                h.power[0], "closed_form")
    elif h.family == "rao":
        ms = _rao_moment_set(h, m)
    else:
        ms = _quadrature_moment_set(h, m)
    _cache[key] = ms
    return ms


# ---------------------------------------------------------------------------
# Efficacy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfficacyResult(Record):
    h_name: str
    m: int
    mode: str
    e2: float
    mu2: float
    sigma2: float
    sigma_star2: float
    source: str


def efficacy(h: TuningFunction, m: int, mode: str) -> EfficacyResult:
    """Squared efficacy of the (h, m) test, from ``moments(h, m)`` alone,
    whichever route built it.

    overlapping: (m+1) sigma*^2 mu^2 / (2 sigma^2);
    disjoint:    (m+1) mu^2 / (2m)."""
    if mode not in ("overlapping", "disjoint"):
        raise DomainError(f"mode must be overlapping|disjoint, got {mode!r}")
    ms = moments(h, m)
    if ms.sigma2 <= 0:
        raise DomainError(f"sigma^2 = 0 for {h.name}, m={m}")
    mu2 = ms.mu * ms.mu
    if mode == "overlapping":
        e2 = (m + 1.0) * ms.sigma_star2 * mu2 / (2.0 * ms.sigma2)
    else:
        e2 = (m + 1.0) * mu2 / (2.0 * m)
    return EfficacyResult(h_name=h.name, m=m, mode=mode, e2=e2, mu2=mu2,
                          sigma2=ms.sigma2, sigma_star2=ms.sigma_star2,
                          source=ms.source)


# ---------------------------------------------------------------------------
# Critical points and power
# ---------------------------------------------------------------------------

def upper_quantile(alpha: float) -> float:
    """u_alpha = Phi^{-1}(1 - alpha)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    return normal_quantile(1.0 - alpha)


def normal_cdf(x: float) -> float:
    from scipy.special import ndtr

    return float(ndtr(x))


def _normalized_map(h: TuningFunction, m: int):
    """(alpha, beta, gamma) with h(x/m) = alpha h(x) + beta x + gamma, for
    every builtin but rao; DomainError otherwise."""
    lm = math.log(m)
    if h.family == "moran":
        return 1.0, 0.0, lm
    if h.family == "entropy":
        return 1.0 / m, -lm / m, 0.0
    if h.family == "greenwood":
        return 1.0 / (m * m), 0.0, 0.0
    if h.family != "power_divergence":
        raise DomainError(
            f"--scaling normalized is not defined for {h.name}: "
            + ("h(x/m) would move its kink from x = m to x = m^2"
               if h.family == "rao" else
               "h(x/m) is not an affine image alpha h + beta x + gamma"))
    d = h.d
    a = d + 1.0
    if abs(d) < PD_LIMIT_BAND:
        # the zero-anchored representative: the raw form less (x-1)(1-d)/d
        return (math.exp(-a * lm), (1.0 - d) / d * math.expm1(-d * lm) / m,
                math.expm1(-a * lm) * d / (1.0 + d))
    return math.exp(-a * lm), 0.0, math.expm1(-a * lm) / (d * a)


def _null_terms(h: TuningFunction, plan: SpacingsPlan, n: int):
    """(per-term null mean, alpha, moments(h, m)) of the statistic ``plan``
    builds from h at sample size n.  A normalized statistic applies
    h(x/m) = alpha h(x) + beta x + gamma to n D: alpha > 0 times the by-n
    statistic plus a constant, so its mean maps affinely (moran and entropy
    via log m - psi(m), free of cancellation), its scale is alpha times the
    by-n scale, and mu and the efficacies are those of h.  The map is looked
    up first, so rao or a non-builtin h is refused before any moment."""
    plan.validate_for(n)
    m = plan.m
    if plan.scaling == "by_n":
        ms = moments(h, m)
        return ms.mean_h, 1.0, ms
    alpha, beta, gamma = _normalized_map(h, m)
    ms = moments(h, m)
    if h.family not in _ZETA_FAMILIES:
        mean = alpha * ms.mean_h + beta * m + gamma
    else:
        r = log_minus_digamma(m)
        mean = r if h.family == "moran" else (1.0 - m * r) / m
    return mean, alpha, ms


def standardization(h: TuningFunction, plan: SpacingsPlan, n: int):
    """(center, scale) such that (V - center)/scale is asymptotically
    standard normal under the null, V the statistic ``plan`` builds from h
    at sample size n."""
    mean, alpha, ms = _null_terms(h, plan, n)
    if plan.mode == "overlapping":
        count, var = n, ms.sigma2
    else:
        count, var = n // plan.m, ms.sigma_star2
    return count * mean, math.sqrt(alpha * alpha * var * count)


def critical_point(h: TuningFunction, plan: SpacingsPlan, n: int,
                   alpha: float) -> float:
    """Size-alpha critical value of the one-sided (large-values) test:
    u_alpha * scale + center under the null standardization."""
    center, scale = standardization(h, plan, n)
    return upper_quantile(alpha) * scale + center


def shifted_mean(h: TuningFunction, plan: SpacingsPlan, n: int,
                 l2norm2: float) -> float:
    """Per-term mean under the contamination alternative:
    E h + sigma* sqrt(m+1) mu ||l||_2^2 / sqrt(2n), mapped to the plan's
    scaling."""
    mean, alpha, ms = _null_terms(h, plan, n)
    return mean + alpha * math.sqrt(ms.sigma_star2) * math.sqrt(plan.m + 1.0) \
        * ms.mu * l2norm2 / math.sqrt(2.0 * n)


def predicted_power(e2: float, l2norm2: float, alpha: float) -> float:
    """Asymptotic power Phi(e ||l||_2^2 - u_alpha) of a size-alpha test with
    squared efficacy e2 against the contamination path of squared norm
    l2norm2."""
    if e2 < 0:
        raise DomainError(f"e2 must be >= 0, got {e2}")
    return normal_cdf(math.sqrt(e2) * l2norm2 - upper_quantile(alpha))


# ---------------------------------------------------------------------------
# Pitman asymptotic relative efficiency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestSpec:
    h: TuningFunction
    m: int
    mode: str = "overlapping"

    def __post_init__(self):
        SpacingsPlan(self.m, self.mode)  # refuses m < 1 and an unknown mode


@dataclass(frozen=True)
class GrowthRegime:
    """m = c * n^p with 0 < p < 1, c > 0."""

    c: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0 and 0.0 < self.p < 1.0):
            raise DomainError(f"regime needs finite c > 0 and p in (0, 1), "
                              f"got c={self.c}, p={self.p}")


@dataclass(frozen=True)
class AreResult(Record):
    value: float  # may be 0.0 or inf for regime queries
    kind: str  # "finite" | "regime"
    description: str


_PD_EQUIVALENT = ("greenwood", "moran", "entropy", "power_divergence")
#: e^2 as m -> infinity of every power-divergence member, by mode
_E2_LIMIT = {"overlapping": 0.75, "disjoint": 0.5}


def pitman_are(spec1: TestSpec, spec2: TestSpec,
               regime1: GrowthRegime | None = None,
               regime2: GrowthRegime | None = None) -> AreResult:
    """Pitman ARE of test 1 with respect to test 2: the limiting ratio of
    sample sizes test 2 needs to match test 1's power at equal size.

    With both orders finite the value is m1 e1^2 / (m2 e2^2).  With growth
    regimes m_i = c_i n^{p_i} supplied, the known limits for the
    power-divergence family apply: 0 if p1 < p2, infinity if p1 > p2, and for
    p1 = p2 the ratio c1/c2 times the ratio of the two modes' limiting
    efficacies _E2_LIMIT (3/2 when test 1 overlaps and test 2 is disjoint,
    2/3 for the reverse, 1 for equal modes).  At p1 = p2 a ratio that
    overflows or falls below the normal float range is refused, so a
    reported 0 is always the p1 < p2 limit."""
    if (regime1 is None) != (regime2 is None):
        raise DomainError("supply growth regimes for both tests or neither")
    if regime1 is None:
        e1 = efficacy(spec1.h, spec1.m, spec1.mode)
        e2 = efficacy(spec2.h, spec2.m, spec2.mode)
        if e2.e2 == 0:
            raise DomainError("second test has zero efficacy")
        val = (spec1.m * e1.e2) / (spec2.m * e2.e2)
        return AreResult(val, "finite",
                         f"m1 e1^2 / (m2 e2^2) at m1={spec1.m}, m2={spec2.m}")
    for s in (spec1, spec2):
        if s.h.family not in _PD_EQUIVALENT:
            raise UnsupportedLimitError(
                f"growth-regime limits are only known for the power-divergence "
                f"family; {s.h.name} is not a member")
    if regime1.p < regime2.p:
        return AreResult(0.0, "regime", f"p1={regime1.p} < p2={regime2.p}")
    if regime1.p > regime2.p:
        return AreResult(math.inf, "regime", f"p1={regime1.p} > p2={regime2.p}")
    factor = _E2_LIMIT[spec1.mode] / _E2_LIMIT[spec2.mode]
    value = factor * (regime1.c / regime2.c)
    if value == math.inf:
        raise DomainError(f"c1/c2 = {regime1.c:g}/{regime2.c:g} overflows")
    if value < sys.float_info.min:
        raise DomainError(f"c1/c2 = {regime1.c:g}/{regime2.c:g} underflows")
    return AreResult(value, "regime",
                     f"p1=p2={regime1.p}: (c1/c2) * {factor:g}")


# ---------------------------------------------------------------------------
# CLT condition diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CltConditionReport:
    """Both normalizations of the Lyapunov-type CLT condition ratio.

    Two inconsistent displays of this condition circulate: one divides by
    sigma^(r/2), the other (dimensionally consistent, from the general
    m-dependent-sum CLT) by sigma^r.  Neither is trusted as *the* condition;
    both are reported and only relative trends in n or m are meaningful.
    """

    ratio_sigma_half_power: float
    ratio_sigma_full_power: float
    e_abs_r: float
    e_abs_r_se: float
    r: float
    mode: str


def clt_condition_ratio(h: TuningFunction, m: int, n: int, r: float,
                        mode: str = "overlapping", reps: int = 200_000,
                        seed: int = 20240 * 31) -> CltConditionReport:
    """Monte Carlo diagnostic of the CLT moment condition.

    Overlapping mode estimates E|g|^r with g(Z) = h(Z) - Eh - (Y_0 - 1) m tau
    over joint draws of (Y_0, Z = Y_0 + Gamma(m-1)) and reports
    m^(r-1) E|g|^r / (sigma^q n^((r-2)/2)) for q in {r/2, r}.  Disjoint mode
    uses phi(Z) = h(Z) - Eh - (Z - m) tau, sigma* and N = n/m."""
    if not 2.0 < r <= 6.0:
        raise DomainError(f"r must be in (2, 6], got {r}")
    if mode not in ("overlapping", "disjoint"):
        raise DomainError(f"bad mode {mode!r}")
    ms = moments(h, m)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    if mode == "overlapping":
        y0 = rng.standard_exponential(reps)
        z = y0 + (rng.standard_gamma(m - 1, size=reps) if m > 1 else 0.0)
        g = h.eval_fn(z) - ms.mean_h - (y0 - 1.0) * m * ms.tau
        sig = math.sqrt(ms.sigma2)
        count = n
        lead = float(m) ** (r - 1.0)
    else:
        if n % m:
            raise DomainError(f"disjoint mode needs m | n (m={m}, n={n})")
        z = rng.standard_gamma(m, size=reps)
        g = h.eval_fn(z) - ms.mean_h - (z - m) * ms.tau
        sig = math.sqrt(ms.sigma_star2)
        count = n // m
        lead = 1.0
    a = np.abs(g) ** r
    e_abs = float(a.mean())
    se = float(a.std(ddof=1) / math.sqrt(reps))
    denom_n = float(count) ** ((r - 2.0) / 2.0)
    return CltConditionReport(
        ratio_sigma_half_power=lead * e_abs / (sig ** (r / 2.0) * denom_n),
        ratio_sigma_full_power=lead * e_abs / (sig ** r * denom_n),
        e_abs_r=e_abs, e_abs_r_se=se, r=r, mode=mode,
    )

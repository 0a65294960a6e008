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
route from h alone: the zeta-function closed forms for moran and entropy
(and for pd:-1 and pd:0, which are the same functions), exact rational
algebra for polynomial h (greenwood, integer-index power divergence),
quadrature otherwise.  The first two are tagged closed_form, the last
quadrature.  The exact route needs no lagged quadrature at all, so
polynomial h stays cheap at any m.  The quadrature route batch-builds the
plain Laguerre rules its lags start from before it runs them.

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
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtr, ndtri

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
    prefetch_joint_rules,
    zeta2_remainder,
)
from .serialize import Record
from .tuning import TuningFunction, scale_argument

_MU_TOL = 1e-12
_CRESSIE_TOL = 1e-9


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
# Exact rational route for polynomial tuning functions
# ---------------------------------------------------------------------------

def _rising(s: int, p: int) -> int:
    out = 1
    for i in range(p):
        out *= s + i
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_expect(c, m: int) -> int:
    return sum(ck * _rising(m, k) for k, ck in enumerate(c) if ck)


def _poly_joint(c, m: int, j: int) -> int:
    """E[c(Z_0) c(Z_j)] at lag j, exactly.

    With Z_0 = A + B, Z_j = B + C (A, C ~ Gamma(j), B ~ Gamma(m - j)), the
    conditional mean E[c(A + b)] = sum_i a_i b^i, so the joint moment is
    sum_{i,t} a_i a_t E B^(i+t)."""
    deg = len(c) - 1
    ra = [_rising(j, p) for p in range(deg + 1)]
    rb = [_rising(m - j, p) for p in range(2 * deg + 1)]
    a = [sum(c[k] * math.comb(k, i) * ra[k - i] for k in range(i, deg + 1))
         for i in range(deg + 1)]
    return sum(ai * at * rb[i + t] for i, ai in enumerate(a) if ai
               for t, at in enumerate(a) if at)


def _poly_lag_sum(c, m: int) -> int:
    """sum_{j=1}^{m-1} E[c(Z_0) c(Z_j)], exactly and in O(1) lags.

    The joint moment is a polynomial P in j of degree at most 2 deg c, so
    sum_{j=1}^{N} P(j) = sum_k Delta^k P(1) C(N, k+1) needs only its forward
    differences at j = 1, ..., min(2 deg c + 1, N); the terms past N carry
    C(N, k+1) = 0."""
    lags = min(2 * len(c) - 1, m - 1)
    vals = [_poly_joint(c, m, j) for j in range(1, lags + 1)]
    tot = 0
    for k in range(len(vals)):
        tot += vals[0] * math.comb(m - 1, k + 1)
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return tot


def _poly_integer(h: TuningFunction):
    """(ic, den) with integer coefficients ic = den * h.poly."""
    den = 1
    for p in h.poly:
        den = den * p.denominator // math.gcd(den, p.denominator)
    return [int(p * den) for p in h.poly], den


def _poly_cov_quadratic(c, m: int) -> int:
    """cov(c(Z), (Z-m-1)^2) for Z ~ Gamma(m), exactly; E(Z-m-1)^2 = m+1.

    This equals cov(phi, (Z-m)^2 - 2(Z-m)), the numerator of mu."""
    return _poly_expect(_poly_mul(c, [(m + 1) ** 2, -2 * (m + 1), 1]), m) \
        - _poly_expect(c, m) * (m + 1)


def _exact_float(q, h: TuningFunction, m: int) -> float:
    """float(q) of an exact rational, or DomainError past the float range."""
    try:
        return float(q)
    except OverflowError:
        raise DomainError(f"moments of {h.name} at m={m} exceed the "
                          f"floating-point range") from None


def _poly_moment_set(h: TuningFunction, m: int) -> MomentSet:
    """Exact rational moments for polynomial h (no quadrature error at all).

    sigma*^2 is converted before the lag sum, whose cost grows like deg^3:
    where it is past the float range the route stops at once."""
    ic, den = _poly_integer(h)

    e1 = _poly_expect(ic, m)
    e2 = _poly_expect(_poly_mul(ic, ic), m)
    ez = _poly_expect(_poly_mul(ic, [0, 1]), m)
    var = e2 - e1 * e1
    tau = Fraction(ez - e1 * m, m)
    star = var - m * tau * tau
    sigma_star2 = _exact_float(Fraction(star, den * den), h, m)
    lag = _poly_lag_sum(ic, m) - (m - 1) * e1 * e1
    sig = var + 2 * lag - m * m * tau * tau
    num = _poly_cov_quadratic(ic, m)
    mu2 = Fraction(num * num, 2 * m * (m + 1)) / star if star else Fraction(0)
    mu = math.sqrt(_exact_float(mu2, h, m))
    if num < 0:
        mu = -mu
    return MomentSet(
        m=m, h_name=h.name,
        mean_h=_exact_float(Fraction(e1, den), h, m),
        tau=_exact_float(tau / den, h, m),
        sigma2=_exact_float(Fraction(sig, den * den), h, m),
        sigma_star2=sigma_star2, mu=mu, source="closed_form",
    )


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
    return gamma_expectation(
        f, m, log_singular_at_zero=h.log_singular_at_zero, kink=h.kink)


def _quadrature_moment_set(h: TuningFunction, m: int) -> MomentSet:
    hv = h.eval_fn
    e1 = _expect(h, hv, m)
    e2 = _expect(h, lambda u: hv(u) ** 2, m)
    ez = _expect(h, lambda u: hv(u) * u, m)
    mq = _expect(h, lambda u: hv(u) * (u - m) ** 2, m)
    var = e2 - e1 * e1
    tau = (ez - e1 * m) / m
    star = var - m * tau * tau
    if star < 0:
        if star < -1e-9 * max(1.0, var):
            raise InternalConsistencyError(
                f"sigma*^2 = {star} < 0 beyond roundoff for {h.name}, m={m}")
        warnings.warn(f"clipping tiny negative sigma*^2 = {star} to 0 "
                      f"({h.name}, m={m})")
        star = 0.0
    prefetch_joint_rules(m, log_singular_at_zero=h.log_singular_at_zero,
                         inner_mean=h.inner_mean, outer_kink=h.kink)
    lag = 0.0
    for j in range(1, m):
        try:
            joint = gamma_joint_expectation(
                hv, m, j, log_singular_at_zero=h.log_singular_at_zero,
                inner_mean=h.inner_mean, outer_kink=h.kink)
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
    if star == 0.0:
        raise DomainError(f"mu undefined: sigma*^2 = 0 for {h.name}, m={m} "
                          f"(affine h?)")
    mu = covq / math.sqrt(star * 2.0 * m * (m + 1))
    if mu * mu > 1.0:
        mu = math.copysign(min(abs(mu), math.sqrt(1.0 + _MU_TOL / 2)), mu)
    return MomentSet(m=m, h_name=h.name, mean_h=e1, tau=tau, sigma2=sig,
                     sigma_star2=star, mu=mu, source="quadrature")


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

_ZETA_FAMILIES = ("moran", "entropy")
#: power-divergence members that evaluate through the entropy and moran
#: functions themselves (psi_0 = x log x, psi_(-1) = -log x)
_PD_ZETA = {0.0: "entropy", -1.0: "moran"}


def _zeta_family(h: TuningFunction) -> str | None:
    """The closed-form family whose moments h has, if any."""
    if h.derived:
        return None
    if h.family in _ZETA_FAMILIES:
        return h.family
    if h.family == "power_divergence":
        return _PD_ZETA.get(h.d)
    return None


def moments(h: TuningFunction, m: int, source: str = "auto") -> MomentSet:
    """MomentSet for (h, m), memoized.

    ``source="auto"`` picks the route from h: the closed forms for moran and
    entropy (and pd:-1, pd:0, which are those functions), exact rational
    algebra for polynomial h, quadrature otherwise.  ``source="quadrature"``
    forces quadrature, the reference route.  ``m`` must be a positive
    integer.
    """
    m = _validate_m(m)
    if source not in ("auto", "quadrature"):
        raise DomainError(f"source must be auto|quadrature, got {source!r}")
    key = (h.cache_key, m, source)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    family = _zeta_family(h) if source == "auto" else None
    if family is not None:
        ms = _closed_moment_set(family, m, h.name)
    elif source == "auto" and h.poly is not None:
        ms = _poly_moment_set(h, m)
    else:
        ms = _quadrature_moment_set(h, m)
    _cache[key] = ms
    return ms


def shifted_mean(h: TuningFunction, m: int, n: int, l2norm2: float) -> float:
    """Per-term mean under the contamination alternative:
    E h + sigma* sqrt(m+1) mu ||l||_2^2 / sqrt(2n)."""
    if not n > m:
        raise DomainError(f"need n > m, got n={n}, m={m}")
    ms = moments(h, m)
    return ms.mean_h + math.sqrt(ms.sigma_star2) * math.sqrt(m + 1.0) \
        * ms.mu * l2norm2 / math.sqrt(2.0 * n)


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
    """Squared efficacy of the (h, m) test.

    overlapping: (m+1) sigma*^2 mu^2 / (2 sigma^2);
    disjoint:    (m+1) mu^2 / (2m).

    On the quadrature route the covariance form
    cov^2(h(Z), (Z-m-1)^2) / (4 m sigma^2) (resp. / (4 m^2 sigma*^2)) must
    agree to 1e-8 relative, else an internal-consistency error is raised.
    Its covariance is one quadrature of the centred product
    (h(Z) - E h) ((Z-m-1)^2 - (m+1)), independent of the uncentred moment mu
    is built from.  Both forms share sigma^2 (resp. sigma*^2), so the check
    covers mu, not the variance scale.  The closed-form and exact routes
    build mu from this very covariance: they have nothing to cross-check.
    """
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
    if ms.source == "quadrature":
        covq = _expect(h, lambda u: (h.eval_fn(u) - ms.mean_h)
                       * ((u - m - 1.0) ** 2 - (m + 1.0)), m)
        if mode == "overlapping":
            e2_cov = covq * covq / (4.0 * m * ms.sigma2)
        else:
            e2_cov = covq * covq / (4.0 * m * m * ms.sigma_star2)
        if abs(e2_cov - e2) > 1e-8 * max(1.0, abs(e2)):
            raise InternalConsistencyError(
                f"efficacy routes disagree for {h.name}, m={m}, {mode}: "
                f"{e2} (mu route) vs {e2_cov} (covariance route)")
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
    return float(ndtri(1.0 - alpha))


def normal_cdf(x: float) -> float:
    return float(ndtr(x))


def effective_tuning(h: TuningFunction, m: int, scaling: str) -> TuningFunction:
    """The tuning function whose by-n theory matches the requested scaling.

    Normalized scaling sums h((n/m) D) = h~(n D) with h~(x) = h(x/m), so all
    moment quantities are those of h~."""
    if scaling == "by_n":
        return h
    return scale_argument(h, Fraction(1, int(m)))


def standardization(h: TuningFunction, m: int, n: int, mode: str):
    """(center, scale, count) such that (V - center)/scale is asymptotically
    standard normal under the null."""
    ms = moments(h, m)
    if mode == "overlapping":
        return n * ms.mean_h, math.sqrt(ms.sigma2 * n), n
    if n % m:
        raise DomainError(f"disjoint mode needs m | n (m={m}, n={n})")
    count = n // m
    return count * ms.mean_h, math.sqrt(ms.sigma_star2 * count), count


def critical_point(h: TuningFunction, m: int, n: int, alpha: float,
                   mode: str) -> float:
    """Size-alpha critical value of the one-sided (large-values) test:
    u_alpha * scale + center under the null standardization."""
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    center, scale, _ = standardization(h, m, n, mode)
    return upper_quantile(alpha) * scale + center


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
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class GrowthRegime:
    """m = c * n^p with 0 < p < 1, c > 0."""

    c: float
    p: float

    def __post_init__(self):
        if not (self.c > 0 and 0.0 < self.p < 1.0):
            raise DomainError("regime needs c > 0 and p in (0, 1)")


@dataclass(frozen=True)
class AreQuery:
    spec1: TestSpec
    spec2: TestSpec
    regime1: GrowthRegime | None = None
    regime2: GrowthRegime | None = None


@dataclass(frozen=True)
class AreResult(Record):
    value: float  # may be 0.0 or inf for regime queries
    kind: str  # "finite" | "regime"
    description: str


_PD_EQUIVALENT = ("greenwood", "moran", "entropy", "power_divergence")


def pitman_are(q: AreQuery) -> AreResult:
    """Pitman ARE of test 1 with respect to test 2: the limiting ratio of
    sample sizes test 2 needs to match test 1's power at equal size.

    With both orders finite the value is m1 e1^2 / (m2 e2^2).  With growth
    regimes m_i = c_i n^{p_i} supplied, the known limits for the
    power-divergence family apply: 0 if p1 < p2, infinity if p1 > p2, and for
    p1 = p2 the ratio c1/c2 times a mode factor (3/2 when test 1 overlaps and
    test 2 is disjoint, 2/3 for the reverse, 1 for equal modes)."""
    if (q.regime1 is None) != (q.regime2 is None):
        raise DomainError("supply growth regimes for both tests or neither")
    if q.regime1 is None:
        e1 = efficacy(q.spec1.h, q.spec1.m, q.spec1.mode)
        e2 = efficacy(q.spec2.h, q.spec2.m, q.spec2.mode)
        if e2.e2 == 0:
            raise DomainError("second test has zero efficacy")
        val = (q.spec1.m * e1.e2) / (q.spec2.m * e2.e2)
        return AreResult(val, "finite",
                         f"m1 e1^2 / (m2 e2^2) at m1={q.spec1.m}, m2={q.spec2.m}")
    for s in (q.spec1, q.spec2):
        if s.h.family not in _PD_EQUIVALENT:
            raise UnsupportedLimitError(
                f"growth-regime limits are only known for the power-divergence "
                f"family; {s.h.name} is not a member")
    r1, r2 = q.regime1, q.regime2
    if r1.p < r2.p:
        return AreResult(0.0, "regime", f"p1={r1.p} < p2={r2.p}")
    if r1.p > r2.p:
        return AreResult(math.inf, "regime", f"p1={r1.p} > p2={r2.p}")
    factor = 1.0
    if q.spec1.mode == "overlapping" and q.spec2.mode == "disjoint":
        factor = 1.5
    elif q.spec1.mode == "disjoint" and q.spec2.mode == "overlapping":
        factor = 2.0 / 3.0
    return AreResult(factor * r1.c / r2.c, "regime",
                     f"p1=p2={r1.p}: (c1/c2) * {factor:g}")


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

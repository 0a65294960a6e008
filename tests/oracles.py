"""Independent oracles for the tests: a Monte Carlo estimate of Gamma
expectations, a direct Hurwitz zeta sum, a one-shape Gauss-Laguerre rule
build, the KS distance to the normal with scipy's Phi, a panel-wise Gauss
path integral, an mpmath lag quadrature of rao's moments, the covariance
form of the efficacy, the zero-anchored power-divergence representative,
and affine images, argument-scaled forms h(x/m) and plain copies of
tuning functions, all of them outside the builtin families, so their
moments take the quadrature route."""

from dataclasses import replace

import numpy as np

from spacings_gof import DomainError, make_power_divergence
from spacings_gof.tuning import PD_LIMIT_BAND


def mc_gamma_oracle(f, m: int, reps: int, seed: int, *, j: int | None = None):
    """(mean, standard error) of a Monte Carlo estimate of E f(Z) for
    Z ~ Gamma(m), or of E[f(Z_0) f(Z_j)] at lag j.

    Deterministic given ``seed`` (a dedicated Philox stream keyed by it).
    ``reps`` must be at least 100 so the standard error is meaningful.
    """
    if reps < 100:
        raise DomainError("mc_gamma_oracle requires reps >= 100")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    if j is None:
        vals = np.asarray(f(rng.standard_gamma(m, size=reps)), dtype=float)
    else:
        if not 1 <= j <= m - 1:
            raise DomainError(f"lag j must satisfy 1 <= j <= m-1, got {j}")
        b = rng.standard_gamma(m - j, size=reps)
        a = rng.standard_gamma(j, size=reps)
        c = rng.standard_gamma(j, size=reps)
        vals = np.asarray(f(a + b), dtype=float) * np.asarray(f(b + c), dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(reps))


def hurwitz_zeta2(a: float) -> float:
    """Hurwitz zeta at s = 2: sum_{k>=0} (a + k)^-2 for a > 0.

    Direct summation of the first max(ceil(1e4/a), 1000) terms (capped at
    2e6) plus an Euler-Maclaurin tail through the (a+K)^-5 term, giving
    absolute error well below 1e-12.  Note the tail expansion is
    1/t + 1/(2 t^2) + 1/(6 t^3) - ... with a *positive* cubic term; a
    commonly quoted version with -1/(6 m^3) has the wrong sign.  The
    closed-form moments use ``special_math.zeta2_remainder``; this summation
    is an independent oracle for it.
    """
    if not a > 0:
        raise DomainError(f"hurwitz_zeta2 requires a > 0, got {a}")
    terms = int(min(max(np.ceil(1e4 / a), 1000), 2_000_000))
    k = np.arange(terms, dtype=float)
    # Summing ascending k loses accuracy; accumulate smallest-first.
    s = float(np.sum(((a + k) ** -2.0)[::-1]))
    t = a + terms
    tail = 1.0 / t + 0.5 / t ** 2 + 1.0 / (6.0 * t ** 3) - 1.0 / (30.0 * t ** 5)
    return s + tail


def laguerre_rule_reference(n: int, alpha: float):
    """One plain generalized Gauss-Laguerre rule, probability-normalized,
    built alone: Golub-Welsch nodes, then the Christoffel-function weights
    from a three-term recurrence over the n nodes of this one shape, with
    the per-node 1e-140 rescaling applied only where a node needs it.  The
    batched builder must reproduce it bit for bit.  The nodes come from
    LAPACK sterf, as the package's do, whatever scipy's default driver."""
    from scipy.linalg import eigh_tridiagonal

    k = np.arange(n)
    x = eigh_tridiagonal(
        2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha)), eigvals_only=True,
        lapack_driver="sterf",
    )
    if n == 1:
        return x, np.ones(1)
    b = np.sqrt(np.arange(1.0, n) * (np.arange(1.0, n) + alpha))
    prev = np.ones_like(x)
    cur = (x - (alpha + 1.0)) / b[0]
    total = prev ** 2 + cur ** 2
    logscale = np.zeros_like(x)
    for j in range(1, n - 1):
        prev, cur = cur, ((x - (2.0 * j + alpha + 1.0)) * cur - b[j - 1] * prev) / b[j]
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


def ks_distance_reference(standardized) -> float:
    """sup_x |empirical CDF - Phi(x)| of a sample, with scipy.special.ndtr
    as Phi: the formula ``montecarlo.ks_distance_to_normal`` must reproduce
    bit for bit."""
    from scipy.special import ndtr

    z = np.sort(standardized)
    n = z.size
    c = ndtr(z)
    i = np.arange(1, n + 1)
    return float(max((i / n - c).max(), (c - (i - 1) / n).max()))


def numeric_integral_reference(l):
    """L(x) = int_0^x l by the panel-wise 8-point Gauss rule on the panels
    of ``alternatives``: the panel sums of l at the panel nodes, then per
    query the 8 Gauss points of [panel edge, x], at which it evaluates l
    anew.  The package's per-panel polynomials must stay within a few
    rounding errors of it."""
    from scipy.special import roots_legendre

    from spacings_gof.alternatives import _GRID

    t8, w8 = roots_legendre(8)
    edges = np.linspace(0.0, 1.0, _GRID + 1)
    half = 0.5 / _GRID
    nodes = ((edges[:-1] + half)[:, None] + half * t8[None, :]).ravel()
    w = np.broadcast_to(w8[None, :] * half, (_GRID, 8)).ravel()
    vals = (l(nodes) * w).reshape(_GRID, 8).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(vals)])

    def L(x):
        x = np.asarray(x, dtype=float)
        q = x.ravel()
        idx = np.clip((q * _GRID).astype(int), 0, _GRID - 1)
        lo = edges[idx]
        halfw = 0.5 * (q - lo)
        pts = lo[:, None] + halfw[:, None] * (t8[None, :] + 1.0)
        part = (l(pts.ravel()).reshape(pts.shape) * w8[None, :]).sum(axis=1) * halfw
        out = cum[idx] + part
        return out[0] if x.ndim == 0 else out.reshape(x.shape)

    return L


def rao_lag_oracle(m: int, dps: int = 30) -> dict:
    """Every ``MomentSet`` field of rao, h(x) = |x - m|, at order m, by
    mpmath quadrature at ``dps`` digits, without its Laguerre series.

    mean_h, tau and mu are integrals against the Gamma(m) density, split at
    x = m.  sigma^2 is var h + 2 sum_j cov(h(Z_0), h(Z_j)) - m^2 tau^2 with
    the shared-block decomposition Z_0 = A + B, Z_j = B + C: E[h(Z_0) h(Z_j)]
    is an outer quadrature over B ~ Gamma(m - j), split at b = m, of
    g_j(b)^2, g_j(b) = E|A + b - m| for A ~ Gamma(j), which for c = m - b > 0
    is c (2 P(j, c) - 1) + j (1 - 2 P(j+1, c)) with P the regularized lower
    incomplete gamma, and j - c otherwise.  Takes about 2 s at m = 20."""
    import mpmath as mp

    with mp.workdps(dps):
        M = mp.mpf(m)

        def quad(f, shape):
            lg = mp.loggamma(shape)
            return mp.quad(lambda x: f(x) * mp.exp(
                (shape - 1) * mp.log(x) - x - lg), [0, M, mp.inf])

        def p(a, x):
            return mp.gammainc(a, 0, x, regularized=True)

        mean = quad(lambda x: abs(x - M), M)
        tau = quad(lambda x: (x - M) * abs(x - M), M) / M
        eq = quad(lambda x: abs(x - M) * ((x - M) ** 2 - 2 * (x - M)), M)
        var = M - mean ** 2
        star = var - M * tau ** 2
        lag = 0
        for j in range(1, m):
            def g(b, j=j):
                c = M - b
                return j - c if c <= 0 else \
                    c * (2 * p(j, c) - 1) + j * (1 - 2 * p(j + 1, c))

            lag += quad(lambda b: g(b) ** 2, mp.mpf(m - j)) - mean ** 2
        return {"mean_h": mean, "tau": tau, "sigma_star2": star,
                "sigma2": var + 2 * lag - M * M * tau * tau,
                "mu": (eq - mean * M) / mp.sqrt(star * 2 * M * (M + 1))}


def covariance_efficacy(h, m: int, mode: str) -> float:
    """Squared efficacy by its covariance form: cov^2(h(Z), (Z-m-1)^2) over
    4 m sigma^2 (overlapping) or 4 m^2 sigma*^2 (disjoint), the covariance
    from one quadrature of the centred product
    (h(Z) - E h) ((Z-m-1)^2 - (m+1)).  It shares E h and the variance scale
    with ``moments(h, m)``, so against ``efficacy`` it checks mu only, which
    the quadrature route builds from the uncentred E h(Z) (Z-m)^2."""
    from spacings_gof import moments
    from spacings_gof.special_math import gamma_expectation

    ms = moments(h, m)
    covq = gamma_expectation(
        lambda u: (h.eval_fn(u) - ms.mean_h) * ((u - m - 1.0) ** 2 - (m + 1.0)),
        m, log_singular_at_zero=h.log_singular_at_zero)
    if mode == "overlapping":
        return covq * covq / (4.0 * m * ms.sigma2)
    return covq * covq / (4.0 * m * m * ms.sigma_star2)


def pd_zero_anchored(d: float, x) -> np.ndarray:
    """The d-family member with its affine-in-x part removed, anchored so the
    value converges pointwise to x log x as d -> 0.

    The raw closed form contains the term (x - 1)(1 - d)/d, which diverges as
    d -> 0 even though it never affects a standardized statistic (affine parts
    of h are annihilated by the linear correction).  Subtracting it gives the
    representative along which continuity in d is meaningful.
    """
    x = np.asarray(x, dtype=float)
    if d == 0 or 0 < abs(d) < PD_LIMIT_BAND:
        return make_power_divergence(d).eval_fn(x)
    return make_power_divergence(d).eval_fn(x) - (x - 1.0) * (1.0 - d) / d


def affine_shift(h, a: float, b: float, c: float):
    """a*h(x) + b*x + c.  Standardized statistics, mu and efficacies are
    invariant under this map (for a != 0); the tests check exactly that."""
    if a == 0:
        raise DomainError("affine_shift with a == 0 would make h affine")

    def ev(x):
        x = np.asarray(x, dtype=float)
        return a * h.eval_fn(x) + b * x + c

    # the moment cache keys on (family, name, m): the name carries a, b and
    # c in full, so two shifts share an entry only when they are equal
    return replace(
        h, name=f"{a}*{h.name}{b:+}*x{c:+}", family="affine", eval_fn=ev,
        power=None,
    )


def argument_scaled(h, m: int):
    """h(x/m), the function a normalized-scaling statistic applies to n D,
    as a plain tuning function: no power form, so its moments come from
    quadrature of h(x/m) itself.  For h smooth on (0, inf) (every builtin
    but rao)."""
    def ev(x):
        return h.eval_fn(np.asarray(x, dtype=float) / m)

    return replace(
        h, name=f"{h.name}(x/{m})", family="argument_scaled", eval_fn=ev,
        power=None,
    )


def quadrature_route(h):
    """h itself as a plain tuning function: no power form and a family of its
    own, so its moments come from quadrature, the reference route the closed
    forms and series are checked against.  For h smooth on (0, inf)."""
    return replace(
        h, name=f"{h.name}[quadrature]", family="quadrature_route",
        power=None,
    )

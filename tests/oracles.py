"""Independent oracles for the tests: a Monte Carlo estimate of Gamma
expectations, a direct Hurwitz zeta sum, a one-shape Gauss-Laguerre rule
build, mpmath's Phi, Phi^{-1} and psi and the KS distance to the normal with
that Phi, a panel-wise Gauss path integral, an mpmath lag quadrature of
rao's moments, the Lancaster series of the power-divergence moments, the
covariance form of the efficacy, the zero-anchored power-divergence
representative, and affine images, argument-scaled forms h(x/m) and plain
copies of tuning functions, all of them outside the builtin families, so
their moments take the quadrature route."""

import math
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


#: working precision of the mpmath special-function oracles, in bits
MP_PREC = 80
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def normal_cdf_mp(a):
    """Phi(a) = erfc(-a / sqrt 2) / 2 at each float of ``a`` (any shape) by
    mpmath at ``MP_PREC`` bits, as two float arrays (hi, lo): hi is Phi
    rounded to a double and lo the rest, so hi + lo carries Phi to far below
    an ulp.  NaN gives NaN.  Beyond |a| = 40 (where mpmath's erfc gives up
    on the largest doubles) a is clipped to 40, which changes neither
    float: 1 - Phi(40) is below the least subnormal."""
    import mpmath as mp
    from mpmath.libmp import (from_float, mpf_erfc, mpf_mul, mpf_shift,
                              mpf_sub, to_float)

    a = np.asarray(a, dtype=float)
    hi, lo = np.empty(a.size), np.empty(a.size)
    with mp.workprec(MP_PREC):
        r = (-mp.sqrt(0.5))._mpf_
    # mpmath's mpf kernels on raw tuples, the operations mp.erfc(x * r) / 2
    # performs with none of its type dispatch
    for i, x in enumerate(np.clip(a, -40.0, 40.0).ravel().tolist()):
        v = mpf_shift(mpf_erfc(mpf_mul(from_float(x), r, MP_PREC, "n"),
                               MP_PREC, "n"), -1)
        hi[i] = to_float(v, rnd="n")
        lo[i] = to_float(mpf_sub(v, from_float(hi[i]), MP_PREC, "n"), rnd="n")
    return hi.reshape(a.shape), lo.reshape(a.shape)


def normal_cdf_error(a, got):
    """|got - Phi(a)| elementwise over ``a``, in units of
    eps * max(1, a^2) * Phi(a), the relative error over the condition of
    erfc, or of half the least subnormal where that is larger, so 2 units
    bound the error by 2 eps max(1, a^2) relative or 5e-324 absolute,
    whichever is larger; Phi from ``normal_cdf_mp``.  NaN where a is NaN."""
    a = np.asarray(a, dtype=float)
    hi, lo = normal_cdf_mp(a)
    err = np.abs((np.asarray(got, dtype=float) - hi) - lo)
    with np.errstate(over="ignore", invalid="ignore"):
        unit = np.finfo(float).eps * np.maximum(1.0, a * a) * hi
    return err / np.fmax(unit, 2.5e-324)


def normal_quantile_error_ulps(p, x) -> np.ndarray:
    """|x - Phi^{-1}(p)| in ulps of x, for each x claimed to be
    Phi^{-1}(p) at 0 < p < 1, by one Newton step: Phi^{-1}(p) =
    x - (Phi(x) - p) / phi(x) to second order in the error.  The gap
    Phi(x) - p is formed by mpmath and taken relative to p (to
    Q(x) = 1 - Phi(x) against 1 - p, exact in floats, for p >= 1/2, so p
    near 1 loses no digits); an ulp of x moves Phi(x) by about
    |x| 2^-52 relative for |x| < 1, so the working precision is
    ``MP_PREC`` bits plus one per halving of |x| below 1.  The factor
    p / phi(x) is formed in logs, so a subnormal p or phi(x) costs no
    digits either."""
    import mpmath as mp
    from mpmath.libmp import (from_float, mpf_div, mpf_erfc, mpf_mul,
                              mpf_shift, mpf_sub, to_float)

    # sqrt(1/2) to more bits than the smallest |x| > 0, about 2^-53 at
    # p = 1/2 + 2^-54, asks for
    with mp.workprec(2 * MP_PREC):
        r = mp.sqrt(0.5)._mpf_
    out = np.empty(np.size(x))
    for i, (pi, xi) in enumerate(zip(np.ravel(p).tolist(),
                                     np.ravel(x).tolist())):
        prec = MP_PREC - min(0, math.frexp(xi)[1])
        # Phi(x) or Q(x) = erfc(-+x sqrt(1/2)) / 2 on raw mpf tuples
        q = 1.0 - pi if pi >= 0.5 else pi
        t = mpf_mul(from_float(xi if pi >= 0.5 else -xi), r, prec, "n")
        tail = mpf_shift(mpf_erfc(t, prec, "n"), -1)
        gap = mpf_sub(from_float(q), tail, prec, "n") if pi >= 0.5 \
            else mpf_sub(tail, from_float(pi), prec, "n")
        rel = to_float(mpf_div(gap, from_float(q), prec, "n"), rnd="n")
        mills = math.exp(math.log(q) + 0.5 * xi * xi + _LOG_SQRT_2PI)
        out[i] = abs(rel) * mills / np.spacing(abs(xi))
    return out


def digamma_mp(xs) -> np.ndarray:
    """psi at each float of ``xs`` by mpmath at ``MP_PREC`` bits, rounded to
    doubles."""
    import mpmath as mp

    with mp.workprec(MP_PREC):
        return np.array([float(mp.digamma(x)) for x in np.ravel(xs).tolist()])


def ks_distance_reference(standardized) -> float:
    """sup_x |empirical CDF - Phi(x)| of a sample, with Phi from mpmath
    rounded to doubles: the formula of ``montecarlo.ks_distance_to_normal``
    with an independent Phi."""
    z = np.sort(standardized)
    n = z.size
    c, _ = normal_cdf_mp(z)
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


def pd_series_moments(d: float, m: int) -> dict:
    """Every ``MomentSet`` field of pd:d, h(x) = s (x^a - 1) with a = d + 1
    and s = 1/(d (d+1)) for d > -1 outside {0}, at order m >= 1, from its
    Lancaster series summed in closed form at 40 digits, without quadrature.

    With g = Gamma(m+a)/Gamma(m) = E Z^a, h's coefficient on the k-th
    orthonormal Laguerre polynomial of Gamma(m) has
    c_k^2 = s^2 g^2 t_k, t_k = ((-a)_k)^2 / (k! (m)_k); then
    mean = s (g - 1), tau = s g a / m, sigma*^2 = sum_{k>=2} c_k^2,
    sigma^2 = sigma*^2 + (2m - 2) sum_{k>=2} c_k^2 / (k+1) and
    mu = +sqrt(c_2^2 / sigma*^2).  Both sums are Gauss's 2F1 at 1 less
    their k = 0, 1 terms:
    sum_{k>=0} t_k = 2F1(-a, -a; m; 1) = Gamma(m) Gamma(m+2a) / Gamma(m+a)^2
    and, shifting k + 1 -> k,
    sum_{k>=0} t_k / (k+1) = (m-1) / (a+1)^2 (2F1(-a-1, -a-1; m-1; 1) - 1)
    = (m-1) / (a+1)^2 (Gamma(m-1) Gamma(m+1+2a) / Gamma(m+a)^2 - 1)
    for m >= 2; at m = 1 the lag sum has weight 0.  Exact at any (d, m) in
    milliseconds; the cancellation against the k = 0, 1 terms costs about
    2 log10(m) of the 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        a = mp.mpf(d) + 1
        M = mp.mpf(m)
        s = 1 / (a * (a - 1))
        g = mp.gammaprod([M + a], [M])
        # t_0 = 1 and t_1 = a^2 / m are the constant and linear parts
        star = mp.gammaprod([M, M + 2 * a], [M + a, M + a]) - 1 - a * a / M
        t2 = (a * (a - 1)) ** 2 / (2 * M * (M + 1))
        lag = 0
        if m >= 2:
            lag = (M - 1) / (a + 1) ** 2 * (
                mp.gammaprod([M - 1, M + 1 + 2 * a], [M + a, M + a]) - 1) \
                - 1 - a * a / (2 * M)
        scale = (s * g) ** 2
        return {"mean_h": s * (g - 1), "tau": s * g * a / M,
                "sigma_star2": scale * star,
                "sigma2": scale * (star + (2 * M - 2) * lag),
                "mu": mp.sqrt(t2 / star)}


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

import math

import numpy as np
import pytest

import spacings_gof.special_math as sm
from oracles import (
    digamma_mp,
    hurwitz_zeta2,
    laguerre_rule_reference,
    mc_gamma_oracle,
    normal_cdf_error,
    normal_quantile_error_ulps,
)
from spacings_gof import (
    DomainError,
    QuadratureConvergenceError,
    digamma,
    gamma_expectation,
)
from spacings_gof.special_math import gamma_lag_expectations, zeta2_remainder

EULER = 0.57721566490153286


def rising(m, k):
    out = 1
    for i in range(k):
        out *= m + i
    return out


class TestLogGamma:
    # the log Gamma that the split discretization forms its weights with,
    # in log space, up to shapes beyond 1e4
    def test_small_integers_exact(self):
        # Gamma(n) = (n-1)! gives an exact oracle
        for n in range(1, 21):
            assert sm._gammaln(n) == pytest.approx(math.log(math.factorial(n - 1)),
                                                   rel=1e-14, abs=1e-14)

    def test_half(self):
        assert sm._gammaln(0.5) == pytest.approx(math.log(math.sqrt(math.pi)),
                                                 rel=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.7, 10.0, 123.4, 1e4, 1e6])
    def test_against_independent_implementation(self, x):
        # C library lgamma is an independent implementation
        assert sm._gammaln(x) == pytest.approx(math.lgamma(x), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain(self, x):
        # a pole gives +inf, never a finite weight
        assert sm._gammaln(x) == math.inf


class TestDigamma:
    def test_psi1_is_minus_euler(self):
        assert digamma(1.0) == pytest.approx(-EULER, abs=1e-12)

    def test_recurrence_value(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER, abs=1e-12)

    def test_psi10_series_oracle(self):
        # psi(n) = -euler + sum_{k<n} 1/k, summed here independently
        oracle = -EULER + math.fsum(1.0 / k for k in range(1, 10))
        assert digamma(10.0) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(2.251752589066721, abs=1e-14)

    def test_recurrence_property(self):
        for x in (1.0, 3.0, 8.0, 400.0):
            assert digamma(x + 1) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(-2.0)

    @pytest.mark.parametrize("x", [0.3, 7.5, math.inf, math.nan, True])
    def test_non_integers_refused(self, x):
        with pytest.raises(DomainError, match=f"positive integer x, got {x}"):
            digamma(x)

    def test_integers_equal_scipy_bit_for_bit(self):
        # log x - log_minus_digamma(x) against mpmath: within 2 ulps
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        xs = np.unique(np.concatenate([
            np.arange(1.0, 100001.0),
            np.round(10.0 ** rng.uniform(5, 15, 20000)),
            np.round(10.0 ** np.linspace(0, 15, 301)),
            [1e17 - 16, 1e17, 2.0 ** 53, 1e300]]))
        got = np.array([digamma(x) for x in xs])
        ref = digamma_mp(xs)
        ulps = np.abs(got - ref) / np.spacing(np.abs(ref))
        assert ulps.max() <= 2.0

    def test_python_and_numpy_integers(self):
        assert digamma(7) == digamma(np.int64(7)) == digamma(7.0)
        assert digamma(10**20) == digamma(1e20)


class TestNormalQuantile:
    # statistics.NormalDist().inv_cdf, with mpmath as the oracle
    def test_equals_scipy_bit_for_bit(self):
        # within 8 ulps, the far lower tail included; points straddle
        # exp(-2) and 1 - exp(-2)
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        e = 0.1353352832366127
        ps = np.concatenate([
            rng.uniform(0.0, 1.0, 200_000),
            10.0 ** rng.uniform(-300.0, 0.0, 50_000),
            1.0 - rng.uniform(0.0, 1e-3, 50_000),
            [0.0, 1.0, e, 1.0 - e, np.nextafter(e, 0.0), np.nextafter(e, 1.0),
             np.nextafter(1.0 - e, 0.0), np.nextafter(1.0 - e, 1.0),
             math.exp(-32.0), 1e-300, 5e-324, np.nextafter(1.0, 0.0), 0.5,
             0.95, 0.99, 0.999, 0.05, 0.01, 0.001]])
        got = np.array([sm.normal_quantile(p) for p in ps])
        ends = (ps == 0.0) | (ps == 1.0)
        assert (got[ends] == np.where(ps[ends] == 0.0, -np.inf, np.inf)).all()
        assert normal_quantile_error_ulps(ps[~ends], got[~ends]).max() <= 8.0

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, math.inf])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            sm.normal_quantile(p)


class TestNormalCdf:
    # erfc(-a / sqrt 2) / 2 with math.erfc, with mpmath as the oracle: the
    # relative error is at most 2 eps max(1, a^2) (the a^2 is erfc's
    # condition number), or the absolute error 5e-324 where that is larger
    def test_equals_scipy_bit_for_bit(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(9)
        # points straddle |a| = 1, sqrt 2, 8 sqrt 2 and the a where
        # exp(-a^2/2) underflows (a^2 = 2 log DBL_MAX)
        edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                 math.sqrt(2.0 * 709.782712893384)]
        near = np.array([np.nextafter(b, t) for b in edges
                         for t in (0.0, b, np.inf)])
        near = np.concatenate([near, -near])
        xs = np.concatenate([
            rng.standard_normal(150_000),
            np.linspace(-40.0, 40.0, 160_001),
            near,
            np.ravel(np.add.outer(edges, np.arange(-200, 201) * 1e-12)),
            -np.ravel(np.add.outer(edges, np.arange(-200, 201) * 1e-12)),
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, -1e-310, 1e300, -1e300, 1e155]])
        got = sm.normal_cdf(xs)
        assert xs.size >= 300_000
        err = normal_cdf_error(xs, got)
        nan = np.isnan(xs)
        assert np.isnan(got[nan]).all()
        assert err[~nan].max() <= 2.0

    def test_scalar_and_array_input(self):
        pytest.importorskip("mpmath")
        for a in (0.3, -2.0, 1.5, -12.0, 37.5, -38.5, math.inf):
            got = sm.normal_cdf(a)
            assert type(got) is float and normal_cdf_error(a, got) <= 2.0
        assert sm.normal_cdf(np.float64(-1.25)) == sm.normal_cdf(-1.25)
        assert math.isnan(sm.normal_cdf(math.nan))
        grid = np.linspace(-9.0, 9.0, 12).reshape(3, 4)
        got = sm.normal_cdf(grid)
        assert got.shape == (3, 4)
        assert normal_cdf_error(grid, got).max() <= 2.0
        assert sm.normal_cdf(np.array([])).shape == (0,)


class TestHurwitzZeta2:
    def test_basel(self):
        assert hurwitz_zeta2(1.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-12)

    def test_shift_at_2(self):
        assert hurwitz_zeta2(2.0) == pytest.approx(math.pi ** 2 / 6 - 1.0, abs=1e-12)

    def test_brute_force_bracket_at_100(self):
        # independent oracle: partial sum plus integral tail bracket
        a, K = 100.0, 1_000_000
        partial = math.fsum((a + k) ** -2.0 for k in range(K - 1, -1, -1))
        lo, hi = partial + 1.0 / (a + K), partial + 1.0 / (a + K - 1)
        v = hurwitz_zeta2(a)
        assert lo - 1e-12 <= v <= hi + 1e-12
        assert v == pytest.approx(0.010050166663333571, abs=1e-12)

    @pytest.mark.parametrize("a", [1.0, 2.5, 10.0, 100.0])
    def test_shift_identity(self, a):
        assert hurwitz_zeta2(a) - hurwitz_zeta2(a + 1.0) == pytest.approx(
            a ** -2.0, abs=1e-12)

    def test_large_a_expansion_has_positive_cubic_term(self):
        # zeta(2, m) = 1/m + 1/(2 m^2) + 1/(6 m^3) + O(m^-5); the often-quoted
        # -1/(6 m^3) variant has the wrong sign
        m = 100.0
        rest = hurwitz_zeta2(m) - 1.0 / m - 0.5 / m ** 2
        assert rest > 0
        assert rest == pytest.approx(1.0 / (6 * m ** 3), rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta2(0.0)


class TestZeta2Remainder:
    # r(a) = zeta(2, a) - 1/a - 1/(2a^2); references are mpmath values at 50
    # digits: mp.zeta(2, a) - 1/mp.mpf(a) - 1/(2*mp.mpf(a)**2)
    @pytest.mark.parametrize("a, expected", [
        (1, 0.14493406684822643647),
        (2, 0.019934066848226436472),
        (31, 5.5933673364293565505e-6),
        (32, 5.0852703020901265817e-6),
        (1000, 1.6666663333335714282e-10),
        (10 ** 6, 1.6666666666663333333e-19),
    ])
    def test_reference_values(self, a, expected):
        assert zeta2_remainder(a) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0])
    def test_agrees_with_summed_zeta_at_small_a(self, a):
        assert zeta2_remainder(a) == pytest.approx(
            hurwitz_zeta2(a) - 1.0 / a - 0.5 / a ** 2, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta2_remainder(0.0)


class TestLogGammaRemainder:
    @pytest.mark.parametrize("a", [0.5, 1, 2, 7.5, 31, 32, 1000, 1e6, 1e12])
    def test_against_mpmath(self, a):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            x = mp.mpf(a)
            want = mp.loggamma(x) - (x - 0.5) * mp.log(x) + x - mp.log(2 * mp.pi) / 2
        assert sm.log_gamma_remainder(a) == pytest.approx(float(want), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            sm.log_gamma_remainder(0.0)


class TestGammaExpectation:
    def test_mean(self):
        assert gamma_expectation(lambda u: u, 7) == pytest.approx(7.0, rel=1e-13)

    def test_second_moment(self):
        assert gamma_expectation(lambda u: u * u, 3) == pytest.approx(
            12.0, rel=1e-13)

    def test_log_moment_digamma_identity(self):
        # E ln Z = psi(m); oracle from the digamma series plus MC cross-check
        est = gamma_expectation(lambda u: -np.log(u), 4,
                                log_singular_at_zero=True)
        oracle = EULER - (1.0 + 0.5 + 1.0 / 3.0)
        assert est == pytest.approx(oracle, abs=1e-11)
        assert oracle == pytest.approx(-1.2561176684318005, abs=1e-14)
        mean, se = mc_gamma_oracle(lambda u: -np.log(u), 4, reps=400_000, seed=11)
        assert abs(est - mean) < 4 * se

    def test_log_singular_at_shape_one(self):
        est = gamma_expectation(lambda u: -np.log(u), 1, log_singular_at_zero=True)
        assert est == pytest.approx(EULER, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 50, 100])
    def test_polynomial_exactness(self, m):
        for k in range(1, 9):
            est = gamma_expectation(lambda u, k=k: u ** k, m)
            assert est == pytest.approx(rising(m, k), rel=1e-12)

    def test_estimate_metadata(self):
        # an estimate is a plain float: quadrature has no standard error
        assert type(gamma_expectation(lambda u: u, 3)) is float

    def test_nonconvergence_is_explicit(self, monkeypatch):
        monkeypatch.setattr(sm, "NODE_CAP", 256)
        step = lambda u: np.where(u < 2.0, 0.0, np.sin(20 * u))
        with pytest.raises(QuadratureConvergenceError) as exc:
            gamma_expectation(step, 2)
        a, b = exc.value.last_estimates
        assert a != b  # the two finest estimates, still apart

    @pytest.mark.parametrize("joint", [False, True])
    def test_non_finite_estimate_stops_at_first_rule(self, joint):
        calls = []

        def nan(u):
            calls.append(u.shape)
            return np.full(u.shape, np.nan)

        with pytest.raises(QuadratureConvergenceError, match="nan"):
            if joint:
                gamma_lag_expectations(nan, 5)
            else:
                gamma_expectation(nan, 5)
        assert len(calls) == 1

    def test_node_cap_value(self):
        assert sm.NODE_CAP == 2 ** 14

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            gamma_expectation(lambda u: u, 0)


class TestBatchedRules:
    SHAPES = (1, 10, 100, 1000, 10_000)

    @pytest.mark.parametrize("n", [1, 2, 64, 128, 256])
    def test_batch_equals_single_shape_builds(self, n):
        # at n = 256 the rows of shapes 1 to 100 rescale their recurrence
        # and the rows of 1000 and 10000 do not
        xs, ws = sm._laguerre_rules(n, [s - 1.0 for s in self.SHAPES])
        assert xs.shape == ws.shape == (len(self.SHAPES), n)
        for s, x, w in zip(self.SHAPES, xs, ws):
            xr, wr = laguerre_rule_reference(n, s - 1.0)
            x1, w1 = sm._laguerre_rules(n, [s - 1.0])
            for got in (x, x1[0]):
                assert got.tobytes() == xr.tobytes()
            for got in (w, w1[0]):
                assert got.tobytes() == wr.tobytes()

    def test_nodes_equal_eigh_tridiagonal(self):
        # the nodes come from LAPACK dsterf, which scipy's eigh_tridiagonal
        # reaches through dstevd, its default driver for all eigenvalues
        from scipy.linalg import eigh_tridiagonal

        try:
            eigh_tridiagonal([1.0, 2.0], [0.5], eigvals_only=True,
                             lapack_driver="stevd")
        except ValueError:
            pytest.skip("this scipy's eigh_tridiagonal has no stevd driver")
        for n in (1, 2, 3, 7, 64, 256, 1024, 4096):
            k = np.arange(n)
            for alpha in (0.0, 1.0, 9.0, 99.0, 999.0, 9999.0, 999_999.0):
                ref = eigh_tridiagonal(2.0 * k + alpha + 1.0,
                                       np.sqrt(k[1:] * (k[1:] + alpha)),
                                       eigvals_only=True)
                got = sm._laguerre_rules(n, [alpha])[0][0]
                assert got.tobytes() == ref.tobytes(), (n, alpha)

    def test_lag_rules_are_built_once_in_batches(self, monkeypatch):
        import spacings_gof.asymptotics as asy
        from spacings_gof import from_name, moments

        monkeypatch.setattr(sm, "_rule_cache", {})
        monkeypatch.setattr(asy, "_cache", {})
        calls = []
        build = sm._laguerre_rules

        def spy(n, alphas):
            calls.append((n, [int(a) + 1 for a in alphas]))
            return build(n, alphas)

        monkeypatch.setattr(sm, "_laguerre_rules", spy)
        m = 200
        moments(from_name("pd:0.5"), m)

        built = [(s, n) for n, shapes in calls for s in shapes]
        assert len(built) == len(set(built))
        assert {k[:2] for k in sm._rule_cache if k[2:] == ("plain",)} == set(built)
        # pd:0.5 is singular at zero: shapes up to SPLIT_MAX_SHAPE take the
        # split rule, the rest of the lag shapes 1..m-1 the plain one
        lag_shapes = set(range(sm.SPLIT_MAX_SHAPE + 1, m))
        for n in (sm.START_NODES, 2 * sm.START_NODES):
            batches = [shapes for size, shapes in calls
                       if size == n and set(shapes) <= lag_shapes]
            assert len(batches) == math.ceil(len(lag_shapes) / sm._RULE_BATCH)
            assert set().union(*batches) == lag_shapes


class TestGammaJointExpectation:
    def test_identity_shared_block_covariance(self):
        # E Z0 Z2 = m^2 + (m - j)
        est = gamma_lag_expectations(lambda u: u, 5)[2 - 1]
        assert est == pytest.approx(28.0, rel=1e-12)

    def test_greenwood_lag_moment(self):
        # E[Z0^2 Z1^2] at m=2: with it, var h + 2 cov - m^2 tau^2 = 20
        est = gamma_lag_expectations(lambda u: u * u, 2)[1 - 1]
        assert est == pytest.approx(76.0, rel=1e-12)
        varh = 84.0  # var Z^2 = 2 m (m+1)(2m+3)
        sigma2 = varh + 2 * (est - 36.0) - 4 * 36.0
        assert sigma2 == pytest.approx(20.0, rel=1e-11)

    def test_log_joint_against_mc(self):
        f = lambda u: -np.log(u)
        q = gamma_lag_expectations(f, 3, log_singular_at_zero=True)[1 - 1]
        mean, se = mc_gamma_oracle(f, 3, reps=500_000, seed=99, j=1)
        assert abs(q - mean) < 3 * se

    @pytest.mark.parametrize("m", [4, 6])
    def test_identity_cov_monotone_in_lag(self, m):
        covs = []
        for j, est in enumerate(gamma_lag_expectations(lambda u: u, m), 1):
            covs.append(est - m * m)
            assert covs[-1] == pytest.approx(m - j, rel=1e-11)
        assert all(covs[i] >= covs[i + 1] for i in range(len(covs) - 1))


class TestMcOracle:
    def test_mean_recovery(self):
        mean, se = mc_gamma_oracle(lambda u: u, 3, reps=1_000_000, seed=1)
        assert abs(mean - 3.0) < 3 * se

    def test_second_moment(self):
        mean, se = mc_gamma_oracle(lambda u: u * u, 3, reps=1_000_000, seed=2)
        assert abs(mean - 12.0) < 3 * se

    def test_joint_consistency_triangle(self):
        mean, se = mc_gamma_oracle(lambda u: u * u, 2, reps=1_000_000, seed=3, j=1)
        assert abs(mean - 76.0) < 3 * se

    def test_deterministic(self):
        a = mc_gamma_oracle(lambda u: u, 3, reps=1000, seed=5)
        b = mc_gamma_oracle(lambda u: u, 3, reps=1000, seed=5)
        assert a == b

    def test_reps_floor(self):
        with pytest.raises(DomainError):
            mc_gamma_oracle(lambda u: u, 3, reps=50, seed=1)


class TestQuadratureVsMcGrid:
    def test_agreement_within_4_se(self):
        cases = [  # (f, m, lag j or None, Monte Carlo seed)
            (lambda u: u * np.log(u), 2, None, 100),
            (lambda u: u ** 1.5, 4, 2, 102),
            (lambda u: u * np.log(u), 5, 1, 103),
        ]
        for f, m, j, seed in cases:
            if j is None:
                q = gamma_expectation(f, m, log_singular_at_zero=True)
                mean, se = mc_gamma_oracle(f, m, reps=400_000, seed=seed)
            else:
                q = gamma_lag_expectations(f, m,
                                           log_singular_at_zero=True)[j - 1]
                mean, se = mc_gamma_oracle(f, m, reps=400_000, seed=seed, j=j)
            assert abs(q - mean) < 4 * se

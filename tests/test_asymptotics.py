import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import spacings_gof
from oracles import (
    affine_shift,
    argument_scaled,
    covariance_efficacy,
    mc_gamma_oracle,
    quadrature_route,
)
from spacings_gof import TestSpec as TSpec
from spacings_gof import (
    DomainError,
    GrowthRegime,
    InternalConsistencyError,
    SpacingsPlan,
    TuningFunction,
    UnsupportedLimitError,
    builtin,
    clt_condition_ratio,
    critical_point,
    efficacy,
    from_name,
    make_power_divergence,
    moments,
    pitman_are,
    predicted_power,
    shifted_mean,
    standardization,
)
from spacings_gof.asymptotics import MomentSet

#: directory holding the spacings_gof package this test process imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(spacings_gof.__file__))

EULER = 0.57721566490153286
PSI2 = 1.0 - EULER  # psi(2) = 1 - euler
U05 = 1.6448536269514722
ZETA2_1 = math.pi ** 2 / 6


class TestTau:
    @pytest.mark.parametrize("m", [1, 2, 5, 20])
    def test_greenwood(self, m):
        # Gamma moments: E Z^3 = m(m+1)(m+2) gives cov(Z^2, Z) = 2m(m+1)
        assert moments(builtin("greenwood"), m).tau == pytest.approx(
            2.0 * (m + 1), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_moran_digamma_recurrence(self, m):
        # cov(ln Z, Z) = m psi(m+1) - m psi(m) = 1, so tau = -1/m
        assert moments(builtin("moran"), m).tau == pytest.approx(-1.0 / m, abs=1e-11)

    @pytest.mark.parametrize("m", [1, 3])
    def test_entropy_digamma_recurrence(self, m):
        from spacings_gof import digamma

        assert moments(builtin("entropy"), m).tau == pytest.approx(
            digamma(m + 1) + 1.0, abs=1e-11)


class TestSigmaStar:
    def test_greenwood_m2(self):
        assert moments(builtin("greenwood"), 2).sigma_star2 == pytest.approx(
            12.0, rel=1e-12)

    def test_moran_m1(self):
        assert moments(builtin("moran"), 1).sigma_star2 == pytest.approx(
            ZETA2_1 - 1.0, abs=1e-11)

    def test_entropy_m1(self):
        # m(m+1) zeta(2, m+1) - m at m=1; cross-checked against an MC oracle
        # (the version quoting zeta(2, m) would give 2 zeta(2,1) - 1 ~ 2.29,
        # inconsistent with the sampled variance)
        expected = 2.0 * (ZETA2_1 - 1.0) - 1.0
        got = moments(builtin("entropy"), 1).sigma_star2
        assert got == pytest.approx(expected, abs=1e-10)
        h = builtin("entropy")
        sq, sq_se = mc_gamma_oracle(lambda u: h.eval_fn(u) ** 2, 1, 10 ** 6, 31)
        mean, mean_se = mc_gamma_oracle(h.eval_fn, 1, 10 ** 6, 31)
        tau = moments(h, 1).tau
        assert abs((sq - mean ** 2 - tau * tau) - got) < 4 * (
            sq_se + 2 * abs(mean) * mean_se)

    def test_entropy_m2_frozen(self):
        assert moments(builtin("entropy"), 2).sigma_star2 == pytest.approx(
            0.3696044010893586, abs=1e-10)


class TestSigmaOverlapping:
    def test_greenwood_m2(self):
        assert moments(builtin("greenwood"), 2).sigma2 == pytest.approx(
            20.0, rel=1e-12)

    def test_moran_m2(self):
        expected = 5.0 * (ZETA2_1 - 1.0) - 3.0
        assert moments(builtin("moran"), 2).sigma2 == pytest.approx(
            expected, abs=1e-11)

    @pytest.mark.parametrize("name", ["greenwood", "moran", "entropy", "rao"])
    def test_m1_lag_sum_empty(self, name):
        h = from_name(name, m=1)
        assert moments(h, 1).sigma2 == moments(h, 1).sigma_star2


class TestMu:
    @pytest.mark.parametrize("m", [1, 2, 10, 50])
    def test_greenwood_is_one(self, m):
        assert abs(moments(builtin("greenwood"), m).mu - 1.0) <= 1e-10

    def test_pd1_is_one(self):
        assert abs(moments(make_power_divergence(1.0), 7).mu - 1.0) <= 1e-10

    @pytest.mark.parametrize("d", [-1.0, 0.0, 2.0])
    def test_mu2_increasing_toward_one(self, d):
        grid = [2, 5, 20, 100]
        mus = [moments(make_power_divergence(d), m).mu ** 2 for m in grid]
        assert all(0 < v <= 1 for v in mus)
        assert all(a < b for a, b in zip(mus, mus[1:]))

    def test_rao_in_unit_interval_and_mc_consistent(self):
        h = builtin("rao", m=2)
        mu = moments(h, 2).mu
        assert 0.0 < mu < 1.0
        # MC oracle for corr(phi(Z), (Z-m)^2 - 2(Z-m)) at m=2
        m = 2
        tau = moments(h, m).tau
        mean = moments(h, m).mean_h
        rng = np.random.default_rng(77)
        z = rng.standard_gamma(m, size=2_000_000)
        phi = h.eval_fn(z) - mean - (z - m) * tau
        q = (z - m) ** 2 - 2 * (z - m)
        r = np.corrcoef(phi, q)[0, 1]
        assert mu == pytest.approx(r, abs=4.0 / math.sqrt(2_000_000) * 10)

    def test_mu_squared_bounded(self):
        for name in ("moran", "entropy", "rao"):
            for m in (1, 2, 10):
                assert moments(from_name(name, m=m), m).mu ** 2 <= 1.0 + 1e-12


class TestMeans:
    def test_greenwood_null_mean(self):
        assert moments(builtin("greenwood"), 3).mean_h == pytest.approx(12.0, rel=1e-12)

    def test_moran_null_mean(self):
        assert moments(builtin("moran"), 2).mean_h == pytest.approx(-PSI2, abs=1e-11)

    def test_greenwood_shifted_mean_plugin(self):
        # A0 + sqrt(12)*sqrt(3)*1*0.5/sqrt(1600) = 6 + 0.075
        got = shifted_mean(builtin("greenwood"), SpacingsPlan(2), 800, 0.5)
        assert got == pytest.approx(6.075, rel=1e-12)

    def test_shifted_mean_needs_n_gt_m(self):
        with pytest.raises(DomainError):
            shifted_mean(builtin("greenwood"), SpacingsPlan(5), 5, 1.0)


class TestEfficacy:
    def test_greenwood_overlapping_m2(self):
        # 3(m+1)/(2(2m+1)) at m=2; the (3m+1)/(2(2m+1)) variant sometimes
        # quoted disagrees with the exact rational route
        assert efficacy(builtin("greenwood"), 2, "overlapping").e2 == pytest.approx(
            0.9, rel=1e-10)

    def test_greenwood_overlapping_limit(self):
        assert efficacy(builtin("greenwood"), 10_000, "overlapping").e2 == \
            pytest.approx(0.75, abs=1e-4)

    def test_greenwood_disjoint_m1(self):
        assert efficacy(builtin("greenwood"), 1, "disjoint").e2 == pytest.approx(
            1.0, rel=1e-12)

    def test_m1_modes_coincide(self):
        for name in ("greenwood", "moran", "entropy"):
            h = builtin(name)
            a = efficacy(h, 1, "overlapping").e2
            b = efficacy(h, 1, "disjoint").e2
            assert a == pytest.approx(b, rel=1e-10)

    def test_disjoint_identity_from_components(self):
        e = efficacy(builtin("moran"), 5, "disjoint")
        assert e.e2 == (5 + 1) / (2 * 5) * e.mu2

    def test_cross_check_runs_for_quadrature_route(self):
        # pd:0.5 goes through pure quadrature; its mu agrees with the
        # covariance form of the efficacy
        e = efficacy(from_name("pd:0.5"), 3, "overlapping")
        assert e.source == "quadrature"
        assert 0 < e.e2 < 1
        assert e.e2 == pytest.approx(
            covariance_efficacy(from_name("pd:0.5"), 3, "overlapping"), rel=1e-10)

    @pytest.mark.parametrize("mode", ["overlapping", "disjoint"])
    @pytest.mark.parametrize("d, m", [
        *itertools.product([0.5, -0.5, 1.5, -0.9, 7.3, 1e-7],
                           [1, 2, 3, 5, 20, 50]),
        (-0.5, 300)])
    def test_quadrature_mu_matches_covariance_form(self, d, m, mode):
        h = make_power_divergence(d)
        e = efficacy(h, m, mode)
        assert e.source == "quadrature"
        assert e.e2 == pytest.approx(covariance_efficacy(h, m, mode), rel=1e-10)

    def test_reads_cached_moments_only(self, monkeypatch):
        # with the moments cached, efficacy runs no quadrature of its own
        import spacings_gof.asymptotics as asy

        def boom(*args, **kwargs):
            raise AssertionError("efficacy ran a quadrature")

        h = from_name("pd:0.5")
        moments(h, 4)
        monkeypatch.setattr(asy, "gamma_expectation", boom)
        for mode in ("overlapping", "disjoint"):
            assert efficacy(h, 4, mode).source == "quadrature"


class TestCriticalPointAndPower:
    def test_greenwood_m2_n600(self):
        got = critical_point(builtin("greenwood"), SpacingsPlan(2), 600, 0.05)
        assert got == pytest.approx(3780.1846870551018, rel=1e-10)

    def test_median_alpha(self):
        h = builtin("greenwood")
        assert critical_point(h, SpacingsPlan(2), 600, 0.5) == pytest.approx(
            600 * 6.0, rel=1e-12)

    def test_moran_disjoint_assembled(self):
        got = critical_point(builtin("moran"), SpacingsPlan(1, "disjoint"),
                             100, 0.05)
        expected = U05 * math.sqrt(ZETA2_1 - 1.0) * 10.0 + 100.0 * EULER
        assert got == pytest.approx(expected, rel=1e-9)

    def test_predicted_power_null_paths(self):
        assert predicted_power(0.0, 5.0, 0.05) == pytest.approx(0.05, abs=1e-12)
        assert predicted_power(0.75, 0.0, 0.05) == pytest.approx(0.05, abs=1e-12)

    def test_predicted_power_value(self):
        assert predicted_power(0.75, 2.0, 0.05) == pytest.approx(
            0.5347426098180926, abs=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            critical_point(builtin("greenwood"), SpacingsPlan(2), 600, 1.5)


class TestPitmanAre:
    def test_identical_specs_exactly_one(self):
        s = TSpec(builtin("moran"), 5, "overlapping")
        assert pitman_are(s, s).value == 1.0

    def test_greenwood_over_vs_disjoint_m2(self):
        res = pitman_are(TSpec(builtin("greenwood"), 2, "overlapping"),
                         TSpec(builtin("greenwood"), 2, "disjoint"))
        assert res.value == pytest.approx(1.2, rel=1e-10)  # m sigma*^2/sigma^2

    def test_regime_cases(self):
        h0, h1 = make_power_divergence(0.0), make_power_divergence(1.0)
        over = TSpec(h0, 10, "overlapping")
        over2 = TSpec(h1, 10, "overlapping")
        disj = TSpec(h1, 10, "disjoint")
        assert pitman_are(over, disj, GrowthRegime(1, 0.3),
                          GrowthRegime(1, 0.5)).value == 0.0
        assert pitman_are(over, disj, GrowthRegime(1, 0.5),
                          GrowthRegime(1, 0.3)).value == math.inf
        assert pitman_are(over, disj, GrowthRegime(1, 0.5),
                          GrowthRegime(1, 0.5)).value == pytest.approx(1.5)
        assert pitman_are(over, over2, GrowthRegime(2, 0.5),
                          GrowthRegime(1, 0.5)).value == pytest.approx(2.0)

    def test_regime_needs_pd_family(self):
        with pytest.raises(UnsupportedLimitError):
            pitman_are(TSpec(builtin("rao", m=5), 5, "overlapping"),
                       TSpec(builtin("greenwood"), 5, "overlapping"),
                       GrowthRegime(1, 0.5), GrowthRegime(1, 0.5))

    def test_regime_ratio_overflow_refused(self):
        s = TSpec(builtin("greenwood"), 5, "overlapping")
        with pytest.raises(DomainError, match="overflows"):
            pitman_are(s, s, GrowthRegime(1e300, 0.5), GrowthRegime(1e-300, 0.5))
        # unequal exponents give the stated limit, whatever c1/c2
        assert pitman_are(s, s, GrowthRegime(1e300, 0.6),
                          GrowthRegime(1e-300, 0.5)).value == math.inf

    @pytest.mark.parametrize("c1, c2", [(1e-300, 1e300), (1e-320, 1.0)])
    def test_regime_ratio_underflow_refused(self, c1, c2):
        # 0 would read as the p1 < p2 limit, a subnormal as a value
        s = TSpec(builtin("greenwood"), 5, "overlapping")
        with pytest.raises(DomainError, match="underflows"):
            pitman_are(s, s, GrowthRegime(c1, 0.5), GrowthRegime(c2, 0.5))
        assert pitman_are(s, s, GrowthRegime(c1, 0.4),
                          GrowthRegime(c2, 0.5)).value == 0.0

    def test_unknown_mode_refused(self):
        # the regime factor is looked up by mode
        with pytest.raises(DomainError, match="mode must be"):
            TSpec(builtin("greenwood"), 5, "both")

    def test_partial_regime_rejected(self):
        with pytest.raises(DomainError):
            pitman_are(TSpec(builtin("greenwood"), 5, "overlapping"),
                       TSpec(builtin("greenwood"), 5, "disjoint"),
                       GrowthRegime(1, 0.5), None)


class TestCltCondition:
    def test_n_scaling_factor_two(self):
        h = builtin("greenwood")
        a = clt_condition_ratio(h, 10, 10_000, 3.0, seed=5)
        b = clt_condition_ratio(h, 10, 40_000, 3.0, seed=5)
        assert a.ratio_sigma_half_power / b.ratio_sigma_half_power == \
            pytest.approx(2.0, rel=1e-12)
        assert a.ratio_sigma_full_power / b.ratio_sigma_full_power == \
            pytest.approx(2.0, rel=1e-12)

    def test_monotone_in_n(self):
        h = builtin("greenwood")
        a = clt_condition_ratio(h, 10, 10 ** 4, 3.0, seed=5)
        b = clt_condition_ratio(h, 10, 10 ** 6, 3.0, seed=5)
        assert b.ratio_sigma_half_power < a.ratio_sigma_half_power

    def test_moran_positive_finite(self):
        rep = clt_condition_ratio(builtin("moran"), 20, 10 ** 4, 3.0, seed=5)
        assert 0 < rep.ratio_sigma_half_power < math.inf
        assert 0 < rep.ratio_sigma_full_power < math.inf
        # the two normalizations differ exactly by sigma^(r/2)
        sig_half = rep.ratio_sigma_half_power / rep.ratio_sigma_full_power
        expected = moments(builtin("moran"), 20).sigma2 ** (3.0 / 4.0)
        assert sig_half == pytest.approx(expected, rel=1e-12)

    def test_disjoint_mode(self):
        rep = clt_condition_ratio(builtin("moran"), 10, 10 ** 4, 3.0,
                                  mode="disjoint", seed=5)
        assert 0 < rep.ratio_sigma_half_power < math.inf

    def test_r_domain(self):
        with pytest.raises(DomainError):
            clt_condition_ratio(builtin("greenwood"), 5, 1000, 2.0)


class TestClosedFormMoments:
    def test_greenwood_m5(self):
        ms = moments(builtin("greenwood"), 5)
        assert ms.sigma2 == pytest.approx(220.0)
        assert ms.sigma_star2 == pytest.approx(60.0)
        assert ms.mu == 1.0 and ms.source == "closed_form"

    def test_moran_m1_equality(self):
        ms = moments(builtin("moran"), 1)
        assert ms.sigma2 == pytest.approx(ms.sigma_star2, rel=1e-12)
        assert ms.sigma2 == pytest.approx(ZETA2_1 - 1.0, abs=1e-11)

    def test_entropy_validated_against_quadrature(self):
        ms = moments(builtin("entropy"), 2)
        assert ms.source == "closed_form"
        assert ms.sigma_star2 == pytest.approx(0.3696044010893586, abs=1e-9)
        assert ms.sigma2 == pytest.approx(0.6088132032680759, abs=1e-9)

    def test_unknown_family(self):
        # rao's lag sum has no closed form: it comes from a Laguerre series
        assert moments(builtin("rao", m=3), 3).source == "series"

    def test_entropy_needs_no_quadrature(self):
        # a fresh interpreter: no moment, rule or other cache is warm
        code = ("import spacings_gof.asymptotics as a\n"
                "from spacings_gof import builtin\n"
                "def boom(*args):\n"
                "    raise AssertionError('quadrature route called')\n"
                "a._quadrature_moment_set = boom\n"
                "print(a.moments(builtin('entropy'), 7).source)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env={"PATH": os.environ.get("PATH", ""),
                                           "PYTHONPATH": PACKAGE_ROOT})
        assert r.returncode == 0, r.stderr
        assert r.stdout == "closed_form\n"

    @pytest.mark.parametrize("d,name", [(0.0, "entropy"), (-1.0, "moran")])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 100, 1000])
    def test_pd_limit_members_take_the_closed_form(self, d, name, m):
        # psi_0 is x log x and psi_(-1) is -log x: the very functions of
        # entropy and moran
        got = moments(make_power_divergence(d), m)
        want = moments(builtin(name), m)
        assert got.h_name == f"pd:{d:g}"
        assert replace(got, h_name=want.h_name) == want

    def test_greenwood_sigma2_correctly_rounded_at_1e6(self):
        m = 10 ** 6
        assert moments(builtin("greenwood"), m).sigma2 == \
            float(Fraction(2 * m * (m + 1) * (2 * m + 1), 3))


class TestMomentSetContracts:
    def test_json_field_order(self):
        d = moments(builtin("greenwood"), 2).to_json_dict()
        assert list(d) == ["m", "h", "mean_h", "tau", "sigma2", "sigma_star2",
                           "mu", "source"]

    def test_cache_returns_same_object(self):
        h = builtin("moran")
        assert moments(h, 3) is moments(h, 3)

    @pytest.mark.parametrize("name", ["greenwood", "moran", "entropy", "rao",
                                      "pd:0.5", "pd:2"])
    def test_cressie_inequality_small_grid(self, name):
        for m in (1, 2, 5, 10):
            ms = moments(from_name(name, m=m), m)
            assert m * ms.sigma_star2 >= ms.sigma2 * (1 - 1e-9) - 1e-9

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 25, 50])
    def test_greenwood_quadrature_reproduces_algebra(self, m):
        ms = moments(quadrature_route(builtin("greenwood")), m)
        assert ms.sigma2 == pytest.approx(2 * m * (m + 1) * (2 * m + 1) / 3, rel=1e-9)
        assert ms.sigma_star2 == pytest.approx(2 * m * (m + 1), rel=1e-9)
        assert ms.tau == pytest.approx(2 * (m + 1), rel=1e-9)
        assert ms.mean_h == pytest.approx(m * (m + 1), rel=1e-9)


    @pytest.mark.parametrize("field", ["mean_h", "tau", "sigma2",
                                       "sigma_star2", "mu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_field(self, field, bad):
        fields = dict(m=2, h_name="greenwood", mean_h=6.0, tau=6.0,
                      sigma2=20.0, sigma_star2=12.0, mu=1.0, source="test")
        fields[field] = bad
        with pytest.raises(InternalConsistencyError):
            MomentSet(**fields)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "3", 0])
    def test_m_must_be_a_positive_integer(self, m):
        with pytest.raises(DomainError):
            moments(builtin("greenwood"), m)
        with pytest.raises(DomainError):
            efficacy(builtin("greenwood"), m, "disjoint")

    def test_source_is_auto_or_quadrature(self):
        # the route follows from h alone; moments takes no source to force
        # one (the tests' reference quadrature is oracles.quadrature_route)
        with pytest.raises(TypeError):
            moments(builtin("greenwood"), 2, source="quadrature")

    def test_exact_route_stops_before_the_lag_sum(self, monkeypatch):
        # sigma*^2 of pd:90 at m = 200 is past the float range; the exact
        # route says so and never falls through to the lag quadrature
        import spacings_gof.asymptotics as asy

        def boom(*args):
            raise AssertionError("lag quadrature entered")

        monkeypatch.setattr(asy, "_quadrature_moment_set", boom)
        with pytest.raises(DomainError, match="floating-point range"):
            moments(from_name("pd:90"), 200)

    @pytest.mark.parametrize("m", [5, 50])
    def test_affine_to_roundoff_is_refused_before_the_lag_sum(self, m,
                                                              monkeypatch):
        # sigma*^2 of x + 1e-9 x^2 is 2e-18 m (m + 1), below the roundoff of
        # var h - m tau^2: refused at once, with no warning and no lag
        import warnings

        import spacings_gof.asymptotics as asy

        def boom(*args, **kwargs):
            raise AssertionError("lag quadrature entered")

        monkeypatch.setattr(asy, "gamma_joint_expectation", boom)
        h = TuningFunction(name="near-affine", family="user",
                           eval_fn=lambda x: x + 1e-9 * x * x)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="zero to roundoff"):
                moments(h, m)
        assert caught == []

    @pytest.mark.parametrize("name,m,star,mu,sigma2", [
        ("pd:0.0001", 10, 0.4685041904449463, 0.9852218960560789,
         3.2564964294433594),
        ("pd:0.001", 1000, 0.5082383155822754, 0.9982388784938565,
         344.2979736328125),
    ], ids=["pd:0.0001-m10", "pd:0.001-m1000"])
    def test_large_linear_term_is_not_roundoff(self, name, m, star, mu,
                                               sigma2):
        # the raw pd:d form carries (x - 1)/d, so var h is about m/d^2
        # while sigma*^2 stays near entropy's 1/2: the zero band is set by
        # the roundoff of E h^2, not by var h; values as computed before
        # the band existed
        ms = moments(from_name(name), m)
        assert ms.sigma_star2 == pytest.approx(star, rel=1e-12)
        assert ms.mu == pytest.approx(mu, rel=1e-12)
        assert ms.sigma2 == pytest.approx(sigma2, rel=1e-12)

    def test_sigma_star_far_below_zero_is_internal(self, monkeypatch):
        # a sigma*^2 below the roundoff band blames the quadrature, not h
        import spacings_gof.asymptotics as asy

        real, calls = asy._expect, []

        def low_second_moment(h, f, m):
            calls.append(None)
            return real(h, f, m) - (1.0 if len(calls) == 2 else 0.0)

        monkeypatch.setattr(asy, "_expect", low_second_moment)
        h = TuningFunction(name="x + x^2/10 (low E h^2)", family="user",
                           eval_fn=lambda x: x + 0.1 * x * x)
        with pytest.raises(InternalConsistencyError, match="beyond roundoff"):
            moments(h, 3)


class TestAffineInvariance:
    @pytest.mark.parametrize("name", ["moran", "entropy"])
    @pytest.mark.parametrize("m", [2, 5])
    def test_mu_and_efficacy_invariant(self, name, m):
        h = builtin(name)
        g = affine_shift(h, 2.0, -3.0, 7.0)
        assert moments(g, m).mu == pytest.approx(moments(h, m).mu, rel=1e-9)
        for mode in ("overlapping", "disjoint"):
            assert efficacy(g, m, mode).e2 == pytest.approx(
                efficacy(h, m, mode).e2, rel=1e-9)


class TestRaoSeries:
    """rao's moments: closed forms for all but sigma^2, whose lag sum is a
    Laguerre series; mpmath quadrature and closed forms are the oracles."""

    def test_every_field_against_mpmath_lag_quadrature(self):
        pytest.importorskip("mpmath")
        from oracles import rao_lag_oracle

        ms = moments(builtin("rao", m=20), 20)
        for field, want in rao_lag_oracle(20).items():
            assert getattr(ms, field) == pytest.approx(float(want),
                                                       rel=1e-12), field

    @pytest.mark.parametrize("m", [1, 2, 3, 300, 10_000])
    def test_closed_fields_against_mpmath(self, m):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            M = mp.mpf(m)
            d = M ** (M + 1) * mp.exp(-M) / mp.gamma(M)
            mean = 2 * d / M
            tau = 1 - 2 * mp.gammainc(M + 1, 0, M, regularized=True)
            star = M - mean ** 2 - M * tau ** 2
            mu = mp.sqrt(2 * d * d / (M * (M + 1)) / star)
        ms = moments(builtin("rao", m=m), m)
        for field, want in (("mean_h", mean), ("tau", tau),
                            ("sigma_star2", star), ("mu", mu)):
            assert getattr(ms, field) == pytest.approx(float(want),
                                                       rel=1e-12), field

    @pytest.mark.parametrize("m", [2000, 10_000])
    def test_mean_absolute_deviation(self, m):
        # E|Z - m| = 2 m^m e^-m / Gamma(m) = 2 sqrt(m / (2 pi)) e^-r(m), with
        # r the Stirling series of log Gamma
        r = 1.0 / (12 * m) - 1.0 / (360 * m ** 3) + 1.0 / (1260 * m ** 5)
        want = 2.0 * math.sqrt(m / (2.0 * math.pi)) * math.exp(-r)
        assert moments(builtin("rao", m=m), m).mean_h == pytest.approx(
            want, rel=1e-14)

    def test_other_order_is_refused(self):
        # the series is that of |x - m| at the order m it is built for
        with pytest.raises(DomainError, match=r"m = 3\b.*m = 5\b"):
            moments(builtin("rao", m=3), 5)


#: every builtin but rao (which normalized scaling refuses), with the
#: power-divergence members of each evaluation band
NORMALIZED_NAMES = ["greenwood", "moran", "entropy", "pd:0", "pd:-1", "pd:0.5",
                    "pd:-0.5", "pd:2", "pd:1e-7", "pd:-0.9999999"]


class TestNormalizedImage:
    @pytest.mark.parametrize("name", NORMALIZED_NAMES)
    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_matches_quadrature_of_scaled_argument(self, name, m):
        # a normalized statistic applies h(x/m) to n D: its standardization
        # is that of the by-n statistic of h(x/m), and its efficacy that of h
        h, n = from_name(name), 3 * m
        ref = moments(argument_scaled(h, m), m)
        assert ref.source == "quadrature"
        for mode in ("overlapping", "disjoint"):
            count, var = (n, ref.sigma2) if mode == "overlapping" else \
                (n // m, ref.sigma_star2)
            center, scale = standardization(
                h, SpacingsPlan(m, mode, "normalized"), n)
            assert center == pytest.approx(count * ref.mean_h, rel=1e-10), mode
            assert scale == pytest.approx(math.sqrt(var * count),
                                          rel=1e-10), mode
            assert efficacy(h, m, mode).e2 == pytest.approx(
                efficacy(argument_scaled(h, m), m, mode).e2, rel=1e-10), mode

    @pytest.mark.parametrize("name", ["moran", "entropy"])
    @pytest.mark.parametrize("m", [1, 10, 1000, 1_000_000])
    def test_log_family_mean_and_tau_against_mpmath(self, name, m):
        mp = pytest.importorskip("mpmath")
        # E -log(Z/m) = log m - psi(m); E (Z/m) log(Z/m) = psi(m+1) - log m
        with mp.workdps(40):
            r = mp.log(m) - mp.digamma(m)
            mean = r if name == "moran" else 1 / mp.mpf(m) - r
        center, _ = standardization(
            builtin(name), SpacingsPlan(m, "disjoint", "normalized"), m * 2)
        assert center / 2 == pytest.approx(float(mean), rel=1e-13)

    @pytest.mark.parametrize("name", ["moran", "entropy"])
    def test_log_families_need_no_quadrature(self, name, monkeypatch):
        import spacings_gof.asymptotics as asy

        def boom(*args):
            raise AssertionError("quadrature entered")

        monkeypatch.setattr(asy, "_quadrature_moment_set", boom)
        for mode in ("overlapping", "disjoint"):
            center, scale = standardization(
                builtin(name), SpacingsPlan(1000, mode, "normalized"), 2000)
            assert math.isfinite(center) and scale > 0


class TestExtremeOrder:
    """Pinned values at large m.  The constants are 50-digit mpmath values of
    the zeta-function closed forms, computed once with mp.dps = 50 (mpmath is
    not a dependency), e.g. moran sigma^2 =
    (2m^2 - 2m + 1) mp.zeta(2, m) - 2m + 1 and e^2 = (m+1) sigma*^2 mu^2 /
    (2 sigma^2) with mu^2 = 1 / (2m(m+1) sigma*^2)."""

    M = 1_000_000

    @pytest.mark.parametrize("name, expected", [
        # 3(m+1) / (2(2m+1)) at m = 1e6
        ("greenwood", 3000003 / 4000002),
        ("pd:1", 3000003 / 4000002),
        ("moran", 0.7499996249999625),
        ("entropy", 0.75000018749989688),
    ])
    def test_overlapping_efficacy_at_1e6(self, name, expected):
        assert efficacy(from_name(name), self.M, "overlapping").e2 == \
            pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("name, m, overlapping, disjoint", [
        # entropy: m / (4 sigma^2) and 1 / (4 sigma*^2); moran:
        # 1 / (4 m sigma^2) and 1 / (4 m^2 sigma*^2)
        ("entropy", 100_000, 0.75000187498968751, 0.50000333333888885),
        ("entropy", 300_000, 0.75000062499885417, 0.50000111111172839),
        ("moran", 100_000, 0.74999624999624998, 0.4999983333388889),
        ("moran", 300_000, 0.74999874999958333, 0.49999944444506173),
    ])
    def test_zeta_family_efficacy_both_modes(self, name, m, overlapping,
                                             disjoint):
        # the closed forms alone; a centred quadrature did not converge here
        h = from_name(name)
        assert efficacy(h, m, "overlapping").e2 == \
            pytest.approx(overlapping, rel=1e-12)
        assert efficacy(h, m, "disjoint").e2 == pytest.approx(disjoint, rel=1e-12)

    @pytest.mark.parametrize("family, m, sigma2, sigma_star2", [
        # moran: sigma*^2 = zeta(2, m) - 1/m
        ("moran", 10_000, 3.3335000100006667e-5, None),
        ("moran", 1_000_000, 3.333335000001e-7, 5.0000016666666667e-13),
        # entropy: sigma*^2 = m(m+1) zeta(2, m+1) - m, sigma^2 =
        # (m(m+1))^2/2 zeta(2, m+2) - m(m+1)(2m-1)/4
        ("entropy", 10_000, 3333.2500066663333, None),
        ("entropy", 1_000_000, 333333.25000006667, 0.49999966666683333),
    ])
    def test_closed_form_moments(self, family, m, sigma2, sigma_star2):
        ms = moments(builtin(family), m)
        assert ms.sigma2 == pytest.approx(sigma2, rel=1e-12)
        if sigma_star2 is not None:
            assert ms.sigma_star2 == pytest.approx(sigma_star2, rel=1e-12)

    @pytest.mark.parametrize("name", ["greenwood", "pd:1", "pd:2", "pd:3",
                                      "pd:12"])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 17])
    def test_exact_lag_sum_matches_direct_sum(self, name, m):
        # the Laguerre series against the moments written out term by term
        from spacings_gof.asymptotics import _power_series

        A, a, B = from_name(name).power
        c = [B] + [0] * (a - 1) + [A]
        mean, tau, star, lag, _ = _power_series((A, a, B), m)

        def ez(p):  # E Z^p for Z ~ Gamma(m)
            return math.prod(range(m, m + p))

        e1 = A * ez(a) + B
        var = A * A * ez(2 * a) + 2 * A * B * ez(a) + B * B - e1 * e1
        assert mean == e1
        assert tau == A * (ez(a + 1) - m * ez(a)) / m
        assert star == var - m * tau * tau
        direct = sum(_joint_by_expansion(c, m, j) - e1 * e1 for j in range(1, m))
        # the sigma^2 that _series_moment_set assembles from the series
        assert star + (2 * m - 2) * lag == var + 2 * direct - m * m * tau * tau


def _joint_by_expansion(c, m, j):
    """E[c(Z_0) c(Z_j)] term by term: E (A+B)^k (B+C)^l expanded binomially,
    with E X^p = rising(shape, p) for X ~ Gamma(shape)."""
    def rising(s, p):
        return math.prod(range(s, s + p))

    tot = 0
    for k, ck in enumerate(c):
        for l, cl in enumerate(c):
            for i in range(k + 1):
                for t in range(l + 1):
                    tot += ck * cl * math.comb(k, i) * rising(j, k - i) \
                        * math.comb(l, t) * rising(j, l - t) * rising(m - j, i + t)
    return tot

import math

import numpy as np
import pytest

from spacings_gof import TestSpec as TSpec
from spacings_gof import (
    DegenerateSpacingError,
    DomainError,
    SimulationConfig,
    SpacingsPlan,
    builtin,
    correlation_study,
    empirical_moment_check,
    make_alternative,
    mu_m,
    null_distribution_study,
    power_study,
    sample_size_match,
    substream,
)
from spacings_gof.montecarlo import replicate
from spacings_gof.serialize import dumps_stable
from spacings_gof.tuning import TuningFunction


def null_cfg(**kw):
    args = dict(n=1000, plan=SpacingsPlan(m=5), h=builtin("greenwood"),
                model=None, reps=400, master_seed=1234)
    args.update(kw)
    return SimulationConfig(**args)


class TestSubstreams:
    def test_same_key_same_stream(self):
        a = substream(7, 3).standard_exponential(5)
        b = substream(7, 3).standard_exponential(5)
        np.testing.assert_array_equal(a, b)

    def test_different_rep_different_stream(self):
        a = substream(7, 3).standard_exponential(5)
        b = substream(7, 4).standard_exponential(5)
        assert not np.array_equal(a, b)


class TestNullStudy:
    def test_deterministic_report(self):
        r1 = null_distribution_study(null_cfg())
        r2 = null_distribution_study(null_cfg())
        assert dumps_stable(r1.to_json_dict()) == dumps_stable(r2.to_json_dict())

    def test_thread_count_invariance(self, monkeypatch):
        monkeypatch.setenv("SPACINGS_GOF_THREADS", "1")
        r1 = null_distribution_study(null_cfg())
        monkeypatch.setenv("SPACINGS_GOF_THREADS", "5")
        r2 = null_distribution_study(null_cfg())
        assert dumps_stable(r1.to_json_dict()) == dumps_stable(r2.to_json_dict())

    def test_standardized_moments_near_normal(self):
        rep = null_distribution_study(
            null_cfg(n=2000, plan=SpacingsPlan(m=10), reps=1500))
        assert abs(rep.empirical_mean) < 3.0 / math.sqrt(1500) * 1.5
        assert rep.empirical_var == pytest.approx(1.0, abs=0.15)
        assert rep.ks_to_normal < 0.08

    def test_small_case_pushforward(self):
        # n=2, m=1: V = 4U^2 + 4(1-U)^2 exactly
        raw, _ = replicate(2, None, [(SpacingsPlan(m=1), builtin("greenwood"))],
                           2000, 1234)
        u = (np.arange(500_000) + 0.5) / 500_000
        oracle = np.sort(4 * u ** 2 + 4 * (1 - u) ** 2)
        samp = np.sort(raw[:, 0])
        c = np.searchsorted(oracle, samp, side="right") / oracle.size
        i = np.arange(1, samp.size + 1)
        ks = max((i / samp.size - c).max(), (c - (i - 1) / samp.size).max())
        assert ks < 0.05

    def test_rejects_model(self):
        model = make_alternative("cosine", (1, 1.0), 1000, 5)
        with pytest.raises(DomainError):
            null_distribution_study(null_cfg(model=model))

    def test_mismatched_model_shape(self):
        model = make_alternative("cosine", (1, 1.0), 500, 5)
        with pytest.raises(DomainError):
            SimulationConfig(n=1000, plan=SpacingsPlan(m=5),
                             h=builtin("greenwood"), model=model, reps=200,
                             master_seed=1)

    def test_reps_floor(self):
        with pytest.raises(DomainError):
            null_cfg(reps=50)


class TestPowerStudy:
    def test_zero_theta_recovers_size(self):
        model = make_alternative("cosine", (1, 0.0), 1000, 5)
        rep = power_study(null_cfg(model=model, reps=1200))
        se = math.sqrt(0.05 * 0.95 / 1200)
        assert abs(rep.rejection_rate - 0.05) < 3 * se

    def test_monotone_in_theta(self):
        rates = []
        ses = []
        for theta in (0.0, 1.0, 2.0):
            model = make_alternative("cosine", (1, theta), 1000, 10)
            rep = power_study(SimulationConfig(
                n=1000, plan=SpacingsPlan(m=10), h=builtin("greenwood"),
                model=model, reps=1200, master_seed=99))
            rates.append(rep.rejection_rate)
            ses.append(rep.rejection_se)
        for i in range(2):
            joint = math.hypot(ses[i], ses[i + 1])
            assert rates[i + 1] > rates[i] - 2 * joint
        assert rates[2] > rates[0]

    def test_predicted_power_present(self):
        model = make_alternative("cosine", (1, 2.0), 1000, 10)
        rep = power_study(SimulationConfig(
            n=1000, plan=SpacingsPlan(m=10), h=builtin("greenwood"),
            model=model, reps=400, master_seed=5))
        assert 0.05 < rep.predicted_power < 1.0


class TestCorrelationStudy:
    def test_greenwood_exactly_one(self):
        rep = correlation_study(builtin("greenwood"), 5, 500, 300, 21)
        assert rep.correlations["empirical"] == pytest.approx(1.0, abs=1e-12)

    def test_moran_close_to_mu(self):
        rep = correlation_study(builtin("moran"), 5, 2000, 1500, 21)
        mu = mu_m(builtin("moran"), 5)
        assert rep.correlations["mu_m"] == pytest.approx(mu, rel=1e-12)
        assert abs(rep.correlations["empirical"] - mu) < 0.08

    def test_divisibility(self):
        with pytest.raises(DomainError):
            correlation_study(builtin("moran"), 3, 1000, 300, 2)


class TestEmpiricalMomentCheck:
    def test_null_mean_ratio(self):
        rep = empirical_moment_check(
            null_cfg(n=1000, plan=SpacingsPlan(m=2), reps=1500))
        assert rep.deviations["mean_ratio"] == pytest.approx(1.0, abs=0.02)

    def test_alt_mean_shift_sign(self):
        model = make_alternative("cosine", (1, 2.0), 1000, 10)
        rep = empirical_moment_check(SimulationConfig(
            n=1000, plan=SpacingsPlan(m=10), h=builtin("greenwood"),
            model=model, reps=1500, master_seed=17))
        mu = mu_m(builtin("greenwood"), 10)
        assert math.copysign(1, rep.deviations["mean_shift"]) == \
            math.copysign(1, mu * model.l2norm2)

    def test_variance_ratio(self):
        rep = empirical_moment_check(
            null_cfg(n=4000, plan=SpacingsPlan(m=10), reps=1500))
        assert rep.deviations["var_ratio"] == pytest.approx(1.0, abs=0.12)


def flaky_square(bad_calls):
    """x^2 whose eval_fn raises DegenerateSpacingError on the listed calls,
    counted from 0 once the function is built."""
    calls = None

    def eval_fn(x):
        nonlocal calls
        if calls is not None:
            calls += 1
            if calls - 1 in bad_calls:
                raise DegenerateSpacingError("tie", index=0)
        return x * x

    h = TuningFunction(name="flaky", family="flaky", eval_fn=eval_fn)
    calls = 0
    return h


class TestReplicate:
    def test_columns_are_statistics(self):
        plan = SpacingsPlan(m=2)
        stats = [(plan, builtin("greenwood")), (plan, builtin("moran"))]
        raw, bad = replicate(50, None, stats, 3, 9)
        assert raw.shape == (3, 2) and bad == 0
        for i, stat in enumerate(stats):
            one, _ = replicate(50, None, [stat], 3, 9)
            np.testing.assert_array_equal(raw[:, i], one[:, 0])

    def test_no_reps_floor(self):
        raw, _ = replicate(20, None, [(SpacingsPlan(m=1), builtin("greenwood"))],
                           10, 1)
        assert raw.shape == (10, 1)


class TestDegenerateHandling:
    def test_abort_over_threshold(self):
        # 10 of 1000 replications (1%) degenerate
        h = flaky_square(set(range(0, 1000, 100)))
        with pytest.raises(DegenerateSpacingError):
            replicate(20, None, [(SpacingsPlan(m=1), h)], 1000, 1)

    def test_tolerated_below_threshold(self):
        # 1 of 2000 replications degenerate
        h = flaky_square({0})
        out, bad = replicate(20, None, [(SpacingsPlan(m=1), h)], 2000, 1)
        assert bad == 1 and np.isnan(out[0, 0])
        assert np.all(np.isfinite(out[1:]))


class TestSampleSizeMatch:
    def test_identical_specs_near_one(self):
        spec = TSpec(builtin("greenwood"), 5, "overlapping")
        res = sample_size_match(spec, spec, 0.5, 0.05, reps=800, master_seed=3)
        assert 0.75 < res.ratio < 1.35
        assert res.ci_low < 1.0 < res.ci_high or abs(res.ratio - 1) < 0.2

    def test_target_domain(self):
        spec = TSpec(builtin("greenwood"), 5, "overlapping")
        with pytest.raises(DomainError):
            sample_size_match(spec, spec, 0.04, 0.05)

import math

import numpy as np
import pytest

from spacings_gof import TestSpec as TSpec
from spacings_gof import (
    DegenerateSpacingError,
    DomainError,
    SimulationConfig,
    SortedSample,
    SpacingsPlan,
    builtin,
    correlation_study,
    empirical_moment_check,
    from_name,
    inverse_cdf,
    make_alternative,
    moments,
    montecarlo,
    null_distribution_study,
    parse_path,
    power_study,
    sample_size_match,
    statistic,
    substream,
)
from oracles import ks_distance_reference
from spacings_gof.montecarlo import ks_distance_to_normal, replicate, sample_blocks
from spacings_gof.serialize import dumps_stable


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


class TestMasterSeedRange:
    # the Philox key holds 64 bits: -1 would run the stream of 2^64 - 1
    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5, 2.5])
    def test_refused_at_every_entry_point(self, seed):
        with pytest.raises(DomainError, match="master seed"):
            null_cfg(master_seed=seed)
        with pytest.raises(DomainError, match="master seed"):
            correlation_study(builtin("moran"), 5, 500, 300, seed)
        spec = TSpec(builtin("greenwood"), 5, "overlapping")
        with pytest.raises(DomainError, match="master seed"):
            sample_size_match(spec, spec, 0.6, 0.05, reps=10, master_seed=seed)

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1, np.uint64((1 << 64) - 1)])
    def test_range_ends_accepted(self, seed):
        assert null_cfg(master_seed=seed).master_seed == seed


class TestNullStudy:
    def test_deterministic_report(self):
        r1 = null_distribution_study(null_cfg())
        r2 = null_distribution_study(null_cfg())
        assert dumps_stable(r1.to_json_dict()) == dumps_stable(r2.to_json_dict())

    def test_standardized_moments_near_normal(self):
        rep = null_distribution_study(
            null_cfg(n=2000, plan=SpacingsPlan(m=10), reps=1500))
        assert abs(rep.empirical_mean) < 3.0 / math.sqrt(1500) * 1.5
        assert rep.empirical_var == pytest.approx(1.0, abs=0.15)
        assert rep.ks_to_normal < 0.08

    def test_ks_distance_equals_scipy_formula(self):
        # the oracle evaluates the same formula with mpmath's Phi rounded
        # to doubles; the package's Phi is within a few ulps of it
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        samples = [rng.standard_normal(n) for n in (1, 100, 1999, 2000)]
        samples += [rng.standard_t(3, 5000), 3.0 * rng.standard_normal(4000),
                    rng.standard_normal(3000) - 6.0, np.linspace(-40, 40, 801)]
        for z in samples:
            assert abs(ks_distance_to_normal(z) - ks_distance_reference(z)) <= 1e-15

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
        mu = moments(builtin("moran"), 5).mu
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
        mu = moments(builtin("greenwood"), 10).mu
        assert math.copysign(1, rep.deviations["mean_shift"]) == \
            math.copysign(1, mu * model.l2norm2)

    def test_variance_ratio(self):
        rep = empirical_moment_check(
            null_cfg(n=4000, plan=SpacingsPlan(m=10), reps=1500))
        assert rep.deviations["var_ratio"] == pytest.approx(1.0, abs=0.12)


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
    # m = 1: a zero exponential ties two observations, a zero spacing
    MORAN = (SpacingsPlan(m=1), builtin("moran"))

    def test_abort_over_threshold(self, zero_draws):
        # 10 of 1000 replications (1%) degenerate
        zero_draws(range(0, 1000, 100))
        with pytest.raises(DegenerateSpacingError):
            replicate(20, None, [self.MORAN], 1000, 1)

    def test_tolerated_below_threshold(self, zero_draws):
        # 1 of 2000 replications degenerate
        zero_draws({0})
        out, bad = replicate(20, None, [self.MORAN], 2000, 1)
        assert bad == 1 and np.isnan(out[0, 0])
        assert np.all(np.isfinite(out[1:]))

    def test_degenerate_replication_is_a_nan_row(self, zero_draws):
        # greenwood is defined at 0, but the row is dropped as a whole
        zero_draws({3})
        stats = [(SpacingsPlan(m=1), builtin("greenwood")), self.MORAN]
        out, bad = replicate(20, None, stats, 2000, 1)
        assert bad == 1 and np.isnan(out[3]).all()
        assert np.all(np.isfinite(np.delete(out, 3, axis=0)))


class TestBlockKernel:
    HIGH_SEED = (1 << 63) + 12345

    @pytest.mark.parametrize("path", [None, "cos:1:2.0"])
    @pytest.mark.parametrize("seed", [7, HIGH_SEED])
    def test_rows_are_substreams(self, path, seed):
        # row r: the partial sums of substream(seed, r)'s n exponentials
        # over their total, through F^-1 under the alternative
        n = 300
        model = parse_path(path, n, 10) if path else None
        blocks = list(sample_blocks(n, model, 10, seed, 3))
        assert [r0 for r0, _ in blocks] == [0, 3, 6, 9]
        for r0, x in blocks:
            for i, row in enumerate(x):
                y = substream(seed, r0 + i).standard_exponential(n)
                u = np.cumsum(y[:-1]) / y.sum()
                want = u if model is None else inverse_cdf(model, u)
                assert row.tobytes() == want.tobytes()

    CASES = {  # name -> (path, stats)
        "null": (None, [(SpacingsPlan(m=10), builtin("moran"))]),
        "power": ("cos:1:2.0", [(SpacingsPlan(m=10), builtin("greenwood"))]),
        "power_bump": ("bump:0.5:0.3:6.0",
                       [(SpacingsPlan(m=10), builtin("greenwood"))]),
        "corr": (None, [(SpacingsPlan(m=5, mode="disjoint"), builtin("greenwood")),
                        (SpacingsPlan(m=5, mode="disjoint"), builtin("moran"))]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raw_independent_of_block_size(self, case, monkeypatch):
        n, reps, seed = 600, 50, 5
        path, stats = self.CASES[case]
        model = parse_path(path, n, stats[0][0].m) if path else None
        outs = []
        # 1 row, 3 rows, the default, and one block holding every row
        for elems in (1, 3 * n, montecarlo.BLOCK_ELEMS, 2 * reps * n):
            monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", elems)
            raw, bad = replicate(n, model, stats, reps, seed)
            assert bad == 0
            outs.append(raw.tobytes())
        assert all(out == outs[0] for out in outs[1:])

    @staticmethod
    def gap_sums(y, m, mode):
        # the m-spacings of the null sample that draws y stand for, times
        # their total: sums of m draws, block by block or in circular
        # windows (differences of the partial sums of the extended row)
        n = y.size
        if mode == "disjoint" or m == 1:
            return np.add.reduceat(y, np.arange(0, n, m))
        c = np.concatenate(([0.0], np.cumsum(np.concatenate((y, y[: m - 1])))))
        return c[m: m + n] - c[:n]

    FSUM_CASES = [  # (h, m, mode, alternative path or None)
        ("moran", 10, "overlapping", None), ("greenwood", 10, "disjoint", None),
        ("entropy", 3, "overlapping", None), ("pd:0.5", 4, "disjoint", None),
        ("rao", 5, "overlapping", None),
        ("greenwood", 10, "overlapping", "cos:1:2.0"),
        ("moran", 4, "disjoint", "bump:0.5:0.3:6.0"),
    ]

    @pytest.mark.parametrize("name, m, mode, path", FSUM_CASES, ids=[
        "-".join(str(v) for v in case if v is not None) for case in FSUM_CASES])
    def test_statistic_matches_fsum_oracle(self, name, m, mode, path):
        # pairwise row sums against math.fsum of the same terms.  Null rows
        # are sums of the draws, and `test` (spacings.statistic on the
        # order statistics) agrees with them to rounding; alternative rows
        # are differences of the order statistics through F^-1, and `test`
        # gives their bits
        n, reps, seed = 4000, 20, 11
        plan, h = SpacingsPlan(m=m, mode=mode), from_name(name, m=m)
        model = parse_path(path, n, m) if path else None
        raw, _ = replicate(n, model, [(plan, h)], reps, seed)
        for r in range(reps):
            y = substream(seed, r).standard_exponential(n)
            x = np.cumsum(y[:-1]) / y.sum()
            if model is None:
                terms = h.eval_fn(n / y.sum() * self.gap_sums(y, m, mode))
                assert np.sum(terms) == raw[r, 0]
            else:
                x = inverse_cdf(model, x)
                ext = np.concatenate(([0.0], x, [1.0], 1.0 + x[: m - 1]))
                d = ext[m: m + n] - ext[:n] if mode == "overlapping" \
                    else np.diff(ext[: n + 1][::m])
                terms = h.eval_fn(n * d)
            want = math.fsum(terms)
            assert abs(raw[r, 0] - want) <= 1e-12 * abs(want)
            got = statistic(SortedSample(values=x), plan, h)
            if model is None:
                assert abs(got - raw[r, 0]) <= 1e-12 * abs(raw[r, 0])
            else:
                assert got == raw[r, 0]

    def test_unit_windows_are_the_draws(self):
        # at m = 1 an overlapping spacing is one draw over the total, not a
        # difference of partial sums, so moran's log of a tiny spacing keeps
        # its digits (the order statistics lose up to 5e-12 of it here)
        n, reps, seed = 4000, 20, 11
        moran = builtin("moran")
        raw, _ = replicate(n, None, [(SpacingsPlan(m=1), moran),
                                     (SpacingsPlan(m=1, mode="disjoint"), moran)],
                           reps, seed)
        assert raw[:, 0].tobytes() == raw[:, 1].tobytes()
        for r in range(reps):
            y = substream(seed, r).standard_exponential(n)
            # the sum of -log(n y_k / S), with S correctly rounded
            want = n * math.log(math.fsum(y)) - math.fsum(np.log(n * y))
            assert abs(raw[r, 0] - want) <= 1e-13 * abs(want)


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

    def test_each_search_simulates_at_most_6_times_on_one_seed(self, monkeypatch):
        calls = []
        sim = montecarlo._sim_power

        def spy(spec, n, model, alpha, reps, seed):
            calls.append((spec.mode, seed))
            return sim(spec, n, model, alpha, reps, seed)

        monkeypatch.setattr(montecarlo, "_sim_power", spy)
        specs = (TSpec(builtin("greenwood"), 10, "overlapping"),
                 TSpec(builtin("greenwood"), 10, "disjoint"))
        for master_seed in range(1000, 1008):
            calls.clear()
            res = sample_size_match(*specs, 0.6, 0.05, reps=10,
                                    master_seed=master_seed)
            for mode in ("overlapping", "disjoint"):
                seeds = [seed for m, seed in calls if m == mode]
                assert 1 <= len(seeds) <= 6 and len(set(seeds)) == 1
            # the log-scale CI stays positive even at 10 reps
            assert 0 < res.ci_low < res.ratio < res.ci_high

    def test_refuses_a_matched_power_of_0_or_1(self):
        # one replication simulates a power of exactly 0 or 1, which has no
        # binomial variance for the delta-method CI
        spec = TSpec(builtin("greenwood"), 5, "overlapping")
        with pytest.raises(DomainError,
                           match="target power 0.6 with reps=1: matched"):
            sample_size_match(spec, spec, 0.6, 0.05, reps=1, master_seed=1)

    def test_unreachable_target_raises_past_the_cap(self, monkeypatch):
        # zero power quadruples n each step, from about 1e4 past 2^22
        monkeypatch.setattr(montecarlo, "_sim_power", lambda *args: 0.0)
        spec = TSpec(builtin("greenwood"), 10, "overlapping")
        with pytest.raises(DomainError, match="unreachable"):
            sample_size_match(spec, spec, 0.99, 0.05, reps=10)

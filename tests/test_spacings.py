import math

import numpy as np
import pytest

from spacings_gof import (
    DegenerateSpacingError,
    DomainError,
    SpacingsPlan,
    builtin,
    make_power_divergence,
    read_sample_file,
    statistic,
    validate_sample,
)
from spacings_gof.spacings import spacings

SAMPLE3 = [0.25, 0.5, 0.75]


class TestValidateSample:
    def test_single_point(self):
        s = validate_sample([0.5])
        assert s.n == 2 and not s.has_ties

    def test_sorts(self):
        s = validate_sample([0.25, 0.75, 0.5])
        assert s.n == 4
        assert list(s.values) == SAMPLE3

    def test_range_error(self):
        with pytest.raises(DomainError):
            validate_sample([1.2])

    def test_empty(self):
        with pytest.raises(DomainError):
            validate_sample([])

    def test_tie_flag(self):
        assert validate_sample([0.3, 0.3, 0.8]).has_ties


class TestSampleFile:
    def test_roundtrip_with_header(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# n=4\n0.25\n0.5\n0.75\n")
        assert read_sample_file(p).n == 4

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# n=9\n0.25\n0.5\n")
        with pytest.raises(DomainError):
            read_sample_file(p)

    def test_bad_line_named(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0.25\nnot-a-number\n")
        with pytest.raises(DomainError, match="line 2"):
            read_sample_file(p)


class TestOverlapping:
    def test_equally_spaced_m1(self):
        d = spacings(validate_sample(SAMPLE3), 1, "overlapping")
        np.testing.assert_allclose(d, 0.25)

    def test_circular_m2(self):
        # uses X_5 = 1 + X_1 = 1.25: every 2-spacing is 0.5
        d = spacings(validate_sample(SAMPLE3), 2, "overlapping")
        np.testing.assert_allclose(d, 0.5)

    def test_m_equals_n_minus_1_mass(self):
        rng = np.random.default_rng(3)
        s = validate_sample(rng.uniform(size=9))
        d = spacings(s, s.n - 1, "overlapping")
        assert math.fsum(d) == pytest.approx(s.n - 1, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_total_mass_is_m(self, m):
        rng = np.random.default_rng(m)
        s = validate_sample(rng.uniform(size=19))
        d = spacings(s, m, "overlapping")
        assert d.size == s.n
        assert math.fsum(d) == pytest.approx(m, abs=1e-12)

    def test_m_out_of_range(self):
        with pytest.raises(DomainError):
            spacings(validate_sample(SAMPLE3), 4, "overlapping")

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            spacings(validate_sample(SAMPLE3), 1, "circular")

    @pytest.mark.parametrize("m", [2.5, True])
    def test_non_integer_order_refused_by_the_plan(self, m):
        with pytest.raises(DomainError, match="m must be >= 1 and an integer"):
            SpacingsPlan(m)


class TestDisjoint:
    def test_m2(self):
        d = spacings(validate_sample(SAMPLE3), 2, "disjoint")
        np.testing.assert_allclose(d, [0.5, 0.5])

    def test_whole_interval(self):
        d = spacings(validate_sample(SAMPLE3), 4, "disjoint")
        np.testing.assert_allclose(d, [1.0])

    def test_divisibility(self):
        with pytest.raises(DomainError):
            spacings(validate_sample(SAMPLE3), 3, "disjoint")

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_total_mass_is_one(self, m):
        rng = np.random.default_rng(m + 7)
        s = validate_sample(rng.uniform(size=9))  # n = 10
        d = spacings(s, m, "disjoint")
        assert d.size == s.n // m
        assert math.fsum(d) == pytest.approx(1.0, abs=1e-12)

    def test_m1_equals_overlapping(self):
        rng = np.random.default_rng(5)
        s = validate_sample(rng.uniform(size=11))
        np.testing.assert_array_equal(spacings(s, 1, "disjoint"),
                                      spacings(s, 1, "overlapping"))


class TestStatistic:
    def test_greenwood_overlapping(self):
        v = statistic(validate_sample(SAMPLE3),
                      SpacingsPlan(m=2, mode="overlapping"), builtin("greenwood"))
        assert v == pytest.approx(16.0, abs=1e-12)

    def test_greenwood_disjoint(self):
        v = statistic(validate_sample(SAMPLE3),
                      SpacingsPlan(m=2, mode="disjoint"), builtin("greenwood"))
        assert v == pytest.approx(8.0, abs=1e-12)

    def test_pd1_normalized_uniform_is_zero(self):
        v = statistic(validate_sample(SAMPLE3),
                      SpacingsPlan(m=2, mode="overlapping", scaling="normalized"),
                      make_power_divergence(1.0))
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_normalized_requires_divisibility(self):
        plan = SpacingsPlan(m=3, mode="overlapping", scaling="normalized")
        with pytest.raises(DomainError):
            statistic(validate_sample(SAMPLE3), plan, builtin("greenwood"))

    def test_linear_sum_mass_identity(self):
        # sum of n*D over overlapping spacings is n*m exactly: the arithmetic
        # degenerate case an affine h would produce
        rng = np.random.default_rng(11)
        s = validate_sample(rng.uniform(size=23))
        for m in (1, 3, 8):
            d = spacings(s, m, "overlapping")
            assert math.fsum(s.n * d) == pytest.approx(s.n * m, rel=1e-13)

    @pytest.mark.parametrize("hname", ["greenwood", "moran"])
    def test_rotation_invariance(self, hname):
        # rotating the whole circular configuration (data plus the anchor at
        # 0, which becomes an ordinary point) cyclically permutes the simple
        # gaps, so every overlapping-spacings statistic is invariant.  Note
        # shifting only the data while keeping the anchor at 0 does NOT
        # preserve the statistic pathwise (the anchor re-splits a different
        # gap); that weaker form holds in distribution only.
        rng = np.random.default_rng(13)
        base = np.sort(rng.uniform(size=29))
        h = builtin(hname)
        plan = SpacingsPlan(m=4, mode="overlapping")
        v0 = statistic(validate_sample(base), plan, h)
        for j in (0, 3, 17, 28):
            config = np.concatenate([[0.0], base])  # the full circle points
            rotated = np.sort((config - base[j]) % 1.0)
            assert rotated[0] == 0.0
            v = statistic(validate_sample(rotated[1:]), plan, h)
            assert v == pytest.approx(v0, rel=1e-9)

    def test_data_only_shift_changes_statistic(self):
        # counterpart of the above: anchor-fixed shifts are not pathwise
        # invariant
        rng = np.random.default_rng(14)
        base = np.sort(rng.uniform(size=29))
        plan = SpacingsPlan(m=4, mode="overlapping")
        h = builtin("greenwood")
        v0 = statistic(validate_sample(base), plan, h)
        v1 = statistic(validate_sample(np.sort((base + 0.37) % 1.0)), plan, h)
        assert v1 != pytest.approx(v0, rel=1e-12)

    def test_non_integer_order_is_a_domain_error(self):
        with pytest.raises(DomainError):
            statistic(validate_sample(SAMPLE3), SpacingsPlan(2.5),
                      builtin("greenwood"))

    def test_degenerate_spacing_error_for_singular_h(self):
        s = validate_sample([0.2, 0.2, 0.7])
        with pytest.raises(DegenerateSpacingError) as exc:
            statistic(s, SpacingsPlan(m=1), builtin("moran"))
        assert exc.value.index is not None

    def test_ties_fine_for_polynomial_h(self):
        s = validate_sample([0.2, 0.2, 0.7])
        v = statistic(s, SpacingsPlan(m=1), builtin("greenwood"))
        assert np.isfinite(v)

    def test_compensated_summation_large_n(self):
        rng = np.random.default_rng(17)
        s = validate_sample(rng.uniform(size=99_999))
        v = statistic(s, SpacingsPlan(m=1), builtin("greenwood"))
        assert np.isfinite(v) and v > 0

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import affine_shift, pd_zero_anchored
from spacings_gof import (
    DomainError,
    SpacingsPlan,
    TuningFunction,
    builtin,
    evaluate,
    from_name,
    make_power_divergence,
    standardization,
)
from spacings_gof.asymptotics import _normalized_map

D_GRID = [-1.0, -1.0 + 1e-9, -0.999999, -0.5, -1e-9, 0.0, 1e-9, 1e-4, 0.5,
          1.0, 2.0, 3.5]


class TestBuiltins:
    def test_greenwood(self):
        h = builtin("greenwood")
        assert evaluate(h, 2.0) == 4.0
        assert evaluate(h, 0.0) == 0.0  # defined at zero

    def test_moran(self):
        assert evaluate(builtin("moran"), 1.0) == 0.0

    def test_rao(self):
        h = builtin("rao", m=3)
        assert evaluate(h, 5.0) == 2.0
        assert h.m == 3

    def test_rao_needs_m(self):
        with pytest.raises(DomainError):
            builtin("rao")

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            builtin("legendre")

    def test_from_name(self):
        assert from_name("pd:0.5").d == 0.5
        assert from_name("moran").family == "moran"
        # psi_0 and psi_(-1) are the entropy and moran functions by family,
        # under their own names
        for name, family, d in (("pd:0", "entropy", 0.0),
                                ("pd:-1", "moran", -1.0)):
            h = from_name(name)
            assert (h.name, h.family, h.d) == (name, family, d)
        with pytest.raises(DomainError):
            from_name("pd:abc")

    def test_domain(self):
        with pytest.raises(DomainError):
            evaluate(builtin("moran"), 0.0)
        with pytest.raises(DomainError):
            evaluate(builtin("greenwood"), -1.0)


class TestPowerDivergence:
    def test_d1_closed_form(self):
        assert evaluate(make_power_divergence(1.0), 3.0) == 4.0

    def test_d0_at_e(self):
        assert evaluate(make_power_divergence(0.0), math.e) == pytest.approx(
            math.e, rel=1e-15)

    def test_dm1_is_moran(self):
        h = make_power_divergence(-1.0)
        assert evaluate(h, 2.0) == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            make_power_divergence(-1.5)

    @pytest.mark.parametrize("d", D_GRID)
    def test_unit_root(self, d):
        assert evaluate(make_power_divergence(d), 1.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("d", D_GRID)
    def test_strict_convexity_second_differences(self, d):
        h = make_power_divergence(d)
        x = np.linspace(0.1, 10.0, 60)
        eps = 1e-3
        dd = h.eval_fn(x + eps) - 2 * h.eval_fn(x) + h.eval_fn(x - eps)
        assert (dd > 0).all()

    @pytest.mark.parametrize("d", D_GRID)
    def test_second_derivative_at_one(self, d):
        # psi_d''(1) = 1 for the whole family (normal-limit scale).  Central
        # second differences D(e) of the value at steps large enough that
        # roundoff stays small, Richardson-extrapolated to cancel their O(e^2)
        # truncation error
        h = make_power_divergence(d)

        def second_difference(eps):
            x = np.array([1.0 - eps, 1.0, 1.0 + eps])
            f = h.eval_fn(x)
            return float(f[0] - 2.0 * f[1] + f[2]) / (eps * eps)

        dd = (4.0 * second_difference(0.02) - second_difference(0.04)) / 3.0
        assert dd == pytest.approx(1.0, abs=1e-6)

    def test_near_zero_band_against_mpmath_oracle(self):
        # independent high-precision evaluation of the zero-anchored value
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for d in (1e-9, -1e-9, 1e-7):
            h = make_power_divergence(d)
            for x in (0.2, 2.0, 7.5):
                dd, xx = mp.mpf(repr(d)), mp.mpf(repr(x))
                raw = (xx ** (dd + 1) - 1) / (dd * (dd + 1))
                anchored = raw - (xx - 1) * (1 - dd) / dd
                assert float(h.eval_fn(np.asarray(x))) == pytest.approx(
                    float(anchored), abs=1e-12)

    def test_example_near_zero_at_two(self):
        h = make_power_divergence(1e-9)
        lim = 2.0 * math.log(2.0)
        assert abs(evaluate(h, 2.0) - lim) <= 1e-6

    def test_continuity_in_d_toward_entropy(self):
        # sup over [0.1, 10] of |psi_d - psi_0| -> 0 along the zero-anchored
        # representative (the raw form differs by an affine term that is
        # annihilated by every standardized statistic)
        x = np.linspace(0.1, 10.0, 400)
        ent = x * np.log(x)
        sups = []
        for d in (1e-4, 1e-6):
            sups.append(np.abs(pd_zero_anchored(d, x) - ent).max())
        assert sups[0] < 2e-3 and sups[1] < 2e-5
        assert sups[1] < sups[0] / 50

    def test_continuity_in_d_toward_moran(self):
        x = np.linspace(0.1, 10.0, 400)
        mor = -np.log(x)
        for d, tol in ((-1 + 1e-4, 1e-3), (-1 + 1e-6, 1e-5)):
            h = make_power_divergence(d)
            assert np.abs(h.eval_fn(x) - mor).max() < tol

    def test_poly_metadata_for_integer_d(self):
        # pd:2 = (x^3 - 1)/6
        c = Fraction(1, 6)
        assert make_power_divergence(2.0).power == (c, 3, -c)
        assert builtin("greenwood").power == (1, 2, 0)
        assert make_power_divergence(0.5).power is None
        # sigma*^2 >= (c k!)^2 at m = 1 for degree k, leading coefficient c:
        # past the float range for k = 101, not for k = 86
        assert make_power_divergence(85.0).power[1] == 86
        assert make_power_divergence(100.0).power is None
        assert make_power_divergence(1e300).power is None
        # log k! itself overflows here
        assert make_power_divergence(1e308).power is None

    @pytest.mark.parametrize("text, name", [
        ("pd:0.5", "pd:0.5"), ("pd:2", "pd:2"), ("pd:2.0", "pd:2"),
        ("pd:0", "pd:0"), ("pd:1", "pd:1"), ("pd:-1", "pd:-1"),
        ("pd:1e-7", "pd:1e-07"), ("pd:1e300", "pd:1e+300"),
        ("pd:-0.9999999", "pd:-0.9999999"), ("pd:2.0000001", "pd:2.0000001"),
    ])
    def test_names_tell_members_apart(self, text, name):
        # two different d never share a name (a 6-digit format once named
        # pd:-0.9999999 "pd:-1"); an integral d drops its ".0"
        assert from_name(text).name == name

    @pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
    def test_non_finite_d_rejected(self, d):
        with pytest.raises(DomainError):
            make_power_divergence(d)


class TestDerived:
    def test_affine_shift_values(self):
        h = affine_shift(builtin("moran"), 2.0, -3.0, 7.0)
        x = 2.0
        assert evaluate(h, x) == pytest.approx(-2 * math.log(x) - 3 * x + 7, rel=1e-15)

    def test_affine_rejects_degenerate(self):
        with pytest.raises(DomainError):
            affine_shift(builtin("moran"), 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("fn", [
        lambda x: 3.0 * x - 2.0,
        lambda x: 0.0 * x,
        lambda x: 1e6 * x + 1e12,
    ])
    def test_affine_user_h_is_refused(self, fn):
        with pytest.raises(DomainError, match="affine"):
            TuningFunction(name="user", family="user", eval_fn=fn)

    def test_affine_image_bending_outside_one_to_three(self):
        # 2|x - 3| - 3x + 7 is linear on [1, 3]; a probe there alone would
        # refuse it as affine
        h = affine_shift(builtin("rao", m=3), 2.0, -3.0, 7.0)
        assert evaluate(h, 5.0) == pytest.approx(2.0 * 2.0 - 15.0 + 7.0)

    def test_normalized_image_values(self):
        # h(x/m) = alpha h(x) + beta x + gamma
        assert _normalized_map(builtin("greenwood"), 2) == (0.25, 0.0, 0.0)
        # -log(x/4) = -log x + log 4
        assert _normalized_map(builtin("moran"), 4) == \
            (1.0, 0.0, math.log(4.0))
        for name in ("entropy", "pd:0.5", "pd:-0.5", "pd:2", "pd:1e-7"):
            h = from_name(name)
            alpha, beta, gamma = _normalized_map(h, 4)
            for x in (0.5, 2.0, 7.0):
                assert evaluate(h, x / 4) == pytest.approx(
                    alpha * evaluate(h, x) + beta * x + gamma,
                    rel=1e-12, abs=1e-12), (name, x)

    def test_scaled_affine_rao_is_refused(self):
        # h(x/m) has an exact moment map only for the builtins but rao; the
        # refusal comes before any moment is computed
        h = affine_shift(builtin("rao", m=3), 2.0, -3.0, 7.0)
        plan = SpacingsPlan(3, scaling="normalized")
        with pytest.raises(DomainError, match="--scaling"):
            standardization(h, plan, 12)
        with pytest.raises(DomainError, match="--scaling"):
            standardization(builtin("rao", m=3), plan, 12)

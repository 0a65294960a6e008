import math

import numpy as np
import pytest

from oracles import affine_shift, mc_gamma_oracle, pd_zero_anchored
from spacings_gof import (
    DerivativeUndefinedError,
    DomainError,
    builtin,
    evaluate,
    evaluate_derivative,
    from_name,
    make_power_divergence,
    scale_argument,
)

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
        assert h.m == 3 and h.kink == 3.0

    def test_rao_needs_m(self):
        with pytest.raises(DomainError):
            builtin("rao")

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            builtin("legendre")

    def test_from_name(self):
        assert from_name("pd:0.5").d == 0.5
        assert from_name("moran").family == "moran"
        with pytest.raises(DomainError):
            from_name("pd:abc")

    def test_domain(self):
        with pytest.raises(DomainError):
            evaluate(builtin("moran"), 0.0)
        with pytest.raises(DomainError):
            evaluate(builtin("greenwood"), -1.0)


class TestDerivatives:
    def test_values(self):
        assert evaluate_derivative(builtin("greenwood"), 3.0) == 6.0
        assert evaluate_derivative(builtin("moran"), 2.0) == -0.5
        assert evaluate_derivative(builtin("entropy"), 1.0) == 1.0

    def test_rao_kink(self):
        h = builtin("rao", m=3)
        assert evaluate_derivative(h, 5.0) == 1.0
        assert evaluate_derivative(h, 1.0) == -1.0
        with pytest.raises(DerivativeUndefinedError):
            evaluate_derivative(h, 3.0)

    @pytest.mark.parametrize("d", [-0.5, 0.7, 2.0])
    def test_pd_derivative_matches_finite_difference(self, d):
        h = make_power_divergence(d)
        for x in (0.3, 1.0, 4.0):
            eps = 1e-6 * x
            fd = (evaluate(h, x + eps) - evaluate(h, x - eps)) / (2 * eps)
            assert evaluate_derivative(h, x) == pytest.approx(fd, rel=1e-7)


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
        # psi_d''(1) = 1 for the whole family (normal-limit scale); a central
        # difference of the derivative avoids the cancellation that a second
        # difference of the value suffers near the removable d-singularities
        h = make_power_divergence(d)
        eps = 1e-5
        dd = float(h.deriv_fn(np.asarray(1 + eps))
                   - h.deriv_fn(np.asarray(1 - eps))) / (2 * eps)
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
        h = make_power_divergence(2.0)
        assert h.poly is not None and len(h.poly) == 4
        assert make_power_divergence(0.5).poly is None
        # sigma*^2 >= (c k!)^2 at m = 1 for degree k, leading coefficient c:
        # past the float range for k = 101, not for k = 86
        assert len(make_power_divergence(85.0).poly) == 87
        assert make_power_divergence(100.0).poly is None
        assert make_power_divergence(1e300).poly is None

    @pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
    def test_non_finite_d_rejected(self, d):
        with pytest.raises(DomainError):
            make_power_divergence(d)


class TestDerived:
    def test_affine_shift_values(self):
        h = affine_shift(builtin("moran"), 2.0, -3.0, 7.0)
        x = 2.0
        assert evaluate(h, x) == pytest.approx(-2 * math.log(x) - 3 * x + 7, rel=1e-15)
        assert evaluate_derivative(h, x) == pytest.approx(-2 / x - 3, rel=1e-14)

    def test_affine_rejects_degenerate(self):
        with pytest.raises(DomainError):
            affine_shift(builtin("moran"), 0.0, 1.0, 0.0)

    def test_scale_argument_values(self):
        from fractions import Fraction

        h = scale_argument(builtin("greenwood"), Fraction(1, 2))
        assert evaluate(h, 4.0) == 4.0  # (4/2)^2
        assert h.poly is not None and float(h.poly[2]) == 0.25

    def test_scaled_rao_inner_mean_matches_mc(self):
        from fractions import Fraction

        import spacings_gof as sg

        h = scale_argument(builtin("rao", m=2), Fraction(1, 2))
        q = sg.gamma_joint_expectation(h.eval_fn, 4, 1, inner_mean=h.inner_mean,
                                       outer_kink=h.kink)
        mean, se = mc_gamma_oracle(h.eval_fn, 4, reps=400_000, seed=17, j=1)
        assert abs(q - mean) < 4 * se

    def test_scaled_affine_rao_is_refused(self):
        # an affine image's conditional mean has no exact rescaled form;
        # passing the bare rao one gave sigma^2 < 0
        from fractions import Fraction

        h = affine_shift(builtin("rao", m=3), 2.0, -3.0, 7.0)
        with pytest.raises(DomainError):
            scale_argument(h, Fraction(1, 2))

    def test_affine_image_of_scaled_rao(self):
        # the scaled inner mean composes with an affine map: sigma^2 and
        # sigma*^2 scale by a^2, and mu does not change
        from fractions import Fraction

        from spacings_gof import moments

        a, b, c, s = 2.0, -3.0, 7.0, Fraction(1, 2)
        h = scale_argument(builtin("rao", m=3), s)
        g = affine_shift(h, a, b * float(s), c)
        mh, mg = moments(h, 4), moments(g, 4)
        assert mg.sigma2 == pytest.approx(a * a * mh.sigma2, rel=1e-9)
        assert mg.sigma_star2 == pytest.approx(a * a * mh.sigma_star2, rel=1e-9)
        assert mg.mu == pytest.approx(mh.mu, rel=1e-9)

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from spacings_gof import (
    DomainError,
    PositivityError,
    QuadratureConvergenceError,
    cdf,
    inverse_cdf,
    make_alternative,
    parse_path,
    substream,
)
from spacings_gof.alternatives import (
    _panel_coefficients,
    _panel_nodes,
    sample_values,
)

from oracles import numeric_integral_reference


class TestCosineModel:
    def test_delta_and_norms(self):
        m = make_alternative("cosine", (1, 1.0), 10_000, 10)
        assert m.delta == pytest.approx((1e5) ** -0.25, rel=1e-12)
        assert m.delta == pytest.approx(0.05623413251903491, rel=1e-12)
        assert m.l2norm2 == pytest.approx(0.5, abs=1e-10)

    def test_theta_two(self):
        m = make_alternative("cosine", (1, 2.0), 10_000, 10)
        assert m.l2norm2 == pytest.approx(2.0, abs=1e-10)

    def test_positivity_violation(self):
        with pytest.raises(PositivityError):
            make_alternative("cosine", (1, 100.0), 4, 1)

    def test_nan_parameters_rejected(self):
        with pytest.raises(DomainError):
            make_alternative("cosine", (1, math.nan), 100, 2)
        with pytest.raises(DomainError):
            make_alternative("bump", (0.5, 0.1, math.nan), 100, 2)
        # an infinite width once gave l = 0, the null model, silently
        with pytest.raises(DomainError, match="width must be finite"):
            make_alternative("bump", (0.5, math.inf, 1.0), 100, 2)
        xs = np.linspace(0, 1, 5)
        with pytest.raises(DomainError, match="l\\(x\\) must be finite"):
            make_alternative("table", (xs, [0.0, 1.0, math.inf, 1.0, 0.0]), 100, 2)
        with pytest.raises(PositivityError):
            make_alternative("cosine", (1, 1.0), 100, 2, delta_override=math.nan)

    def test_non_integer_k_refused(self):
        with pytest.raises(DomainError, match="cosine parameter k must be an integer"):
            make_alternative("cosine", (2.7, 1.0), 100, 2)
        assert make_alternative("cosine", (2.0, 1.0), 100, 2).params == (2, 1.0)

    def test_overflowing_norm_refused(self):
        # delta * sup|l| = 1e-100 passes positivity, but l^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"\|\|l\|\|_2\^2 overflows"):
                make_alternative("cosine", (1, 1e200), 100, 2, delta_override=1e-300)
            with pytest.raises(DomainError, match=r"\|\|l\|\|_2\^2 overflows"):
                make_alternative("bump", (0.5, 0.3, 1e200), 100, 2,
                                 delta_override=1e-300)

    def test_mean_zero(self):
        m = make_alternative("cosine", (3, 1.5), 1000, 5)
        assert abs(float(m.path_integral(1.0))) <= 1e-10

    @pytest.mark.parametrize("m", [2.5, True, 0])
    def test_order_must_be_a_positive_integer(self, m):
        # a float or bool m would change delta = (n m)^(-1/4)
        with pytest.raises(DomainError, match="m must be >= 1 and an integer"):
            make_alternative("cosine", (1, 2.0), 100, m)

    def test_large_theta_models_build(self):
        # |L(1)| is about 4e-10 and 3e-10 here, roundoff of an l as large as
        # 1e7 and 6e4; the zero-integral check scales with sup|l|
        for kind, params, delta in [("cosine", (1, 1e7), 1e-9),
                                    ("bump", (0.5, 0.3, 1e5), 1e-6)]:
            model = make_alternative(kind, params, 2000, 10,
                                     delta_override=delta)
            assert model.delta * model.sup_abs_l < 0.1
            assert abs(float(model.path_integral(1.0))) <= \
                1e-10 * model.sup_abs_l


class TestBumpModelPinned:
    """The bump model's norms and seed table, bit for bit (float.hex)."""

    def test_norms_and_seed_table(self):
        m = make_alternative("bump", (0.5, 0.3, 6.0), 3000, 10)
        assert m.l2norm2.hex() == "0x1.79aba60d0ea46p+2"
        assert m.sup_abs_l.hex() == "0x1.e9ee1f56325b8p+1"
        c0, c1, c2, c3 = m.inverse_table
        cells = (0, 700, 2048, 3500, 4095)
        assert [float(c0[i]).hex() for i in cells] == [
            "0x0.0p+0", "0x1.a33229bcd537fp-3", "0x1.0000000000000p-1",
            "0x1.a6c569f33befap-1", "0x1.ffd9ac6b5c721p-1"]
        assert [float(c1[i]).hex() for i in cells] == [
            "0x1.329ca51c674b4p-12", "0x1.329ca51c67467p-12",
            "0x1.8ca49f2de6cb1p-13", "0x1.329ca51c674b4p-12",
            "0x1.329ca51c674b4p-12"]
        assert [float(c2[i]).hex() for i in cells] == [
            "0x0.0p+0", "0x1.f000000000000p-58", "-0x1.93dc000000000p-50",
            "-0x1.c380000000000p-53", "0x1.89e4000000000p-48"]
        assert [float(c3[i]).hex() for i in cells] == [
            "0x0.0p+0", "-0x1.c800000000000p-57", "0x1.376ad3c000000p-37",
            "0x1.2d00000000000p-53", "-0x1.0698000000000p-48"]
        assert float(m.path_integral(0.37)).hex() == "-0x1.c89960c940545p-2"


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestPathIntegral:
    """The bump's L, per-panel polynomials in the panel coordinate, against
    the panel-wise Gauss oracle of ``tests/oracles.py`` and against mpmath,
    and its coefficients against a fixed-order reference in Python floats."""

    BUMPS = {
        "bump": ("bump", (0.5, 0.3, 6.0)),
        "bump-narrow": ("bump", (0.5, 0.01, 1.0)),
        "bump-edge": ("bump", (0.05, 0.04, 2.0)),
    }
    TABLE = ("table", (np.linspace(0, 1, 9), np.linspace(0, 1, 9) ** 2))

    @staticmethod
    def points():
        rng = np.random.default_rng(8)
        return {
            "block": np.sort(rng.random(5240)),
            "random": rng.random(100_000),
            "seed_grid": np.arange(4097) / 4096,
            "zero": np.array([0.0]),
            "one": np.array([1.0]),
            "scalar": np.float64(0.37),
            "zero_d": np.array(0.37),
        }

    @pytest.mark.parametrize("case", [*BUMPS, "table"])
    def test_matches_gauss_oracle(self, case):
        kind, params = self.BUMPS.get(case, self.TABLE)
        model = make_alternative(kind, params, 3000, 10)
        # the table takes the bump's per-panel polynomial L, of its spline l
        ref = numeric_integral_reference(model.path)
        for name, x in self.points().items():
            want, out = ref(x), model.path_integral(x)
            assert type(out) is type(want), name
            assert np.shape(out) == np.shape(want), name
            assert np.max(np.abs(out - want)) <= 4.4e-16, name

    @pytest.mark.parametrize("case", list(BUMPS))
    def test_matches_mpmath(self, case):
        mp = pytest.importorskip("mpmath")
        _, (center, width, theta) = self.BUMPS[case]
        model = make_alternative("bump", (center, width, theta), 3000, 10)
        # l = theta (base - mean) with the package's float mean; base(1) = 0
        mean = -float(model.path(1.0)) / theta
        x = np.unique(np.concatenate([
            np.linspace(0.0, 1.0, 21), center + width * np.linspace(-0.99, 0.99, 9),
            [0.37, 0.95, 1.0 - 2.0 ** -40]]))
        mp.mp.dps = 30
        c, w = mp.mpf(center), mp.mpf(width)

        def base(t):
            s = (t - c) / w
            return mp.exp(1 - 1 / (1 - s * s)) if abs(s) < 1 else mp.mpf(0)

        got = model.path_integral(x)
        b, prev = mp.mpf(0), 0.0
        for xi, gi in zip(x, got):
            a, e = max(prev, center - width), min(xi, center + width)
            if a < e:
                b += mp.quad(base, [a, center, e] if a < center < e else [a, e])
            prev = xi
            want = theta * (b - mp.mpf(mean) * mp.mpf(float(xi)))
            assert abs(gi - float(want)) <= 5e-14, xi

    def test_gauss_literals_are_scipys_rule(self):
        # the literal nodes and weights carry roots_legendre(8)'s bits
        from spacings_gof.alternatives import _GAUSS8_NODES, _GAUSS8_WEIGHTS

        t8, w8 = roots_legendre(8)
        assert [float(t).hex() for t in t8] == [t.hex() for t in _GAUSS8_NODES]
        assert [float(w).hex() for w in w8] == [w.hex() for w in _GAUSS8_WEIGHTS]

    def test_panel_map_integrates_degree_7_exactly(self):
        t8, _ = roots_legendre(8)
        _, _, A, p = _panel_nodes()
        half = 0.5 / 8192
        for q in np.random.default_rng(3).normal(size=(5, 8)):
            v = np.polynomial.polynomial.polyval(t8, q)
            # int_{-1}^t q dx with dx = half dt, coefficients of t^0..t^8
            want = np.polynomial.polynomial.polyint(q, lbnd=-1) * half
            got = [sum(A[k, j] * v[j] for j in range(8)) for k in range(9)]
            tol = 1e-14 * half * np.abs(v).max()  # roundoff of 8 products
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
            assert abs(sum(p * v) - sum(want)) <= tol

    def test_coefficients_in_fixed_order(self):
        model = make_alternative(*self.BUMPS["bump"], 3000, 10)
        _, _, A, p = _panel_nodes()
        v = model.path(_panel_nodes()[0]).reshape(8192, 8).tolist()
        coef = _panel_coefficients(np.array(v).ravel())

        def combine(row, vi):
            acc = row[0] * vi[0]
            for j in range(1, 8):
                acc += row[j] * vi[j]
            return acc

        below = [0.0]
        for vi in v[:-1]:
            below.append(below[-1] + combine(p, vi))
        for i in (0, 1, 2048, 4095, 4096, 8191):
            want = [combine(A[k], v[i]) for k in range(9)]
            want[0] += below[i]
            np.testing.assert_array_equal(_bits(coef[:, i]), _bits(want), err_msg=str(i))
        for x in (0.0, 0.37, 0.5, 0.8 - 2.0 ** -30, 1.0):
            i = min(int(x * 8192), 8191)
            t = (x * 8192 - i) * 2.0 - 1.0
            want = coef[8, i]
            for k in range(7, -1, -1):
                want = want * t + coef[k, i]
            assert _bits(model.path_integral(x)) == _bits(want), x

    def test_bump_path_on_a_scalar(self):
        model = make_alternative(*self.BUMPS["bump"], 3000, 10)
        x = np.array([0.37, 0.1, 0.2, 0.8, 0.0, 1.0])
        vec = model.path(x)
        for i, xi in enumerate(x):
            for arg in (float(xi), np.float64(xi), np.array(xi)):
                out = model.path(arg)
                assert np.shape(out) == ()
                assert _bits(out) == _bits(vec[i])
        assert float(model.path(0.37)).hex() == "0x1.4b67faeaf4a1bp+1"
        assert float(model.path(0.1)).hex() == "-0x1.1611e0a8f6580p+1"


class TestCdf:
    def test_identity_when_flat(self):
        m = make_alternative("cosine", (1, 0.0), 1000, 5)
        x = np.linspace(0, 1, 11)
        np.testing.assert_allclose(cdf(m, x), x, atol=1e-15)
        np.testing.assert_allclose(inverse_cdf(m, x), x, atol=1e-12)

    def test_cosine_closed_form(self):
        m = make_alternative("cosine", (1, 1.0), 1000, 5)
        x = np.linspace(0, 1, 101)
        expected = x + m.delta * np.sin(2 * np.pi * x) / (2 * np.pi)
        np.testing.assert_allclose(cdf(m, x), expected, atol=1e-13)
        assert cdf(m, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert cdf(m, 0.0) == 0.0 and cdf(m, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_monotone(self):
        m = make_alternative("bump", (0.4, 0.2, 1.5), 2000, 4)
        x = np.linspace(0, 1, 2001)
        assert (np.diff(cdf(m, x)) > 0).all()

    @pytest.mark.parametrize("kind,params", [
        ("cosine", (2, 1.0)),
        ("bump", (0.5, 0.25, 1.0)),
    ])
    def test_roundtrip(self, kind, params):
        m = make_alternative(kind, params, 4000, 8)
        u = np.linspace(0, 1, 1001)
        y = inverse_cdf(m, u)
        np.testing.assert_allclose(cdf(m, y), u, atol=1e-10)

    def test_domain(self):
        m = make_alternative("cosine", (1, 1.0), 1000, 5)
        with pytest.raises(DomainError):
            cdf(m, 1.5)
        with pytest.raises(DomainError):
            inverse_cdf(m, -0.1)

    @pytest.mark.parametrize("fn", [cdf, inverse_cdf])
    def test_nan_is_outside_the_domain(self, fn):
        m = make_alternative("cosine", (1, 1.0), 1000, 5)
        with pytest.raises(DomainError):
            fn(m, math.nan)
        with pytest.raises(DomainError):
            fn(m, np.array([0.2, math.nan]))

    @pytest.mark.parametrize("kind,params", [
        ("cosine", (1, 1.0)),
        ("bump", (0.5, 0.3, 6.0)),
        ("table", (np.linspace(0, 1, 9), np.linspace(0, 1, 9) ** 2)),
    ])
    def test_any_shape(self, kind, params):
        m = make_alternative(kind, params, 2000, 10)
        x = np.linspace(0.05, 0.95, 6).reshape(2, 3)
        for fn in (cdf, inverse_cdf):
            got = fn(m, x)
            assert got.shape == (2, 3)
            np.testing.assert_array_equal(got.ravel(), fn(m, x.ravel()))


def _cosine_case(theta, delta):
    model = make_alternative("cosine", (1, theta), 2000, 10, delta_override=delta)
    w = 2.0 * math.pi

    def F(y):
        return y + delta * theta * math.sin(w * y) / w

    return model, F


def _bump_case(theta, delta=None):
    center, width = 0.5, 0.3
    if delta is None:  # high contrast: delta * sup|l| = 0.99
        probe = make_alternative("bump", (center, width, theta), 2000, 10)
        delta = 0.99 / probe.sup_abs_l
    model = make_alternative("bump", (center, width, theta), 2000, 10,
                             delta_override=delta)

    def base(x):
        t = (x - center) / width
        return math.exp(1.0 - 1.0 / (1.0 - t * t)) if abs(t) < 1 else 0.0

    edges = [center - width, center + width]
    mean = quad(base, 0.0, 1.0, points=edges, epsabs=1e-15, epsrel=1e-13)[0]

    def F(y):
        pts = [e for e in edges if e < y]
        b = quad(base, 0.0, y, points=pts or None, epsabs=1e-15, epsrel=1e-13)[0]
        return y + delta * theta * (b - mean * y)

    return model, F


def _table_case():
    # a not-a-knot cubic spline through a cubic's values is that cubic
    def p(x):
        return 4.0 * x ** 3 - 3.0 * x ** 2 + 0.5 * x

    xs = np.linspace(0.0, 1.0, 11)
    model = make_alternative("table", (xs, p(xs)), 2000, 10)
    mean = 0.25  # int_0^1 p
    d = model.delta

    def F(y):
        return y + d * (y ** 4 - y ** 3 + 0.25 * y ** 2 - mean * y)

    return model, F


INVERSE_CASES = {
    "cosine": lambda: _cosine_case(2.0, 20000 ** -0.25),
    "cosine_high_contrast": lambda: _cosine_case(1.0, 0.99),
    "bump": lambda: _bump_case(6.0, 20000 ** -0.25),
    "bump_high_contrast": lambda: _bump_case(6.0),
    "table": _table_case,
}


class TestInverseCdf:
    """The table-seeded Newton sampler against independently computed F."""

    U_EDGES = np.array([0.0, 1.0, 1e-300, 1.0 - 2.0 ** -53])

    def u_values(self, size):
        rng = np.random.default_rng(5)
        return np.concatenate([self.U_EDGES, np.linspace(0.0, 1.0, size),
                               rng.random(size)])

    @pytest.mark.parametrize("case", sorted(INVERSE_CASES))
    def test_solves_independent_cdf(self, case):
        model, F = INVERSE_CASES[case]()
        u = self.u_values(150)
        y = inverse_cdf(model, u)
        assert np.all((y >= 0) & (y <= 1))
        err = max(abs(F(float(yi)) - ui) for yi, ui in zip(y, u))
        assert err <= 1e-12

    @pytest.mark.parametrize("case", sorted(INVERSE_CASES))
    def test_element_depends_only_on_its_u(self, case):
        model, _ = INVERSE_CASES[case]()
        u = self.u_values(200)
        y = inverse_cdf(model, u)
        for i in range(u.size):
            assert inverse_cdf(model, u[i:i + 1])[0] == y[i]

    def test_seed_table_survives_replace(self):
        model, _ = INVERSE_CASES["bump"]()
        twin = replace(model, path_integral=model.path_integral)
        assert twin.inverse_table is model.inverse_table
        u = self.u_values(50)
        np.testing.assert_array_equal(inverse_cdf(twin, u), inverse_cdf(model, u))

    def test_unconverged_element_raises(self):
        model = make_alternative("cosine", (1, 1.0), 1000, 5)
        broken = replace(model, path_integral=lambda x: np.full(np.shape(x), np.nan))
        with pytest.raises(QuadratureConvergenceError):
            inverse_cdf(broken, np.array([0.25, 0.5]))


class TestTableModel:
    def test_spline_path(self, tmp_path):
        xs = np.linspace(0, 1, 21)
        ys = np.sin(2 * np.pi * xs) + 0.3
        m = make_alternative("table", (xs, ys), 2000, 4)
        assert abs(float(m.path_integral(1.0))) <= 1e-10
        u = np.linspace(0, 1, 301)
        np.testing.assert_allclose(cdf(m, inverse_cdf(m, u)), u, atol=1e-10)
        # file-based CLI syntax
        p = tmp_path / "path.txt"
        np.savetxt(p, np.column_stack([xs, ys]))
        m2 = parse_path(f"table:{p}", 2000, 4)
        assert m2.l2norm2 == pytest.approx(m.l2norm2, rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            make_alternative("table", ([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]), 100, 2)


class TestSampling:
    def test_single_point_reproducible(self):
        a = sample_values(None, 2, substream(42, 0))
        b = sample_values(None, 2, substream(42, 0))
        assert a.size == 1 and 0 < a[0] < 1
        assert a[0] == b[0]

    def test_null_mean(self):
        x = sample_values(None, 10_000, substream(7, 0))
        tol = 3.0 / math.sqrt(12 * 10_000)
        assert abs(x.mean() - 0.5) < tol

    def test_sorted_in_unit_interval(self):
        for seed in (1, 2, 3):
            x = sample_values(None, 500, substream(seed, 0))
            assert (np.diff(x) >= 0).all()
            assert x[0] > 0 and x[-1] < 1

    def test_kolmogorov_distance_shrinks(self):
        # sup |F_hat - x| should scale like 1/sqrt(n)
        ks = []
        for n in (2000, 8000, 32_000):
            x = sample_values(None, n, substream(11, 0))
            i = np.arange(1, n)
            ks.append(max(np.abs(i / n - x).max(), np.abs(x - (i - 1) / n).max()))
        assert ks[0] > ks[1] > ks[2]
        assert ks[2] < 3.0 / math.sqrt(32_000)

    def test_cosine_tilt_recovers_delta(self):
        # E cos(2 pi X) = delta * theta / 2 under the cosine(1) model
        n, m, theta = 40_000, 5, 1.0
        model = make_alternative("cosine", (1, theta), n, m)
        acc = []
        for seed in (3, 4, 5):
            s = sample_values(model, n, substream(seed, 0))
            acc.append(np.cos(2 * np.pi * s).mean())
        got = np.mean(acc)
        se = math.sqrt(0.5 / (3 * n))
        assert abs(got - model.delta * theta / 2) < 4 * se

    def test_off_theory_delta_flag(self):
        m = make_alternative("cosine", (1, 1.0), 1000, 5, delta_override=0.2)
        assert m.off_theory_delta and m.delta == 0.2

    def test_parse_path(self):
        assert parse_path("null", 100, 2) is None
        m = parse_path("cos:2:1.5", 1000, 4)
        assert m.kind == "cosine" and m.params == (2, 1.5)
        assert parse_path("cos:2.0:1.5", 1000, 4).params == (2, 1.5)
        with pytest.raises(DomainError):
            parse_path("wedge:1", 100, 2)

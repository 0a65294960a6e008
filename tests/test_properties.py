"""Property tests of the spacings layer (hypothesis, few examples each)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import argument_scaled
from spacings_gof import (
    DomainError,
    SpacingsPlan,
    builtin,
    from_name,
    standardization,
    statistic,
    validate_sample,
)
from spacings_gof.spacings import spacings

FEW = settings(max_examples=30, deadline=None, database=None)

unit_samples = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)


@st.composite
def sample_and_order(draw, divides=False):
    """A sorted sample and an order m < n (with m | n when ``divides``)."""
    if divides:
        m = draw(st.integers(1, 8))
        n = m * draw(st.integers(2, 8))
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1,
                               max_size=n - 1))
    else:
        values = draw(unit_samples)
        m = draw(st.integers(1, len(values)))
    return validate_sample(values), m


@FEW
@given(sample_and_order())
def test_overlapping_spacings_sum_to_m(case):
    s, m = case
    d = spacings(s, m, "overlapping")
    assert d.size == s.n
    assert math.fsum(d) == pytest.approx(m, rel=1e-12)


@FEW
@given(sample_and_order(divides=True))
def test_disjoint_spacings_sum_to_one(case):
    s, m = case
    d = spacings(s, m, "disjoint")
    assert d.size == s.n // m
    assert math.fsum(d) == pytest.approx(1.0, rel=1e-12)


@FEW
@given(st.lists(st.integers(1, 999_999), min_size=2, max_size=60, unique=True),
       st.integers(1, 4), st.sampled_from(["greenwood", "moran"]))
def test_overlapping_statistic_reflection_invariant(ticks, m, name):
    # distinct grid points keep every spacing >= 1e-6, so moran's -log stays
    # well conditioned and the two sums differ only by rounding
    x = np.array(ticks) / 1_000_000
    m = min(m, len(ticks))
    plan, h = SpacingsPlan(m=m), builtin(name)
    v = statistic(validate_sample(x), plan, h)
    w = statistic(validate_sample(1.0 - x), plan, h)
    assert w == pytest.approx(v, rel=1e-9, abs=1e-9 * len(ticks))


@FEW
@given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=40).flatmap(
    lambda xs: st.tuples(st.just(xs), st.permutations(xs))))
def test_validate_sample_permutation_invariant(pair):
    xs, perm = pair
    try:
        a = validate_sample(xs)
    except DomainError:
        with pytest.raises(DomainError):
            validate_sample(perm)
        return
    b = validate_sample(perm)
    np.testing.assert_array_equal(a.values, b.values)
    assert (a.n, a.has_ties) == (b.n, b.has_ties)


@FEW
@given(sample_and_order(divides=True),
       st.sampled_from(["overlapping", "disjoint"]),
       st.sampled_from(["greenwood", "pd:0.5"]))
def test_normalized_scaling_is_effective_tuning_by_n(case, mode, name):
    # sum h((n/m) D) == sum h~(n D) with h~(x) = h(x/m), which is how the
    # by-n moment theory covers both scalings
    s, m = case
    h = from_name(name)
    v = statistic(s, SpacingsPlan(m, mode, "normalized"), h)
    w = statistic(s, SpacingsPlan(m, mode, "by_n"), argument_scaled(h, m))
    assert w == pytest.approx(v, rel=1e-12, abs=1e-12 * s.n ** 2)


@FEW
@given(st.integers(1, 8), st.integers(2, 8), st.data(),
       st.sampled_from(["overlapping", "disjoint"]),
       st.sampled_from(["greenwood", "moran", "entropy", "pd:0.5", "pd:-0.5",
                        "pd:2", "pd:1e-7"]))
def test_standardized_statistic_does_not_depend_on_scaling(m, k, data, mode,
                                                           name):
    # V' - n mean' = alpha (V - n mean) and scale' = alpha scale for the
    # image h(x/m) = alpha h + beta x + gamma, so z is the same under both
    # scalings; distinct grid points keep every spacing >= 1e-6
    n = m * k
    ticks = data.draw(st.lists(st.integers(1, 999_999), min_size=n - 1,
                               max_size=n - 1, unique=True))
    s, h = validate_sample(np.array(ticks) / 1_000_000), from_name(name)
    z = []
    for scaling in ("by_n", "normalized"):
        v = statistic(s, SpacingsPlan(m, mode, scaling), h)
        center, scale = standardization(h, SpacingsPlan(m, mode, scaling), n)
        z.append((v - center) / scale)
    assert abs(z[1] - z[0]) <= 1e-9

"""Link families, shape classification, and cycle direction."""

import math

import numpy as np
import pytest

from egtlab.links import (DomainError, array_link, classify_link,
                          discrete_effective_link, domain_pad, eval_link,
                          exp_link, linear_link, log_link, parse_link,
                          power_link, rps_direction, scalar_link, sqrt_link,
                          table_link)


def test_eval_basics():
    assert eval_link(linear_link(1.0, 0.0), 7.0) == 7.0
    assert eval_link(sqrt_link((0.0, 16.0)), 9.0) == 3.0
    assert eval_link(exp_link(1.0, (0.0, 3.0)), 1.0) == pytest.approx(math.e)


def test_eval_is_vectorized():
    f = power_link(2.0, (-3.0, 3.0))
    np.testing.assert_allclose(eval_link(f, [1.0, -2.0, 0.5]), [1.0, 4.0, 0.25])


def test_domain_is_enforced_with_a_soft_pad():
    f = sqrt_link((1.0, 9.0))
    with pytest.raises(DomainError, match="outside"):
        eval_link(f, 9.5)
    # a roundoff-sized overshoot clips instead of failing
    assert eval_link(f, 9.0 + 0.5 * domain_pad(f)) == pytest.approx(3.0)


FAMILY_LINKS = [
    linear_link(2.0, -1.0, (-3.0, 3.0)), power_link(1.5, (0.0, 4.0)),
    exp_link(-0.7, (-2.0, 2.0)), log_link((0.5, 4.0)), sqrt_link((0.0, 4.0)),
    table_link([0.0, 0.3, 1.1, 2.0, 3.5], [0.1, 0.5, 0.7, 1.9, 2.0]),
]


@pytest.mark.parametrize("f", FAMILY_LINKS, ids=lambda f: f.family)
def test_scalar_link_agrees_with_eval_link(f):
    lo, hi = f.domain
    pad = domain_pad(f)
    rng = np.random.default_rng(3)
    points = np.concatenate([rng.uniform(lo, hi, 200),
                             [lo, hi, lo - 0.5 * pad, hi + 0.5 * pad]])
    if f.family == "table":
        points = np.concatenate([points, f.knots_x])
    fast = scalar_link(f)
    # NumPy's vector exp/log/pow may differ from libm in the last bit
    np.testing.assert_allclose([fast(float(u)) for u in points],
                               eval_link(f, points), rtol=1e-15, atol=0.0)
    for u in (lo - 2.0 * pad, hi + 2.0 * pad, math.nan, math.inf):
        assert math.isnan(fast(u))


def test_log_needs_a_positive_floor():
    with pytest.raises(ValueError):
        log_link((0.0, 9.0))
    assert eval_link(log_link((1.0, 9.0)), math.e) == pytest.approx(1.0)


def test_table_knots_must_increase_and_cover():
    with pytest.raises(ValueError):
        table_link([0.0, 0.0, 1.0], [0.0, 0.5, 1.0])
    f = table_link([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
    assert eval_link(f, 0.5) == pytest.approx(1.0)


def test_classify_the_three_reference_shapes():
    assert classify_link(linear_link(1.0, 0.0, (0.0, 10.0))).label == \
        "aggregate-monotonic"
    assert classify_link(exp_link(1.0, (0.0, 3.0))).label == "convex-monotonic"
    assert classify_link(sqrt_link((1.0, 9.0))).label == "concave-monotonic"


def test_classify_flags_are_consistent():
    cls = classify_link(sqrt_link((1.0, 9.0)))
    assert cls.increasing and cls.concave
    assert not cls.convex and not cls.linear
    assert cls.second_diff_max < 0.0


def test_classify_on_a_sub_interval():
    # u^3 is concave left of zero, convex right of it
    f = power_link(3.0, (-2.0, 2.0))
    assert classify_link(f, interval=(0.1, 2.0)).label == "convex-monotonic"
    assert classify_link(f, interval=(-2.0, -0.1)).label == "concave-monotonic"
    assert classify_link(f).label == "monotonic"


def test_classify_a_decreasing_link():
    assert not classify_link(linear_link(-1.0, 0.0, (0.0, 1.0))).increasing


def test_any_positive_affine_link_is_aggregate_monotonic():
    for slope, shift in ((0.5, 0.0), (2.0, -1.0), (11.0, 3.0)):
        cls = classify_link(linear_link(slope, shift, (0.0, 10.0)))
        assert cls.label == "aggregate-monotonic"
        assert cls.linear


def test_effective_link_at_zero_background_is_the_log():
    eff = discrete_effective_link(linear_link(1.0, 0.0, (1.0, 9.0)), 0.0)
    assert classify_link(eff).label == "concave-monotonic"
    assert eval_link(eff, 4.0) == pytest.approx(math.log(4.0), abs=1e-9)


def test_effective_link_cancels_an_exponential_exactly():
    eff = discrete_effective_link(exp_link(1.0, (0.0, 3.0)), 0.0)
    assert classify_link(eff).label == "aggregate-monotonic"
    assert eval_link(eff, 1.7) == pytest.approx(1.7, abs=1e-12)


def test_large_background_flattens_but_never_straightens():
    eff = discrete_effective_link(linear_link(1.0, 0.0, (1.0, 9.0)), 1000.0)
    cls = classify_link(eff, tol=1e-4)
    assert cls.concave
    assert abs(cls.second_diff_min) < 1e-4


def test_effective_link_rejects_an_undefined_log():
    with pytest.raises(ValueError, match="ln"):
        discrete_effective_link(linear_link(1.0, 0.0, (0.0, 10.0)), 0.0)


def test_cycle_direction_of_the_raw_payoffs():
    assert rps_direction(None, 1.0, 2.0, -2.0) == "outward"
    assert rps_direction(None, -1.0, 2.0, -2.0) == "inward"
    assert rps_direction(None, 0.0, 1.0, -1.0) == "degenerate"


def test_cycle_direction_under_a_convex_link_flips():
    f = exp_link(1.0, (-2.0, 2.0))
    assert rps_direction(f, 1.0, 2.0, -2.0, mode="continuous-functional") == \
        "inward"


def test_cycle_direction_through_the_generation_map():
    f = linear_link(1.0, 0.0, (1.0, 9.0))
    got = rps_direction(f, 4.0, 8.0, 2.0, mode="discrete-functional",
                        background=0.0)
    # ln is concave: ln 4 > (ln 8 + ln 2)/2 = ln 4 would be equality;
    # the geometric mean of 8 and 2 equals 4, so this sits at the boundary
    assert got == "degenerate"
    assert rps_direction(f, 5.0, 8.0, 2.0, mode="discrete-functional") == \
        "outward"


def test_cycle_direction_checks_the_ordering():
    with pytest.raises(ValueError, match="c < a < b"):
        rps_direction(None, 2.0, 1.0, 0.0)


def test_cycle_direction_mode_errors():
    with pytest.raises(ValueError, match="mode"):
        rps_direction(None, 1.0, 2.0, -2.0, mode="sideways")
    with pytest.raises(ValueError, match="link"):
        rps_direction(None, 1.0, 2.0, -2.0, mode="continuous-functional")


def test_replicator_direction_equals_the_identity_link():
    rng = np.random.default_rng(3)
    ident = linear_link(1.0, 0.0)
    for _ in range(100):
        c, a, b = np.sort(rng.uniform(-5.0, 5.0, size=3))
        if not c < a < b:
            continue
        assert rps_direction(None, a, b, c) == \
            rps_direction(ident, a, b, c, mode="continuous-functional")


def test_parse_link_specs():
    f = parse_link("sqrt@1,9")
    assert f.family == "sqrt" and f.domain == (1.0, 9.0)
    g = parse_link("linear:2,1")
    assert eval_link(g, 3.0) == 7.0
    h = parse_link("exp:1", domain=(-2.0, 2.0))
    assert h.domain == (-2.0, 2.0)


def test_parse_link_requires_an_interval_when_it_matters():
    with pytest.raises(ValueError, match="interval"):
        parse_link("sqrt")
    with pytest.raises(ValueError):
        parse_link("frobnicate@0,1")


@pytest.mark.parametrize("f", FAMILY_LINKS, ids=lambda f: f.family)
def test_array_link_agrees_with_scalar_link(f):
    lo, hi = f.domain
    pad = domain_pad(f)
    u = np.concatenate([np.linspace(lo, hi, 41),
                        [lo - 0.5 * pad, hi + 0.5 * pad, lo - 2.0 * pad, hi + 2.0 * pad,
                         math.nan, math.inf]])
    fast = scalar_link(f)
    want = [fast(float(v)) for v in u]
    got = array_link(f)(u)
    assert np.isnan(got).sum() == 4
    # NumPy's vector exp/log/pow may differ from libm in the last bit
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

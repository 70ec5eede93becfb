"""Link families, shape classification, and cycle direction."""

import math

import numpy as np
import pytest

from egtlab.links import (FAMILIES, DomainError, LinkFunction, array_link, classify_link,
                          discrete_effective_link, domain_pad, eval_link,
                          exp_link, hull_inside, increasing_on, linear_link, log_link,
                          parse_link, power_link, rps_direction, scalar_link, sqrt_link,
                          table_link)
from oracles import grid_shape, random_link


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


@pytest.mark.parametrize("u", [9.5, [2.0, 9.5], np.float64(9.5)],
                         ids=["float", "array", "numpy-scalar"])
def test_a_payoff_outside_the_domain_is_named_as_a_plain_float(u):
    with pytest.raises(DomainError) as err:
        eval_link(sqrt_link((1.0, 9.0)), u)
    assert str(err.value) == "payoff 9.5 outside link domain [1, 9]"


FAMILY_LINKS = [
    linear_link(2.0, -1.0, (-3.0, 3.0)), power_link(1.5, (0.0, 4.0)),
    exp_link(-0.7, (-2.0, 2.0)), log_link((0.5, 4.0)), sqrt_link((0.0, 4.0)),
    table_link([0.0, 0.3, 1.1, 2.0, 3.5], [0.1, 0.5, 0.7, 1.9, 2.0]),
    discrete_effective_link(sqrt_link((0.0, 4.0)), 1.0),
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


@pytest.mark.parametrize("make", [lambda: exp_link(1000.0, (0.0, 1.0)),
                                  lambda: exp_link(-1000.0, (-1.0, 0.0)),
                                  lambda: power_link(400.0, (-10.0, 1.0))],
                         ids=["exp-at-hi", "exp-at-lo", "even-power-at-lo"])
def test_a_link_must_be_finite_at_both_ends(make):
    # and NumPy's overflow warning, an error under this suite's filter, stays silent
    with pytest.raises(ValueError, match="not finite"):
        make()


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


def test_classify_on_a_sub_interval():
    # u^3 is concave left of zero, convex right of it
    f = power_link(3.0, (-2.0, 2.0))
    assert classify_link(f, interval=(0.1, 2.0)).label == "convex-monotonic"
    assert classify_link(f, interval=(-2.0, -0.1)).label == "concave-monotonic"
    assert classify_link(f).label == "monotonic"


def test_classify_a_decreasing_link():
    assert not classify_link(linear_link(-1.0, 0.0, (0.0, 1.0))).increasing


# a table that falls on [-3, -2] and is flat on [2, 3]
BUMP = table_link([-3.0, -2.0, 2.0, 3.0], [1.0, 0.0, 4.0, 4.0])


@pytest.mark.parametrize("f, lo, hi, want", [
    (linear_link(2.0, -1.0), -5.0, 5.0, True),
    (linear_link(-1.0, 0.0), -5.0, 5.0, False),
    (linear_link(0.0, 3.0), -5.0, 5.0, False),
    (exp_link(1.0, (-2.0, 2.0)), -2.0, 2.0, True),
    (exp_link(-0.05, (0.0, 20.0)), 0.0, 20.0, False),
    (exp_link(0.0, (0.0, 1.0)), 0.0, 1.0, False),
    (sqrt_link((0.0, 20.0)), 0.0, 20.0, True),
    (log_link((0.2, 1.5)), 0.2, 1.5, True),
    (power_link(2.0, (-3.0, 3.0)), 0.0, 3.0, True),
    (power_link(2.0, (-3.0, 3.0)), -3.0, 0.27, False),
    (power_link(3.0, (-3.0, 3.0)), -3.0, 3.0, True),
    (power_link(0.5, (0.0, 4.0)), 0.0, 4.0, True),
    (power_link(-1.0, (0.5, 4.0)), 0.5, 4.0, False),
    (BUMP, -2.0, 2.0, True),
    (BUMP, -2.5, 2.0, False),
    (BUMP, -2.0, 2.5, False),
    (power_link(2.0, (-3.0, -1.0)), -3.0, -1.0, False),
    (power_link(-2.0, (-3.0, -0.5)), -3.0, -0.5, True),
], ids=["line", "falling-line", "flat-line", "exp", "falling-exp", "flat-exp", "sqrt",
        "log", "square-on-positives", "square-across-zero", "cube", "root", "reciprocal",
        "table-rising-part", "table-falling-part", "table-flat-part", "square-on-negatives",
        "reciprocal-square-on-negatives"])
def test_increasing_on_reads_the_family(f, lo, hi, want):
    assert increasing_on(f, lo, hi) is want
    assert classify_link(f, interval=(lo, hi)).increasing is want


@pytest.mark.parametrize("f, label", [
    (exp_link(0.0, (0.0, 1.0)), "non-monotonic"),
    (linear_link(0.0, 3.0, (0.0, 1.0)), "non-monotonic"),
    (power_link(1.0 - 1e-5, (1.0, 9.0)), "concave-monotonic"),
    (exp_link(1e-4, (0.0, 2.0)), "convex-monotonic"),
    (table_link([0.0, 1.0, 2.0], [0.0, -1e-12, 1.0]), "non-monotonic"),
    (discrete_effective_link(linear_link(1.0, 0.0, (1.0, 15.0)), 1e6), "concave-monotonic"),
], ids=["flat-exp", "flat-line", "near-linear-power", "slow-exp", "table-dip",
        "small-step-log"])
def test_classify_reads_shapes_below_a_grid_slack(f, label):
    # the grid calls all but the table increasing and linear, the table
    # increasing and convex; ln(1e6 + u) bends by about 1e-12 per unit
    linear = f.family != "table"
    assert grid_shape(f, *f.domain)[0] == (True, True, linear)
    assert classify_link(f).label == label


def test_classify_interval_must_be_nonempty_and_in_the_domain():
    f = sqrt_link((1.0, 9.0))
    for interval in ((3.0, 3.0), (4.0, 2.0)):
        with pytest.raises(ValueError, match="empty"):
            classify_link(f, interval)
    with pytest.raises(DomainError):
        classify_link(f, (0.5, 9.0))
    assert classify_link(f, (4.0, 4.0 + 1e-12)).label == "concave-monotonic"


def test_grid_reads_curvature_near_its_rounding_floor_as_unclear():
    # ln(1000 + table) bends by about 11 eps max|f| per step of the 1001-point
    # grid, inside the rounding band: the grid reads it as linear, but no
    # longer calls that reading clear, since every 10th point bends 100x more
    f = discrete_effective_link(table_link([2.874770233973422, 6.382163087315066,
                                            7.436266459804109],
                                           [1.2492412283152214, 2.1035532242733055,
                                            1.1478217622772722]), 1000.0)
    interval = (3.708116234411331, 4.246339272389012)
    assert grid_shape(f, *interval) == ((True, True, True), False)
    assert classify_link(f, interval).label == "concave-monotonic"


@pytest.mark.parametrize("family", FAMILIES)
def test_classify_agrees_with_a_grid_where_the_grid_is_clear(family):
    rng = np.random.default_rng(FAMILIES.index(family))
    clear = 0
    for _ in range(200):
        f = random_link(rng, family)
        lo, hi = np.sort(rng.uniform(*f.domain, 2)) if rng.uniform() < 0.5 else f.domain
        want, trusted = grid_shape(f, lo, hi)
        if not trusted:
            continue
        cls = classify_link(f, (lo, hi))
        assert (cls.increasing, cls.convex, cls.concave) == want, (f, lo, hi)
        assert cls.linear == (cls.convex and cls.concave)
        clear += 1
    # a large background flattens most effective links below the grid's slack
    assert clear >= (75 if family == "effective" else 120)


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
    cls = classify_link(eff)
    assert cls.concave and not cls.linear


def test_effective_link_rejects_an_undefined_log():
    with pytest.raises(ValueError, match="ln"):
        discrete_effective_link(linear_link(1.0, 0.0, (0.0, 10.0)), 0.0)
    # u^2 is least inside the domain, not at an end
    with pytest.raises(ValueError, match=r"background 0 leaves ln\(\) undefined at payoff 0$"):
        discrete_effective_link(power_link(2.0, (-1.0, 1.0)), 0.0)
    with pytest.raises(ValueError, match="undefined at payoff 2$"):
        discrete_effective_link(table_link([0.0, 2.0, 3.0], [1.0, -1.0, 2.0]), 0.5)


def test_effective_link_values_are_exact():
    f = linear_link(1.0, 0.0, (1.0, 15.0))
    u = np.linspace(1.0, 15.0, 1001) + 0.007  # off any knot grid
    u[-1] = 15.0
    np.testing.assert_array_equal(eval_link(discrete_effective_link(f, 2.5), u),
                                  np.log(2.5 + u))


def test_effective_link_takes_an_inner_link_of_another_family():
    f = sqrt_link((1.0, 9.0))
    with pytest.raises(ValueError, match="only it, takes an inner link"):
        LinkFunction("effective", (1.0,), (1.0, 9.0))
    with pytest.raises(ValueError, match="only it, takes an inner link"):
        LinkFunction("sqrt", (), (1.0, 9.0), inner=f)
    with pytest.raises(ValueError, match="of another family"):
        discrete_effective_link(discrete_effective_link(f, 1.0), 1.0)
    with pytest.raises(ValueError, match="whose domain covers its own"):
        LinkFunction("effective", (1.0,), (0.5, 9.0), inner=f)
    with pytest.raises(ValueError, match="takes a background"):
        LinkFunction("effective", (1.0, 2.0), (1.0, 9.0), inner=f)


@pytest.mark.parametrize("interval, label", [
    ((0.5, 0.9), "convex-monotonic"),
    ((1.1, 5.0), "concave-monotonic"),
    ((0.5, 5.0), "monotonic"),
    ((1.01, 1.4), "concave-monotonic"),
])
def test_effective_power_bends_where_u_p_meets_p_minus_1_times_c(interval, label):
    # ln(1 + u^2)'' has the sign of 2 (1 - u^2): convex below u = 1, concave above
    eff = discrete_effective_link(power_link(2.0, (0.5, 5.0)), 1.0)
    assert classify_link(eff, interval).label == label


def test_effective_table_is_concave_between_its_knots():
    # the knot at 1 bends f up, the knot at 2 bends it down; ln(C + f) bends
    # as f does at a knot, and is concave on each sloped segment whatever C
    inner = table_link([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 5.0, 5.0])
    for C in (0.0, 1.0, 1e6):
        eff = discrete_effective_link(inner, C)
        assert classify_link(eff, (0.2, 0.8)).label == "concave-monotonic"
        assert classify_link(eff, (0.5, 1.5)).label == "monotonic"
        assert classify_link(eff, (1.5, 2.5)).label == "concave-monotonic"
        assert classify_link(eff, (3.2, 3.8)).label == "non-monotonic"
        assert classify_link(eff, (3.2, 3.8)).linear
        assert classify_link(eff).label == "non-monotonic"


def test_cycle_direction_of_the_raw_payoffs():
    assert rps_direction(None, 1.0, 2.0, -2.0) == "outward"
    assert rps_direction(None, -1.0, 2.0, -2.0) == "inward"
    assert rps_direction(None, 0.0, 1.0, -1.0) == "degenerate"


def test_cycle_direction_under_a_convex_link_flips():
    f = exp_link(1.0, (-2.0, 2.0))
    assert rps_direction(f, 1.0, 2.0, -2.0) == "inward"


def test_cycle_direction_through_the_generation_map():
    f = discrete_effective_link(linear_link(1.0, 0.0, (1.0, 9.0)), 0.0)
    got = rps_direction(f, 4.0, 8.0, 2.0)
    # ln is concave: ln 4 > (ln 8 + ln 2)/2 = ln 4 would be equality;
    # the geometric mean of 8 and 2 equals 4, so this sits at the boundary
    assert got == "degenerate"
    assert rps_direction(f, 5.0, 8.0, 2.0) == "outward"


def test_discrete_cycle_direction_is_exact_off_the_table_knots():
    # the identity link on (0.5, 10) at background 0: the effective link takes
    # ln at a, b and c themselves, on no grid of knots
    f = discrete_effective_link(linear_link(1.0, 0.0, (0.5, 10.0)), 0.0)
    # a^2 = b c exactly, so ln a = (ln b + ln c) / 2
    assert rps_direction(f, 2.0, 4.0, 1.0) == "degenerate"
    # delta = -ln(1 + 1e-6) / 2, about -5.0e-7
    assert rps_direction(f, 2.0, 4.0, 1.0 + 1e-6) == "inward"


def test_cycle_direction_does_not_depend_on_the_payoff_scale():
    # an absolute tie band of 1e-12 would read (1e-13, 2e-13, -2e-13) as a tie
    cases = (((1.0, 2.0, -2.0), "outward"), ((-1.0, 2.0, -2.0), "inward"),
             ((0.0, 1.0, -1.0), "degenerate"))
    for (a, b, c), want in cases:
        got = {rps_direction(None, s * a, s * b, s * c) for s in 2.0 ** np.arange(-60, 61)}
        assert got == {want}, (a, b, c)
    assert rps_direction(None, 1e-13, 2e-13, -2e-13) == "outward"


def test_cycle_direction_checks_the_ordering():
    with pytest.raises(ValueError, match="c < a < b"):
        rps_direction(None, 2.0, 1.0, 0.0)


def test_replicator_direction_equals_the_identity_link():
    rng = np.random.default_rng(3)
    ident = linear_link(1.0, 0.0)
    for _ in range(100):
        c, a, b = np.sort(rng.uniform(-5.0, 5.0, size=3))
        if not c < a < b:
            continue
        assert rps_direction(None, a, b, c) == rps_direction(ident, a, b, c)


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


def _closed_form(f, u):
    """f at u by its family's formula, its coefficients Python floats."""
    p = f.params
    return {"linear": lambda: p[0] * u + p[1], "power": lambda: u ** p[0],
            "exponential": lambda: np.exp(p[0] * u), "logarithm": lambda: np.log(u),
            "sqrt": lambda: np.sqrt(u), "table": lambda: np.interp(u, f.knots_x, f.knots_y),
            "effective": lambda: np.log(p[0] + _closed_form(f.inner, u))}[f.family]()


@pytest.mark.parametrize("f", FAMILY_LINKS, ids=lambda f: f.family)
def test_array_link_is_eval_link_to_the_bit(f):
    lo, hi = f.domain
    pad = domain_pad(f)
    # inside the hull, on its ends and in the clamp dust just outside them,
    # one row per run as the stepper passes them
    u = np.concatenate([np.random.default_rng(7).uniform(lo, hi, 196),
                        [lo, hi, lo - 0.5 * pad, hi + 0.5 * pad]]).reshape(50, 4)
    want = eval_link(f, u).view(np.int64)
    np.testing.assert_array_equal(_closed_form(f, np.clip(u, lo, hi)).view(np.int64), want)
    for within in (None, (lo, hi)):
        np.testing.assert_array_equal(array_link(f, within)(u).view(np.int64), want)


@pytest.mark.parametrize("f", FAMILY_LINKS, ids=lambda f: f.family)
def test_links_within_a_hull_inside_the_domain_only_clamp(f):
    lo, hi = f.domain
    pad = domain_pad(f)
    hull = (lo - pad, hi + pad)
    assert hull_inside(f, hull) and hull_inside(f, (lo, lo))
    assert not hull_inside(f, (lo - 2.0 * pad, hi)) and not hull_inside(f, (lo, hi + 2.0 * pad))
    u = np.concatenate([np.linspace(lo, hi, 41), [lo - 0.5 * pad, hi + 0.5 * pad]])
    want = [scalar_link(f)(float(v)) for v in u]
    assert [scalar_link(f, within=hull)(float(v)) for v in u] == want
    np.testing.assert_allclose(array_link(f, within=hull)(u), want, rtol=1e-15, atol=0.0)
    # a hull that leaves the padded domain keeps the nan outside it
    assert math.isnan(scalar_link(f, within=(lo - 2.0 * pad, hi))(lo - 2.0 * pad))
    assert np.isnan(array_link(f, within=(lo, hi + 2.0 * pad))(np.array([hi + 2.0 * pad])))[0]

"""Construction searches, certificate re-checks, and the scenario runners.

The acceptance tests at the end run all seven catalog scenarios at their
catalog defaults and log each as an acceptance criterion.
"""

import collections
import dataclasses
import hashlib
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from egtlab import scenarios
from egtlab.dominance import strict_margin
from egtlab.games import pure
from egtlab.links import (FAMILIES, classify_link, discrete_effective_link, exp_link,
                          increasing_on, linear_link, log_link, power_link, rps_direction,
                          sqrt_link, table_link)
from egtlab.scenarios import (SCENARIO_INTERVALS, SCENARIOS, Rps4Construction,
                              SurvivalConstruction, _wedge_start, build_rps4,
                              build_survival, run_background_schedules,
                              run_background_threshold, run_discussion, run_dual_4x4,
                              run_survival_nonconcave, run_survival_nonconvex)
from oracles import random_link, survival_eps_max, wedge_start

MIX_TB = np.array([0.5, 0.0, 0.5])
EXP = exp_link(1.0, (-2.0, 2.0))
# the dual certificate on the triple (1, 2, -2), with the search path's beta
# and gamma: 2% and 10% of the spread 4
DUAL = Rps4Construction(EXP, "dual", 1.0, 2.0, -2.0, 0.08, 0.4)


def test_survival_construction_under_a_concave_link():
    con = build_survival(sqrt_link((1.0, 9.0)), "nonconvex")
    assert (con.a, con.b) == (1.0, 9.0)
    assert con.eps == pytest.approx(0.5, abs=1e-12)
    assert con.alpha == pytest.approx(math.sqrt(4.5) - 2.0, rel=1e-12)
    assert con.Cf == 3.0 and con.T == 59 and con.period == 118.0
    np.testing.assert_allclose(con.game.payoff,
                               [[9.0, 1.0], [4.5, 4.5], [1.0, 9.0]])
    assert strict_margin(con.game, MIX_TB, pure(1, 3)) == pytest.approx(con.eps)
    np.testing.assert_array_equal(con.schedule.times, [0.0, 58.0, 59.0, 117.0])
    np.testing.assert_array_equal(
        con.schedule.values, [[1, 0], [1, 0], [0, 1], [0, 1]])
    np.testing.assert_array_equal(con.dominated.weights, [0.0, 1.0, 0.0])


def test_survival_construction_under_a_convex_link():
    con = build_survival(power_link(2.0, (0.0, 3.0)), "nonconcave")
    assert (con.a, con.b) == (0.0, 3.0)
    assert con.eps == pytest.approx(0.31066017177982125, rel=1e-9)
    assert con.alpha == pytest.approx(1.2215097423302685, rel=1e-9)
    assert con.Cf == 9.0 and con.T == 17
    u_m = float(con.game.payoff[1, 0])
    assert u_m == pytest.approx(1.5 + con.eps, rel=1e-12)
    # here the pure strategy dominates the mixture, with the same margin
    assert strict_margin(con.game, pure(1, 3), MIX_TB) == pytest.approx(con.eps)
    np.testing.assert_array_equal(con.dominated.weights, MIX_TB)


@pytest.fixture
def link_calls(monkeypatch):
    """The links of every eval_link call the construction code makes."""
    calls, real = [], scenarios.eval_link

    def counting(f, u):
        calls.append(f)
        return real(f, u)

    monkeypatch.setattr(scenarios, "eval_link", counting)
    return calls


# knots of a table link of ln, linear between them
LOG_KNOTS = np.linspace(1.0, 15.0, 1001)
# (link, variant, (a, b, eps, alpha, Cf, T)): what the grid search over the
# link's domain and a bisection that runs all its 200 halvings find, to the
# bit; the boxed case searches (1, 4) of the sqrt link on (1, 9)
SEARCHES = {
    "sqrt-nonconvex": (sqrt_link((1.0, 9.0)), "nonconvex",
                       (1.0, 9.0, 0.49999999999999933, 0.12132034355964283, 3.0, 59)),
    "sqrt-boxed-nonconvex": (dataclasses.replace(sqrt_link((1.0, 9.0)), domain=(1.0, 4.0)),
                             "nonconvex",
                             (1.0, 4.0, 0.12499999999999988, 0.041103500742244004,
                              2.0, 123)),
    "power-symmetric-nonconcave": (power_link(2.0, (-3.0, 3.0)), "nonconcave",
                                   (-3.0, 3.0, 1.4999999999999998, 6.75, 9.0, 4)),
    "power-nonconcave": (power_link(2.0, (0.0, 3.0)), "nonconcave",
                         (0.0, 3.0, 0.31066017177982125, 1.2215097423302685, 9.0, 17)),
    "exp-nonconcave": (exp_link(1.0, (0.0, 2.5)), "nonconcave",
                       (0.0, 2.5, 0.317871276866302, 1.7948199269335037,
                        12.182493960703473, 16)),
    "log-nonconvex": (log_link((0.2, 1.5)), "nonconvex",
                      (0.2, 1.5, 0.1511387212474169, 0.24368338899930458,
                       1.6094379124341003, 19)),
    "table-nonconvex": (table_link(LOG_KNOTS, np.log(LOG_KNOTS)), "nonconvex",
                        (1.0, 15.0, 2.0635062061052096, 0.4270929243985917,
                         2.70805020110221, 17)),
    "effective-nonconvex": (discrete_effective_link(linear_link(1.0, 0.0, (1.0, 15.0)), 0.0),
                            "nonconvex",
                            (1.0, 15.0, 2.063508326896291, 0.4270932309107449,
                             2.70805020110221, 17)),
}


@pytest.mark.parametrize("case", SEARCHES)
def test_survival_search_stays_within_its_work_budget(case, link_calls):
    f, variant, want = SEARCHES[case]
    con = build_survival(f, variant)
    assert (con.a, con.b, con.eps, con.alpha, con.Cf, con.T) == want
    # 40 or 41 calls: 18 in the grid passes, 12 to 14 in the bisection; a
    # bisection of one link call per step takes 26 to 28 more
    assert len(link_calls) <= 48


@pytest.mark.parametrize("variant", ["nonconvex", "nonconcave"])
def test_survival_eps_is_the_plain_bisection_to_the_bit(variant):
    # random links of every family on their domains or on random boxes in
    # them; lines have no violation to build on, and every refusal must say so
    rng = np.random.default_rng(27)
    built, bisected = collections.Counter(), 0
    for family in FAMILIES:
        for _ in range(20):
            f = random_link(rng, family)
            box = np.sort(rng.uniform(*f.domain, 2)) if rng.uniform() < 0.5 else None
            if box is not None:
                f = dataclasses.replace(f, domain=tuple(box))
            try:
                con = build_survival(f, variant)
            except ValueError as e:
                assert "violation of the link" in str(e)
                continue
            assert con.eps == 0.5 * survival_eps_max(f, variant, con.a, con.b), (f, box)
            built[family] += 1
            bisected += con.eps < 0.25 * (con.b - con.a)
    assert built["linear"] == 0 and len(built) >= 4 and bisected >= 30


def test_survival_search_evaluates_the_link_on_axes(monkeypatch):
    # per pass: the 201 a values once per block of b values, the 201 b values
    # and the 201 x 201 midpoints, not three 201 x 201 grids
    points, real = [], scenarios.eval_link

    def counting(f, u):
        points.append(np.size(u))
        return real(f, u)

    monkeypatch.setattr(scenarios, "eval_link", counting)
    build_survival(sqrt_link((1.0, 9.0)), "nonconvex")
    assert sum(points) < 100_000


def test_grid_search_refines_around_the_coarse_winner():
    shapes = []

    def slack(x, y):
        shapes.append((x.shape, y.shape))
        return -((x - 0.3) ** 2) - (y - 1.0) ** 2

    (x, y), best = scenarios._grid_search(slack, 0.0, 1.0, 2, 11, 21)
    # sparse axes, the coarse pass over the box, then the fine one
    assert shapes == [((11, 1), (1, 11)), ((21, 1), (1, 21))]
    # the fine pass spans [0.2, 0.4] around x = 0.3 and is clipped to [0.9, 1]
    # around y = 1, so it lands on both again, now to the fine step
    assert abs(x - 0.3) < 1e-12 and y == 1.0
    assert best == slack(np.array(x), np.array(y))


def test_grid_search_keeps_the_first_maximum_in_c_order_across_blocks():
    # two equal maxima on the coarse 201 x 201 grid g x g: (g[5], g[0]) in the
    # first block of second-axis values, and (g[0], g[200]) in the last, which
    # comes first in C order and so is np.argmax's point of the whole grid
    g = np.linspace(0.0, 1.0, 201)
    widths = []

    def slack(x, y):
        widths.append(y.shape[1])
        return -np.minimum(np.abs(x - g[5]) + np.abs(y), np.abs(x) + np.abs(1.0 - y))

    (x, y), best = scenarios._grid_search(slack, 0.0, 1.0, 2, 201, 201)
    assert widths == [81, 81, 39] * 2  # three blocks in each pass
    whole = slack(*np.meshgrid(g, g, indexing="ij", sparse=True))
    assert np.unravel_index(int(np.argmax(whole)), whole.shape) == (0, 200)
    # the fine pass spans [0, 0.005] x [0.995, 1] around (0, 1)
    assert (x, y, best) == (0.0, 1.0, 0.0)


def test_background_threshold_evaluates_the_rule_link_three_times(link_calls):
    link = linear_link(1.0, 0.0, (1.0, 15.0))
    report, _ = run_background_threshold(link, big_c=1e4)
    assert report["threshold"]["C_bar"] == 4.904737509655565
    assert sum(f is link for f in link_calls) <= 3


def test_background_threshold_is_the_drift_root():
    link = linear_link(1.0, 0.0, (1.0, 15.0))
    _, _, con, _, _ = scenarios._background_setup(link)
    drift, c_bar = scenarios._generation_drift(con, link)
    assert drift(c_bar * (1.0 - 1e-12)) > 0.0 > drift(c_bar * (1.0 + 1e-12))
    assert abs(drift(c_bar)) <= 4.0 * math.ulp(math.log(c_bar))


def test_background_threshold_needs_a_rule_the_background_can_flatten():
    # u^(1/4) keeps 2 g_M above g_T + g_B: M gains at every background
    with pytest.raises(ValueError, match="no finite background threshold"):
        run_background_threshold(power_link(0.25, (1.0, 15.0)))


def test_survival_rejects_links_without_the_violation():
    line = linear_link(1.0, 0.0, (0.0, 10.0))
    with pytest.raises(ValueError, match="no convexity violation"):
        build_survival(line, "nonconvex")
    with pytest.raises(ValueError, match="no concavity violation"):
        build_survival(line, "nonconcave")
    with pytest.raises(ValueError, match="variant"):
        build_survival(sqrt_link((1.0, 9.0)), "sideways")


def test_survival_builds_on_a_violation_below_the_classifier_grid():
    # u^(1 - 1e-5) is strictly concave, so not convex. A 1001-point grid's
    # second differences stay within a 1e-9 slack and would call it linear,
    # while the search's midpoint gap over [1, 9], 1.8e-5, is far above its
    # own threshold, 1e-9 times max |f| = 9
    f = power_link(1.0 - 1e-5, (1.0, 9.0))
    cls = classify_link(f)
    assert cls.concave and not cls.linear
    con = build_survival(f, "nonconvex")
    assert (con.a, con.b) == (1.0, 9.0)
    assert 0.0 < con.alpha < 1e-5
    with pytest.raises(ValueError, match="no concavity violation"):
        build_survival(f, "nonconcave")


@pytest.mark.parametrize("run, link", [
    (run_survival_nonconvex, power_link(1.0 - 1e-5, (1.0, 9.0))),
    (run_survival_nonconcave, exp_link(1e-4, (0.0, 2.0))),
], ids=["nonconvex", "nonconcave"])
def test_survival_runs_on_a_long_period_stay_within_the_sample_bound(run, link):
    # periods of 4.1e6 and 2.4e9: sampled every 100 steps of dt 1e-3, the
    # runs would take 5e8 and 2e11 samples
    report, traj = run(link)
    assert len(traj.times) <= scenarios.SURVIVAL_MAX_SAMPLES
    assert traj.times[-1] == report["run"]["t_max"]
    if run is run_survival_nonconvex:
        assert report["run"]["x_M_final"] > 0.99


def test_survival_runs_at_their_defaults_sample_every_100_steps():
    for run in (run_survival_nonconvex, run_survival_nonconcave):
        report, traj = run()
        t_max, dt = report["run"]["t_max"], report["run"]["dt"]
        assert len(traj.times) == round(t_max / dt) // 100 + 1


@pytest.mark.parametrize("con, free", [
    (build_survival(sqrt_link((1.0, 9.0)), "nonconvex"), ["link", "variant", "a", "b", "eps"]),
    (DUAL, ["link", "variant", "a", "b", "c", "beta", "gamma"]),
], ids=["survival", "rps4"])
def test_certificates_take_only_their_free_parameters(con, free):
    fields = dataclasses.fields(con)
    assert [f.name for f in fields if f.init] == free
    given = {name: getattr(con, name) for name in free}
    for f in fields:
        if not f.init:
            with pytest.raises(TypeError):
                type(con)(**given, **{f.name: getattr(con, f.name)})


SQRT = sqrt_link((1.0, 9.0))
LINE = linear_link(1.0, 0.0, (0.0, 10.0))


@pytest.mark.parametrize("args, message", [
    ((SQRT, "sideways", 1.0, 9.0, 0.5), "unknown construction variant"),
    ((SQRT, "nonconvex", 9.0, 1.0, 0.5), "need a < b"),
    ((SQRT, "nonconvex", 1.0, 9.0, 0.0), "outside"),
    ((SQRT, "nonconvex", 1.0, 9.0, 4.0), "outside"),
    ((LINE, "nonconvex", 1.0, 9.0, 0.5), "no curvature gap"),
    ((LINE, "nonconcave", 1.0, 9.0, 0.5), "no curvature gap"),
])
def test_survival_certificate_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        SurvivalConstruction(*args)


@pytest.mark.parametrize("variant, margin, message", [
    ("nonconvex", 0.0, "domination certificate failed"),
    ("nonconvex", 0.25, "should equal eps"),
    ("nonconcave", 0.0, "domination certificate failed"),
])
def test_survival_certificate_checks_its_margin(monkeypatch, variant, margin, message):
    f = SQRT if variant == "nonconvex" else power_link(2.0, (0.0, 3.0))
    b = 9.0 if variant == "nonconvex" else 3.0
    args = (f, variant, f.domain[0], b, 0.1)
    SurvivalConstruction(*args)
    monkeypatch.setattr(scenarios, "strict_margin", lambda *_: margin)
    with pytest.raises(ValueError, match=message):
        SurvivalConstruction(*args)


HW_LINK = sqrt_link((0.0, 20.0))
RAMP = linear_link(1.0, 0.0, (-3.0, 3.0))


@pytest.mark.parametrize("args, message", [
    ((EXP, "sideways", 1.0, 2.0, -2.0, 0.08, 0.4), "unknown construction variant"),
    ((EXP, "dual", 1.0, 2.0, 3.0, 0.08, 0.4), "c < a < b"),
    ((EXP, "dual", 1.0, 2.0, -2.0, 0.0, 0.4), "beta and gamma must be positive"),
    ((EXP, "dual", 1.0, 2.0, -2.0, 0.08, -0.4), "beta and gamma must be positive"),
    ((RAMP, "dual", 1.0, 2.0, -2.0, 0.08, 0.4), "turns the core outward, "
                                                 "construction needs inward"),
    ((HW_LINK, "hofbauer-weibull", 8.0, 10.0, 1.0, 0.1, 0.2), "cycle inward"),
    ((HW_LINK, "hofbauer-weibull", 2.0, 10.0, 1.0, 3.0, 0.2), "exceed a \\+ beta"),
    ((HW_LINK, "hofbauer-weibull", 2.0, 10.0, 1.0, 0.1, 30.0), "link domain"),
    ((RAMP, "hofbauer-weibull", 1.0, 3.0, 0.0, 0.1, 0.2), "turns the core inward, "
                                                           "construction needs outward"),
])
def test_rps4_certificate_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        Rps4Construction(*args)


@pytest.mark.parametrize("con, margin, message", [
    (DUAL, 0.07, "fell below min\\(beta, gamma\\)"),
    (build_rps4(HW_LINK, "hofbauer-weibull", (0.01, 20.0)), 0.0, "not strictly dominated"),
], ids=["dual", "hofbauer-weibull"])
def test_rps4_certificate_checks_its_margin(monkeypatch, con, margin, message):
    monkeypatch.setattr(scenarios, "strict_margin", lambda *_: margin)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(con)


# The two default 4x4 builds, recorded to the bit before beta and gamma
# became certificate fields that only the search sets:
# (a, b, c, beta, gamma, m) and the payoffs.
RPS4_BUILDS = {
    "hofbauer-weibull": (
        (HW_LINK, (0.01, 20.0)),
        (7.353265306122448, 20.0, 0.030397959183673467, 0.3993920408163265,
         1.9969602040816328, 9.12788775510204),
        [[7.353265306122448, 0.030397959183673467, 20.0, 1.9969602040816328],
         [20.0, 7.353265306122448, 0.030397959183673467, 1.9969602040816328],
         [0.030397959183673467, 20.0, 7.353265306122448, 1.9969602040816328],
         [7.752657346938774, 7.752657346938774, 7.752657346938774, 0.0]]),
    "dual": (
        (EXP, (-2.0, 2.0)),
        (0.21224489795918344, 2.0, -2.0, 0.08, 0.4, 0.07074829931972786),
        [[0.21224489795918344, -2.0, 2.0, -0.32925170068027215],
         [2.0, 0.21224489795918344, -2.0, -0.32925170068027215],
         [-2.0, 2.0, 0.21224489795918344, -0.32925170068027215],
         [0.15074829931972786, 0.15074829931972786, 0.15074829931972786,
          0.07074829931972786]]),
}


@pytest.mark.parametrize("variant", RPS4_BUILDS)
def test_rps4_default_builds_are_pinned(variant):
    (f, box), params, payoff = RPS4_BUILDS[variant]
    con = build_rps4(f, variant, box)
    assert (con.a, con.b, con.c, con.beta, con.gamma, con.m) == params
    assert con.game.payoff.tolist() == payoff


@pytest.mark.parametrize("variant", RPS4_BUILDS)
def test_rps4_default_builds_stay_in_bounded_memory(variant):
    # the search scores its 50^3 coarse grid in blocks of 2^14 points; whole,
    # the grid's temporaries peaked at 4.8 MiB (hofbauer-weibull) and 7.6 MiB
    (f, box), _, _ = RPS4_BUILDS[variant]
    build_rps4(f, variant, box)
    tracemalloc.start()
    try:
        build_rps4(f, variant, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_rps4_runs_halve_beta_on_a_rebuilt_certificate(monkeypatch):
    checked, real = [], scenarios.rps_direction

    def counting(*args, **kwargs):
        checked.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenarios, "rps_direction", counting)
    runs, integrate, verdicts = [], scenarios.integrate, iter([False, False, True])

    def recording(rule, game, x0, **kwargs):
        runs.append((game, x0))
        return integrate(rule, game, x0, **kwargs)

    monkeypatch.setattr(scenarios, "integrate", recording)
    x0 = np.full((1, 4), 0.25)
    con, halvings, _, _ = scenarios._rps4_runs(
        EXP, DUAL, x0, lambda traj: ([], next(verdicts)), t_max=0.1)
    assert halvings == 2
    assert [game.payoff[3, :3].tolist() for game, _ in runs] == \
        [[DUAL.m + beta] * 3 for beta in (0.08, 0.04, 0.02)]
    assert all(start is x0 for _, start in runs)  # every rebuild runs the same starts
    assert con.beta == DUAL.beta / 4.0
    assert (con.a, con.b, con.c, con.gamma) == (DUAL.a, DUAL.b, DUAL.c, DUAL.gamma)
    assert len(checked) == 2  # each rebuild ran the certificate's checks again
    np.testing.assert_array_equal(con.game.payoff[3, :3], con.m + 0.02)


def test_rps4_dual_with_a_pinned_triple():
    con = DUAL
    assert (con.a, con.b, con.c) == (1.0, 2.0, -2.0)
    assert con.m == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert con.beta == pytest.approx(0.08) and con.gamma == pytest.approx(0.4)
    np.testing.assert_allclose(con.game.payoff[3, :3], con.m + con.beta)
    np.testing.assert_allclose(con.game.payoff[:3, 3], con.m - con.gamma)
    assert con.game.payoff[3, 3] == pytest.approx(con.m)
    np.testing.assert_allclose(con.core_game.payoff,
                               [[1.0, -2.0, 2.0], [2.0, 1.0, -2.0], [-2.0, 2.0, 1.0]])
    margin = strict_margin(con.game, pure(3, 4), np.array([1, 1, 1, 0]) / 3.0)
    assert margin == pytest.approx(con.beta, rel=1e-12)


def test_rps4_dual_grid_search_lands_in_the_rotation_band():
    f = exp_link(1.0, (-2.0, 2.0))
    con = build_rps4(f, "dual")
    assert con.c < con.a < con.b
    delta = con.a - 0.5 * (con.b + con.c)
    span = 4.0
    assert 0.03 * span < delta < 0.13 * span
    assert rps_direction(f, con.a, con.b, con.c) == "inward"


def test_rps4_hofbauer_weibull_needs_curvature():
    with pytest.raises(ValueError, match="no feasible cycle payoffs"):
        build_rps4(linear_link(1.0, 0.0, (0.01, 20.0)), "hofbauer-weibull")


def test_rps4_hofbauer_weibull_under_sqrt():
    f = sqrt_link((0.0, 20.0))
    con = build_rps4(f, "hofbauer-weibull", (0.01, 20.0))
    assert con.variant == "hofbauer-weibull"
    assert con.c < con.a < con.b
    assert con.a < 0.5 * (con.b + con.c)  # raw rotation inward
    assert rps_direction(f, con.a, con.b, con.c) == "outward"
    assert con.m > con.a + con.beta
    np.testing.assert_allclose(con.game.payoff[3, :3], con.a + con.beta)
    np.testing.assert_allclose(con.game.payoff[:3, 3], con.gamma)
    assert con.game.payoff[3, 3] == 0.0
    margin = strict_margin(con.game, np.array([1, 1, 1, 0]) / 3.0, pure(3, 4))
    assert margin > 0.0


# (link, variant, search box): the search finds a triple on each, but none of
# these links increases on the assembled payoffs, which span [0, 19.6] for
# the exp links and [-3, 0.27] for u^2
NOT_INCREASING = {
    "exp-rate-0.05": (exp_link(-0.05, (0.0, 20.0)), "hofbauer-weibull", (0.01, 20.0)),
    "exp-rate-0.2": (exp_link(-0.2, (0.0, 20.0)), "hofbauer-weibull", (0.01, 20.0)),
    "square": (power_link(2.0, (-3.0, 3.0)), "hofbauer-weibull", (-3.0, 3.0)),
    "falling-line-dual": (linear_link(-1.0, 0.0, (-2.0, 2.0)), "dual", (-2.0, 2.0)),
    "falling-line-hw": (linear_link(-1.0, 0.0, (0.0, 20.0)), "hofbauer-weibull", (0.0, 20.0)),
}


@pytest.mark.parametrize("case", NOT_INCREASING)
def test_rps4_refuses_a_link_that_does_not_increase_on_its_payoffs(case):
    f, variant, box = NOT_INCREASING[case]
    with pytest.raises(ValueError, match=r"link is not increasing on the assembled payoffs"):
        build_rps4(f, variant, box)


INCREASING = {
    "sqrt": (sqrt_link((0.0, 20.0)), "hofbauer-weibull", (0.01, 20.0)),
    "exp": (EXP, "dual", (-2.0, 2.0)),
    "cube-dual": (power_link(3.0, (-3.0, 3.0)), "dual", (-3.0, 3.0)),
    "cube-hw": (power_link(3.0, (-3.0, 3.0)), "hofbauer-weibull", (-3.0, 3.0)),
}


@pytest.mark.parametrize("case", INCREASING)
def test_rps4_builds_on_a_link_that_increases_on_its_payoffs(case):
    f, variant, box = INCREASING[case]
    con = build_rps4(f, variant, box)
    assert increasing_on(f, float(con.game.payoff.min()), float(con.game.payoff.max()))


def test_rps4_takes_a_table_that_falls_only_outside_its_payoffs():
    con = build_rps4(*INCREASING["cube-hw"])  # payoffs in [-2.88, 1.78]
    xs = np.linspace(-3.0, 3.0, 61)
    ys = xs ** 3
    ys[-1] = ys[-2] - 1.0  # falls on [2.9, 3]
    free = (con.a, con.b, con.c, con.beta, con.gamma)
    assert Rps4Construction(table_link(xs, ys), con.variant, *free).link.family == "table"
    ys[30] = ys[31]  # flat on [0, 0.1]
    with pytest.raises(ValueError, match=r"not increasing on the assembled payoffs "
                                         r"\[-2.87755, 1.77551\]"):
        Rps4Construction(table_link(xs, ys), con.variant, *free)


def test_rps4_explicit_triples_are_still_validated():
    with pytest.raises(ValueError, match="cycle outward"):
        Rps4Construction(EXP, "dual", -1.0, 2.0, -2.0, 0.08, 0.4)
    with pytest.raises(ValueError, match="link domain"):
        Rps4Construction(EXP, "dual", 1.0, 3.0, -2.0, 0.08, 0.4)


def test_rps4_discrete_direction_mode():
    # a generation map's construction is built on its effective link
    f = linear_link(1.0, 0.0, (0.0, 15.0))
    con = Rps4Construction(discrete_effective_link(f, 1.0), "hofbauer-weibull",
                           3.9, 5.0, 3.0, 0.02, 0.2)
    # raw rotation inward, but ln(1 + u) turns it outward: (1+a)^2 > (1+b)(1+c)
    assert con.a < 0.5 * (con.b + con.c)
    assert (1.0 + con.a) ** 2 > (1.0 + con.b) * (1.0 + con.c)
    assert rps_direction(con.link, 3.9, 5.0, 3.0) == "outward"
    assert rps_direction(f, 3.9, 5.0, 3.0) == "inward"


def test_basin_validation():
    # eps4 is the runner's parameter; a bad one stops the run at its first start
    with pytest.raises(ValueError, match=r"eps4 must be in \(0, 1\), got 1.5"):
        run_dual_4x4(eps4=1.5, n_seeds=1, taylor_samples=1)


@pytest.mark.parametrize("eps4", [-0.1, 0.0, 1.0])
def test_basin_checks_its_own_ranges(eps4):
    # outside (0, 1) the start's x4 = eps4/2 is not positive, or x4 <= eps4 bounds nothing
    with pytest.raises(ValueError, match="eps4"):
        _wedge_start(eps4, np.random.default_rng(0))


def test_basin_sample_sits_on_the_wedge_midline():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = _wedge_start(0.04, rng)
        assert x[3] == 0.02  # eps4 / 2
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(np.prod(x[:3])) == pytest.approx(0.005, rel=1e-6)  # rho / 2


# SHA-256 of the starts the dual runs draw: ten in a row from
# np.random.default_rng(s) for s = 0, 1, 2, as little-endian doubles of shape
# (3, 10, 4). Recorded from BasinK(0.01, eps4).sample, the class the sampler
# left, at the benchmark's two eps4 values.
WEDGE_DRAWS = {0.04: "59b40844070839e6e0d0774c83a765c1b7007bb29655ce9fc4f80018ccbf5984",
               4e-4: "b3d7e74df91e2b0c651d3719486cfa2fd233850079f752105a8d116124840f6b"}


@pytest.mark.parametrize("eps4", sorted(WEDGE_DRAWS))
def test_the_dual_starts_are_the_same_to_the_bit(eps4):
    draws = np.array([[_wedge_start(eps4, rng) for _ in range(10)]
                      for rng in map(np.random.default_rng, (0, 1, 2))])
    assert draws.shape == (3, 10, 4)
    assert hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest() == WEDGE_DRAWS[eps4]


@pytest.mark.parametrize("eps4", [0.04, 4e-4, 0.3])
def test_the_dual_starts_are_the_plain_bisection_to_the_bit(eps4):
    # _wedge_start's bisection walks the same midpoints as 200 plain halvings,
    # and stops only once no later halving could move the bracket
    for seed in range(100):
        got = _wedge_start(eps4, np.random.default_rng(seed))
        want = wedge_start(eps4, np.random.default_rng(seed))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_run_discussion_report():
    report, traj = run_discussion()
    assert report["ok"]
    assert report["game"]["payoff"] == [[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]]
    assert report["lp_margin"] == pytest.approx(0.5, abs=1e-9)
    assert report["run"]["w_growth"] >= report["run"]["w_growth_bound"]
    assert report["run"]["min_support_final"] < 1e-8
    assert report["verdicts"]["mixture"]["status"] == "eliminated"
    assert report["run"]["method"] == traj.meta["method"] == "dop853"
    assert traj.states.shape[1] == 3


def test_run_discussion_short_horizon_is_flagged():
    report, _ = run_discussion(t_max=5.0)
    assert not report["ok"]
    assert not report["checks"]["min-support-below-1e-8"]


def test_run_survival_nonconcave_report():
    report, _ = run_survival_nonconcave()
    assert report["ok"]
    assert report["run"]["x_M_final"] < 1e-4
    assert report["run"]["product_floor"] > 0.01
    assert 0.235 <= report["run"]["product_late_max"] <= 0.25


def test_run_background_schedules_report():
    report, _ = run_background_schedules()
    assert report["ok"]
    assert report["run"]["affine_min_support_final"] < 1e-4
    assert report["run"]["geometric_w_tail_move"] < 0.05
    assert report["verdicts"]["geometric"]["status"] == "survived"


# the run sizes the command line and the benchmark set; every other value
# of a catalog protocol is fixed
RUN_SIZES = {"seed", "t_max", "n_max", "periods", "n_seeds", "eps4", "taylor_samples",
             "big_c"}


FLOW_SIZES = {"discussion": {"t_max": 2.0}, "survival-nonconvex": {},
              "survival-nonconcave": {"periods": 3}, "hw-4x4": {"t_max": 2.0, "n_seeds": 2},
              "dual-4x4": {"t_max": 2.0, "n_seeds": 2, "taylor_samples": 4}}


@pytest.mark.parametrize("name, sizes", FLOW_SIZES.items(), ids=FLOW_SIZES)
def test_flows_record_the_catalog_grid(name, sizes):
    report, traj = SCENARIOS[name](**sizes)
    assert report["run"]["dt"] == 0.001
    if "t_max" in sizes:  # self-play: a sample at every 100th point of the grid
        np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-9)
    else:  # scripted: the exact path, which the grid only samples
        assert report["run"]["method"] == "exact"


def test_catalog_is_consistent():
    assert set(SCENARIOS) == set(SCENARIO_INTERVALS)
    for name, runner in SCENARIOS.items():
        link, *keywords = inspect.signature(runner).parameters.values()
        assert link.name == "link" and all(p.kind is p.KEYWORD_ONLY for p in keywords), name
        names = {p.name for p in keywords}
        assert names <= RUN_SIZES, (name, names - RUN_SIZES)


# acceptance ------------------------------------------------------------------


# every catalog scenario, numbered as an acceptance criterion
ACCEPTANCE = ("survival-nonconvex", "background-threshold", "hw-4x4", "dual-4x4",
              "discussion", "survival-nonconcave", "background-schedules")


def test_acceptance_runs_the_whole_catalog():
    assert sorted(ACCEPTANCE) == sorted(SCENARIOS)


@pytest.mark.parametrize("number, name", enumerate(ACCEPTANCE, 1), ids=ACCEPTANCE)
def test_catalog_scenario_passes_its_checks_at_the_defaults(number, name, acceptance_log):
    report, _ = SCENARIOS[name]()
    failed = sorted(check for check, ok in report["checks"].items() if not ok)
    acceptance_log(number, not failed,
                   f"{report['scenario']} at its catalog defaults passes "
                   f"{len(report['checks'])} checks" + (f"; failed: {failed}" if failed else ""))
    assert report["checks"] and not failed

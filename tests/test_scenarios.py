"""Construction searches, certificate re-checks, and the scenario runners.

The acceptance tests at the end run whole catalog scenarios at their catalog
defaults, hw-4x4 and dual-4x4 included, and log each as an acceptance
criterion.
"""

import inspect
import math

import numpy as np
import pytest

from egtlab import scenarios
from egtlab.dominance import strict_margin
from egtlab.games import Game, pure
from egtlab.links import (discrete_effective_link, exp_link, linear_link, power_link,
                          rps_direction, sqrt_link)
from egtlab.scenarios import (SCENARIO_INTERVALS, SCENARIOS, build_rps4,
                              build_survival, dual_basin_k, named_game,
                              run_background_schedules, run_background_threshold,
                              run_discussion, run_dual_4x4, run_hw_4x4,
                              run_survival_nonconcave, run_survival_nonconvex)

MIX_TB = np.array([0.5, 0.0, 0.5])


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
    np.testing.assert_array_equal(con.dominated, MIX_TB)


@pytest.fixture
def link_calls(monkeypatch):
    """The links of every eval_link call the construction code makes."""
    calls, real = [], scenarios.eval_link

    def counting(f, u):
        calls.append(f)
        return real(f, u)

    monkeypatch.setattr(scenarios, "eval_link", counting)
    return calls


# (link, variant, (a, b, eps, alpha, Cf, T)): the values a bisection that
# runs all its 200 halvings finds, to the bit
SEARCHES = {
    "sqrt-nonconvex": (sqrt_link((1.0, 9.0)), "nonconvex",
                       (1.0, 9.0, 0.49999999999999933, 0.12132034355964283, 3.0, 59)),
    "power-nonconcave": (power_link(2.0, (0.0, 3.0)), "nonconcave",
                         (0.0, 3.0, 0.31066017177982125, 1.2215097423302685, 9.0, 17)),
    "table-nonconvex": (discrete_effective_link(linear_link(1.0, 0.0, (1.0, 15.0)), 0.0),
                        "nonconvex",
                        (1.0, 15.0, 2.0635062061052096, 0.4270929243985917,
                         2.70805020110221, 17)),
}


@pytest.mark.parametrize("case", SEARCHES)
def test_survival_search_stays_within_its_work_budget(case, link_calls):
    f, variant, want = SEARCHES[case]
    con = build_survival(f, variant)
    assert (con.a, con.b, con.eps, con.alpha, con.Cf, con.T) == want
    assert len(link_calls) <= 80


def test_background_threshold_evaluates_the_rule_link_three_times(link_calls):
    link = linear_link(1.0, 0.0, (1.0, 15.0))
    report, _ = run_background_threshold(link, big_c=1e4)
    assert report["threshold"]["C_bar"] == 4.904748651848568
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


def test_survival_search_box_restricts_the_pair():
    con = build_survival(sqrt_link((1.0, 9.0)), "nonconvex", search_box=(1.0, 4.0))
    assert (con.a, con.b) == (1.0, 4.0)


def test_survival_rejects_links_without_the_violation():
    line = linear_link(1.0, 0.0, (0.0, 10.0))
    with pytest.raises(ValueError, match="no convexity violation"):
        build_survival(line, "nonconvex")
    with pytest.raises(ValueError, match="no concavity violation"):
        build_survival(line, "nonconcave")
    with pytest.raises(ValueError, match="variant"):
        build_survival(sqrt_link((1.0, 9.0)), "sideways")
    with pytest.raises(ValueError, match="eps_frac"):
        build_survival(sqrt_link((1.0, 9.0)), "nonconvex", eps_frac=1.0)


def test_rps4_dual_with_a_pinned_triple():
    f = exp_link(1.0, (-2.0, 2.0))
    con = build_rps4(f, "dual", abc=(1.0, 2.0, -2.0))
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
    assert rps_direction(f, con.a, con.b, con.c,
                         mode="continuous-functional") == "inward"


def test_rps4_hofbauer_weibull_needs_curvature():
    with pytest.raises(ValueError, match="no feasible cycle payoffs"):
        build_rps4(linear_link(1.0, 0.0, (0.01, 20.0)), "hofbauer-weibull")


def test_rps4_hofbauer_weibull_under_sqrt():
    f = sqrt_link((0.0, 20.0))
    con = build_rps4(f, "hofbauer-weibull", (0.01, 20.0))
    assert con.variant == "hofbauer-weibull"
    assert con.c < con.a < con.b
    assert con.a < 0.5 * (con.b + con.c)  # raw rotation inward
    assert rps_direction(f, con.a, con.b, con.c,
                         mode="continuous-functional") == "outward"
    assert con.m > con.a + con.beta
    np.testing.assert_allclose(con.game.payoff[3, :3], con.a + con.beta)
    np.testing.assert_allclose(con.game.payoff[:3, 3], con.gamma)
    assert con.game.payoff[3, 3] == 0.0
    margin = strict_margin(con.game, np.array([1, 1, 1, 0]) / 3.0, pure(3, 4))
    assert margin > 0.0


def test_rps4_explicit_triples_are_still_validated():
    f = exp_link(1.0, (-2.0, 2.0))
    with pytest.raises(ValueError, match="cycle outward"):
        build_rps4(f, "dual", abc=(-1.0, 2.0, -2.0))
    with pytest.raises(ValueError, match="link domain"):
        build_rps4(f, "dual", abc=(1.0, 3.0, -2.0))


def test_rps4_discrete_direction_mode():
    # a generation map's construction is built on its effective link
    f = linear_link(1.0, 0.0, (0.0, 15.0))
    con = build_rps4(discrete_effective_link(f, 1.0), "hofbauer-weibull",
                     abc=(3.9, 5.0, 3.0))
    # raw rotation inward, but ln(1 + u) turns it outward: (1+a)^2 > (1+b)(1+c)
    assert con.a < 0.5 * (con.b + con.c)
    assert (1.0 + con.a) ** 2 > (1.0 + con.b) * (1.0 + con.c)
    assert rps_direction(f, 3.9, 5.0, 3.0, mode="discrete-functional",
                         background=1.0) == "outward"
    assert rps_direction(f, 3.9, 5.0, 3.0,
                         mode="continuous-functional") == "inward"


def test_basin_membership():
    con = build_rps4(exp_link(1.0, (-2.0, 2.0)), "dual", abc=(1.0, 2.0, -2.0))
    basin = dual_basin_k(con, 1.0 / 30.0, 0.04)
    near_center = np.array([0.98 / 3.0] * 3 + [0.02])
    assert not basin.contains(near_center)  # core product too large
    assert dual_basin_k(con, 0.02, 0.05).contains((0.6, 0.3, 0.08, 0.02))
    assert basin.contains((1.0, 0.0, 0.0, 0.0))
    assert not basin.contains((0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="4-strategy"):
        basin.contains((0.5, 0.3, 0.2))


def test_basin_validation():
    con = build_rps4(exp_link(1.0, (-2.0, 2.0)), "dual", abc=(1.0, 2.0, -2.0))
    with pytest.raises(ValueError, match="rho"):
        dual_basin_k(con, 1.0 / 27.0, 0.04)
    with pytest.raises(ValueError, match="eps4"):
        dual_basin_k(con, 0.01, 1.5)
    hw = build_rps4(sqrt_link((0.0, 20.0)), "hofbauer-weibull", (0.01, 20.0))
    with pytest.raises(ValueError, match="dual"):
        dual_basin_k(hw, 0.01, 0.04)


def test_basin_sample_sits_on_the_wedge_midline():
    con = build_rps4(exp_link(1.0, (-2.0, 2.0)), "dual", abc=(1.0, 2.0, -2.0))
    basin = dual_basin_k(con, 0.01, 0.04)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = basin.sample(rng)
        assert basin.contains(x)
        assert x[3] == 0.02
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(np.prod(x[:3])) == pytest.approx(0.005, rel=1e-6)


def test_named_game_catalog():
    np.testing.assert_array_equal(named_game("discussion-3x3").payoff,
                                  [[3, 0, 0], [0, 3, 0], [2, 2, 1]])
    np.testing.assert_array_equal(named_game("rps-base", 1.0, 2.0, -2.0).payoff,
                                  [[1, -2, 2], [2, 1, -2], [-2, 2, 1]])
    np.testing.assert_array_equal(named_game("rps-base", 0, 0, 0).payoff,
                                  np.zeros((3, 3)))


def test_named_game_errors():
    with pytest.raises(ValueError, match="unknown game name"):
        named_game("matching-pennies")
    with pytest.raises(ValueError, match="takes no parameters"):
        named_game("discussion-3x3", 1.0)
    with pytest.raises(ValueError, match="exactly three"):
        named_game("rps-base", 1.0, 2.0)


def test_run_discussion_report():
    report, traj = run_discussion()
    assert report["ok"]
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
RUN_SIZES = {"seed", "t_max", "dt", "n_max", "periods", "n_seeds", "eps4", "taylor_samples",
             "big_c"}


def test_catalog_is_consistent():
    assert set(SCENARIOS) == set(SCENARIO_INTERVALS)
    for name, runner in SCENARIOS.items():
        link, *keywords = inspect.signature(runner).parameters.values()
        assert link.name == "link" and all(p.kind is p.KEYWORD_ONLY for p in keywords), name
        names = {p.name for p in keywords}
        assert names <= RUN_SIZES, (name, names - RUN_SIZES)


# acceptance ------------------------------------------------------------------


@pytest.mark.parametrize("number, runner", [(1, run_survival_nonconvex),
                                            (2, run_background_threshold),
                                            (3, run_hw_4x4), (4, run_dual_4x4)],
                         ids=["survival-nonconvex", "background-threshold", "hw-4x4",
                              "dual-4x4"])
def test_catalog_scenario_passes_its_checks_at_the_defaults(number, runner,
                                                           acceptance_log):
    report, _ = runner()
    failed = sorted(name for name, ok in report["checks"].items() if not ok)
    acceptance_log(number, not failed,
                   f"{report['scenario']} at its catalog defaults passes "
                   f"{len(report['checks'])} checks" + (f"; failed: {failed}" if failed else ""))
    assert report["checks"] and not failed

"""Divergence coordinate, elimination metrics, verdicts, and the cycle probe."""

import math

import numpy as np
import pytest

from egtlab.diagnostics import (elimination_metrics, least_squares_slope,
                                log_min_support, log_mixture_mass, periodic_floor,
                                taylor_sign_check, verdict, w_series)
from egtlab.dynamics import GrowthRule, IntegrationError, Trajectory, integrate
from egtlab.games import Game, pure, uniform
from egtlab.links import DomainError, exp_link, linear_link, sqrt_link
from egtlab.scenarios import build_rps4
from oracles import vector_field, w_rate

DISCUSSION = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])
GAP_GAME = Game([[1.0, 1.0], [0.0, 0.0]])
REPL = GrowthRule()


def cycle_game(a, b, c):
    return Game([[a, c, b], [b, a, c], [c, b, a]])


def flat_trajectory(state, times):
    logs = np.tile(np.log(np.asarray(state, dtype=float)), (len(times), 1))
    return Trajectory(np.asarray(times, dtype=float), logs)


def test_w_series_ignores_shared_coordinates():
    traj = integrate(REPL, DISCUSSION, (1.0, 0.0, 0.0), t_max=1.0)
    w = w_series(traj, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    # x2 = x3 = 0 along the run, but p = q so nothing blows up
    np.testing.assert_array_equal(w, np.zeros(len(traj)))


def test_w_series_slope_on_a_constant_gap():
    traj = integrate(REPL, GAP_GAME, (0.5, 0.5), t_max=5.0)
    w = w_series(traj, pure(0, 2), pure(1, 2))
    assert least_squares_slope(traj.times, w) == pytest.approx(1.0, abs=1e-6)


def test_w_series_growth_is_bounded_below_pointwise():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=20.0)
    w = w_series(traj, (0.0, 0.0, 1.0), (0.5, 0.5, 0.0))
    rates = np.diff(w) / np.diff(traj.times)
    assert rates.min() >= 0.5 - 1e-9


def test_w_rate_hand_value():
    x = (0.4, 0.4, 0.2)
    p, q = (0.0, 0.0, 1.0), (0.5, 0.5, 0.0)
    assert w_rate(None, DISCUSSION, x, p, q) == pytest.approx(0.6, abs=1e-12)
    # a speed factor of 2 scales the rate, a linear link does the same
    assert w_rate(GrowthRule(speed=linear_link(0.0, 2.0)), DISCUSSION, x, p, q) == \
        pytest.approx(1.2, abs=1e-12)
    doubler = GrowthRule(link=linear_link(2.0, 0.0))
    assert w_rate(doubler, DISCUSSION, x, p, q) == pytest.approx(1.2, abs=1e-12)


def test_w_rate_against_a_scripted_opponent_state():
    y = (1.0, 0.0, 0.0)
    rate = w_rate(None, DISCUSSION, uniform(3), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), y=y)
    assert rate == pytest.approx(2.0 - 3.0, abs=1e-12)


def test_elimination_metrics_hand_values():
    traj = flat_trajectory((0.25, 0.5, 0.25), [0.0, 1.0, 2.0])
    mins, prods = elimination_metrics(traj, (0.5, 0.0, 0.5))
    np.testing.assert_allclose(mins, 0.25)
    np.testing.assert_allclose(prods, 0.25)


def test_elimination_metrics_on_a_pure_target():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=2.0)
    mins, prods = elimination_metrics(traj, pure(0, 3))
    np.testing.assert_allclose(mins, traj.states[:, 0], rtol=1e-12)
    np.testing.assert_allclose(prods, mins)


def test_elimination_metrics_vanish_on_a_dead_face():
    traj = integrate(REPL, DISCUSSION, (1.0, 0.0, 0.0), t_max=1.0)
    mins, prods = elimination_metrics(traj, (0.0, 1.0, 0.0))
    assert mins.max() == 0.0 and prods.max() == 0.0


def test_metric_length_validation():
    traj = flat_trajectory((0.5, 0.5), [0.0, 1.0])
    with pytest.raises(ValueError, match="length 2"):
        log_min_support(traj, (0.5, 0.25, 0.25))


def test_verdict_eliminated():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=60.0)
    v = verdict(traj, (0.5, 0.5, 0.0))
    assert v.status == "eliminated"
    assert v.metric_final < 1e-6 and v.metric_trend < 0.0
    assert "min_support" in v.witness


def test_verdict_survived():
    level = Game(np.ones((3, 3)))
    traj = integrate(REPL, level, uniform(3), t_max=1.0)
    v = verdict(traj, uniform(3))
    assert v.status == "survived"
    assert v.metric_final == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_verdict_needs_enough_samples():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=0.5)
    v = verdict(traj, (0.5, 0.5, 0.0))
    assert v.status == "inconclusive"
    assert "samples" in v.witness and math.isnan(v.metric_trend)


ON_ONE_RUN = {
    "w_series": lambda traj: w_series(traj, pure(2, 3), uniform(3)),
    "log_min_support": lambda traj: log_min_support(traj, uniform(3)),
    "log_mixture_mass": lambda traj: log_mixture_mass(traj, uniform(3)),
    "verdict": lambda traj: verdict(traj, pure(0, 3)),
    "periodic_floor": lambda traj: periodic_floor(traj, (0, 1), 1.0),
}


@pytest.mark.parametrize("name", ON_ONE_RUN)
def test_diagnostics_refuse_a_batch(name):
    call = ON_ONE_RUN[name]
    # three runs of three strategies: the run axis has the strategies' length
    starts = np.array([[0.4, 0.4, 0.2], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
    batch = integrate(REPL, DISCUSSION, starts, t_max=5.0)
    with pytest.raises(ValueError, match=rf"{name} reads a single run.*member\(k\)"):
        call(batch)
    call(batch.member(1))


def test_periodic_floor_constant_state():
    traj = flat_trajectory((0.2, 0.3, 0.5), np.arange(0.0, 10.5, 0.5))
    assert periodic_floor(traj, (0, 1), 2.0) == pytest.approx(0.06, rel=1e-12)


def test_periodic_floor_needs_three_periods():
    traj = flat_trajectory((0.2, 0.3, 0.5), np.arange(0.0, 10.5, 0.5))
    with pytest.raises(ValueError, match="3 complete periods"):
        periodic_floor(traj, (0, 1), 5.0)
    with pytest.raises(ValueError, match="positive"):
        periodic_floor(traj, (0, 1), 0.0)


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf])
def test_periodic_floor_needs_a_finite_period(period):
    # nan would fail in int() and inf in NumPy's scalar divide, naming no period
    traj = flat_trajectory((0.2, 0.3, 0.5), np.arange(0.0, 10.5, 0.5))
    with pytest.raises(ValueError) as err:
        periodic_floor(traj, (0, 1), period)
    assert str(err.value) == f"period must be positive and finite, got {period!r}"


@pytest.mark.parametrize("coords", [(-3, -1), (0, -1), (0, 5), (3, 0), (0.5, 1.7), (True, 2),
                                    (0, 1.0), (0, 1, 2), (0,), 5])
def test_periodic_floor_refuses_coords_outside_the_strategies(coords):
    # negative indices would read strategies from the end, 5 past it; int()
    # would truncate a fraction and read True as strategy 1; unpacking
    # anything but a pair raised an error that named no coords
    traj = flat_trajectory((0.2, 0.3, 0.5), np.arange(0.0, 10.5, 0.5))
    with pytest.raises(ValueError) as err:
        periodic_floor(traj, coords, 2.0)
    assert str(err.value) == f"coords must be a pair of strategy indices in [0, 3), got {coords!r}"
    assert periodic_floor(traj, (2, 0), 2.0) == pytest.approx(0.1, rel=1e-12)


def test_least_squares_slope_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert least_squares_slope(x, 3.0 * x + 1.0) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(ValueError, match="length >= 2"):
        least_squares_slope([1.0], [1.0])
    with pytest.raises(ValueError, match="abscissae"):
        least_squares_slope([2.0, 2.0], [1.0, 5.0])


def test_cycle_probe_direction_values():
    # delta = a - (b+c)/2 decides the near-center drift sign under the bare map
    assert taylor_sign_check(REPL, cycle_game(1.0, 2.0, -2.0), samples=150) == 1.0
    assert taylor_sign_check(REPL, cycle_game(-1.0, 2.0, -2.0), samples=150) == 0.0


@pytest.mark.parametrize("samples, message", [
    (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
    (np.float64(3.0), "must be an integer"), (0, "must be at least 1, got 0"),
    (-4, "must be at least 1, got -4")])
def test_cycle_probe_takes_a_whole_count_of_samples(samples, message):
    # 2.5 samples would read 1.2, a "fraction" above 1
    with pytest.raises(ValueError, match=rf"^samples {message}"):
        taylor_sign_check(REPL, cycle_game(1.0, 2.0, -2.0), samples=samples)
    assert taylor_sign_check(REPL, cycle_game(1.0, 2.0, -2.0), samples=np.int64(3)) == 1.0


def test_cycle_probe_keeps_its_sign_under_a_monotone_link():
    rule = GrowthRule(link=exp_link(1.0, (-4.0, 4.0)))
    assert taylor_sign_check(rule, cycle_game(1.0, 2.0, -2.0), samples=150) == 1.0


def probe_states(radius, seed):
    """The cycle probe's draws near the barycenter, in order."""
    rng = np.random.default_rng(seed)
    while True:
        h = rng.normal(size=3)
        h -= h.mean()
        norm = float(np.linalg.norm(h))
        if norm != 0.0:
            yield np.full(3, 1.0 / 3.0) + h * (radius * rng.uniform(0.1, 1.0) / norm)


def reference_sign_fraction(rule, game, radius, samples, seed):
    """The cycle probe one sample at a time: draw, evaluate the reference
    vector_field, skip exact zeros."""
    negative = counted = 0
    for k, x in enumerate(probe_states(radius, seed)):
        if counted == samples:
            return negative / samples
        if k >= 100 * samples:
            raise ValueError("drift vanishes on almost every sample")
        drift = float(np.sum(vector_field(rule, game, x) / x))
        if drift != 0.0:
            counted += 1
            negative += drift < 0.0


DUAL = build_rps4(exp_link(1.0, (-2.0, 2.0)), "dual", (-2.0, 2.0))
PROBES = {
    "outward": (REPL, cycle_game(1.0, 2.0, -2.0)),
    "inward": (REPL, cycle_game(-1.0, 2.0, -2.0)),
    "dual-core": (GrowthRule(link=exp_link(1.0, (-2.0, 2.0))), DUAL.core_game),
    # a = (b + c) / 2: the drift is third order in h, of either sign
    "balanced": (GrowthRule(link=exp_link(1.0, (-2.0, 2.0))), cycle_game(0.0, 1.0, -1.0)),
    "speed-link": (GrowthRule(speed=linear_link(0.5, 1.0, (-3.0, 3.0))),
                   cycle_game(1.0, 2.0, -2.0)),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("probe", PROBES)
def test_cycle_probe_matches_a_per_sample_loop(probe, seed):
    rule, game = PROBES[probe]
    for radius, samples in ((0.01, 200), (0.05, 37)):
        assert taylor_sign_check(rule, game, radius, samples, seed) == \
            reference_sign_fraction(rule, game, radius, samples, seed)


def test_cycle_probe_keeps_the_speed_factor_error():
    # the speed factor 0.5 + 3 x.u is about -0.5 near the center of this cycle
    rule = GrowthRule(speed=linear_link(3.0, 0.5, (-3.0, 3.0)))
    game = cycle_game(-1.0, 2.0, -2.0)
    with pytest.raises(IntegrationError, match="speed factor"):
        taylor_sign_check(rule, game)


def test_cycle_probe_reports_the_first_draw_outside_the_link_domain():
    # the payoffs near the center average 1/3, so a draw fails where its
    # smallest payoff falls below the domain's 0.33
    rule = GrowthRule(link=sqrt_link((0.33, 3.0)))
    game = cycle_game(1.0, 2.0, -2.0)
    for first, x in enumerate(probe_states(0.01, 0)):
        try:
            vector_field(rule, game, x)
        except DomainError:
            break
    assert first > 0
    with pytest.raises(IntegrationError, match=r"link domain .*\(strategy \d\)") as err:
        taylor_sign_check(rule, game)
    assert err.value.member == first


def test_cycle_probe_validation():
    with pytest.raises(ValueError, match="cyclic pattern"):
        taylor_sign_check(REPL, DISCUSSION)
    with pytest.raises(ValueError, match="c < a < b"):
        taylor_sign_check(REPL, cycle_game(3.0, 2.0, -2.0))
    with pytest.raises(ValueError, match="radius"):
        taylor_sign_check(REPL, cycle_game(1.0, 2.0, -2.0), radius=0.1)
    with pytest.raises(ValueError, match="samples"):
        taylor_sign_check(REPL, cycle_game(1.0, 2.0, -2.0), samples=0)

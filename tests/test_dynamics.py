"""Continuous flow: the log field, scheduling, and the log-space integrator."""

import numpy as np
import pytest

import oracles
from egtlab import dynamics, links
from egtlab.diagnostics import taylor_sign_check
from egtlab.discrete import iterate
from egtlab.dynamics import (_DT, Coupled, GrowthRule, IntegrationError, Schedule, _grid,
                             _log_field, _setup, eval_schedule, integrate,
                             write_trajectory_csv)
from egtlab.games import Game, SimplexError, pure
from egtlab.links import exp_link, linear_link, sqrt_link, table_link

DISCUSSION = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])
GAP_GAME = Game([[1.0, 1.0], [0.0, 0.0]])  # payoffs (1, 0) whatever y does
REPL = GrowthRule()


def square_wave(T: float) -> Schedule:
    return Schedule(2.0 * T, [0.0, T - 1.0, T, 2.0 * T - 1.0],
                    [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


# field ----------------------------------------------------------------------


def flow_rate(rule, game, x):
    """x times the flow's own log field (dynamics._log_field) at x, and zero
    off x's support: the frequency-space rate of a self-play run."""
    x = np.asarray(x, dtype=float)
    (pop,), pays, _ = _setup(rule, game, x, None)
    field, _ = _log_field([pop], pays, rule.speed)
    rate = np.zeros_like(x)
    rate[pop.support] = x[pop.support] * field(0.0, np.array([pop.z]), 0.0, 0)[0]
    return rate


def test_field_vanishes_on_constant_payoffs():
    game = Game([[2.0, 2.0], [2.0, 2.0]])
    np.testing.assert_array_equal(flow_rate(REPL, game, (0.3, 0.7)),
                                  np.zeros(2))


def test_field_hand_value():
    got = flow_rate(REPL, GAP_GAME, (0.5, 0.5))
    np.testing.assert_allclose(got, [0.25, -0.25], atol=1e-15)


def test_field_vanishes_at_vertices():
    np.testing.assert_array_equal(flow_rate(REPL, DISCUSSION, (1.0, 0.0, 0.0)),
                                  np.zeros(3))


def test_field_components_sum_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        game = Game(rng.uniform(-2.0, 2.0, size=(4, 4)))
        x = rng.dirichlet(np.ones(4))
        assert abs(flow_rate(REPL, game, x).sum()) <= 1e-12


@pytest.mark.parametrize("opponent", [None, square_wave(2.0)], ids=["dop853", "exact"])
def test_integrate_rejects_a_fractional_sample_every(opponent):
    with pytest.raises(ValueError, match="sample_every must be an integer"):
        integrate(REPL, GAP_GAME, (0.5, 0.5), opponent=opponent, t_max=1.0,
                  sample_every=2.5)


def test_integrate_refuses_a_boolean_sample_every():
    with pytest.raises(ValueError, match="sample_every must be an integer, got True"):
        integrate(REPL, GAP_GAME, (0.5, 0.5), t_max=1.0, sample_every=True)


def test_speed_must_be_positive():
    # a speed is a link over the mean payoff, and a run stops where it is not
    # positive; a number is no speed: a constant speed is a change of time,
    # checked as such against quad by test_closed_form.py's TIME_CHANGES
    for speed in (2.0, -1.0, 3, True, "fast"):
        with pytest.raises(TypeError, match="^speed must be None or a link over mean payoff"):
            GrowthRule(speed=speed)
    with pytest.raises(IntegrationError, match="^speed factor not positive"):
        integrate(GrowthRule(speed=linear_link(0.0, -1.0)), GAP_GAME, (0.5, 0.5), t_max=1.0)


def test_a_coupled_opponents_speed_is_refused():
    # refused where the second population is built, before any run reads it
    with pytest.raises(ValueError, match="^a coupled population's rule takes no speed factor$"):
        Coupled(Game([[1.0, 0.0], [0.0, 1.0]]), GrowthRule(speed=linear_link(0.0, 2.0)),
                (0.5, 0.5))


def test_payoff_dependent_speed_scales_by_mean_payoff():
    lam = linear_link(0.0, 3.0)  # constant table: x3 the clock
    got = flow_rate(GrowthRule(speed=lam), GAP_GAME, (0.5, 0.5))
    np.testing.assert_allclose(got, [0.75, -0.75], rtol=1e-15)


# schedules ------------------------------------------------------------------


def test_schedule_rejects_bad_shapes():
    with pytest.raises(ValueError, match="t=0"):
        Schedule(2.0, [0.5, 1.0], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="increase strictly"):
        Schedule(2.0, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="below the period"):
        Schedule(2.0, [0.0, 2.0], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="row"):
        Schedule(2.0, [0.0, 1.0], [[1.0, 0.0]])
    with pytest.raises(SimplexError):
        Schedule(2.0, [0.0, 1.0], [[1.0, 0.0], [0.5, 0.6]])


def test_schedule_evaluation():
    s = square_wave(10.0)
    np.testing.assert_array_equal(eval_schedule(s, 0.0), [1.0, 0.0])
    np.testing.assert_allclose(eval_schedule(s, 9.5), [0.5, 0.5])
    np.testing.assert_array_equal(eval_schedule(s, 23.0), [1.0, 0.0])


def test_schedule_wraps_continuously():
    s = square_wave(10.0)
    np.testing.assert_allclose(eval_schedule(s, 19.5), [0.5, 0.5])
    np.testing.assert_allclose(eval_schedule(s, 19.999),
                               eval_schedule(s, 39.999), atol=1e-12)


# sample grid ----------------------------------------------------------------


def random_schedules(rng, count):
    """Scripts of 1 to 6 pieces, each at least a fifteenth of the period, on
    integer periods (even k) and periods drawn from (0.5, 9) (odd k)."""
    for k in range(count):
        period = float(rng.integers(1, 10)) if k % 2 == 0 else float(rng.uniform(0.5, 9.0))
        n = int(rng.integers(1, 7))
        lengths = period * (1.0 + 9.0 * rng.dirichlet(np.ones(n))) / (n + 9.0)
        yield Schedule(period, np.append(0.0, np.cumsum(lengths[:-1])), np.full((n, 2), 0.5))


def test_grid_matches_the_loop_over_periods_and_breakpoints():
    # breakpoints here lie a fifteenth of a period apart, far beyond the
    # 1e-12 max(1, t_max) within which the grid merges them. Scripts shrunk
    # by 1e-2 and 1e-3 / 0.37 meet the grid as the unscaled ones would meet
    # one 100 and 370 times coarser, with pieces of a few grid steps.
    rng = np.random.default_rng(17)
    for script in random_schedules(rng, 24):
        k, j = int(rng.integers(1, 6)), int(rng.integers(len(script.times)))
        for scale, every in ((1.0, 100), (1.0, 997), (1e-2, 1), (1e-2, 7), (1e-3 / 0.37, 3)):
            P, times = scale * script.period, scale * script.times
            scaled = Schedule(P, times, script.values)
            for t_max in (0.6 * P, k * P + times[j], 7.25 * P):
                want_bounds, _, want_times = oracles.sample_grid(t_max, _DT, every, scaled)
                got = _grid(t_max, every, scaled)
                for name, w, g in zip(("bounds", "times"), (want_bounds, want_times), got):
                    np.testing.assert_array_equal(g, w, err_msg=f"{name}, P={P!r}, "
                                                  f"times={times!r}, t_max={t_max!r}")


# integrator -----------------------------------------------------------------


def test_log_ratio_grows_linearly():
    traj = integrate(REPL, GAP_GAME, (0.5, 0.5), t_max=5.0)
    ratio = traj.log_states[:, 0] - traj.log_states[:, 1]
    assert ratio[-1] - ratio[0] == pytest.approx(5.0, abs=1e-6)


def test_the_replicator_takes_payoffs_beyond_a_million():
    # its growth rate is the payoff itself; payoffs past 1e6 left its domain
    integrate(REPL, Game([[2e6, 0.0], [0.0, 1.0]]), [0.5, 0.5], t_max=1e-5)
    for opponent in (None, Schedule(2.0, [0.0], [[0.5, 0.5]])):
        traj = integrate(REPL, Game(3e7 * GAP_GAME.payoff), (0.5, 0.5), opponent=opponent,
                         t_max=5.0 / 3e7)
        ratio = traj.log_states[:, 0] - traj.log_states[:, 1]
        assert ratio[-1] - ratio[0] == pytest.approx(5.0, abs=1e-6)


def test_growth_rates_too_large_for_any_step_are_an_integration_error():
    # the scaled size of the first derivative overflows, and the first step
    # size with it: the run stops where _solve's step floor stops a run
    with pytest.raises(IntegrationError) as err:
        integrate(REPL, Game([[1e200, 0.0], [0.0, 1e200]]), [0.3, 0.7], t_max=1.0)
    assert str(err.value) == "step size fell to 0 near t=0"
    assert (err.value.t, err.value.step) == (0.0, 0)


def test_vertex_is_a_rest_point():
    traj = integrate(REPL, DISCUSSION, (0.0, 1.0, 0.0), t_max=1.0)
    np.testing.assert_array_equal(traj.states[-1], [0.0, 1.0, 0.0])


def test_dominated_pair_dies_in_the_discussion_game():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=200.0)
    x = traj.states[-1]
    assert x[0] * x[1] < 1e-8


def test_faces_are_exactly_invariant():
    traj = integrate(REPL, DISCUSSION, (0.5, 0.5, 0.0), t_max=3.0)
    assert np.all(traj.states[:, 2] == 0.0)


def test_simplex_drift_stays_tiny():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=5.0)
    assert traj.meta["max_drift"] <= 1e-10
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-9


def test_meta_records_the_run():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=1.0)
    assert traj.meta["dt"] == 1e-3
    assert traj.meta["rule"] == "replicator"
    assert traj.meta["game"] == DISCUSSION.digest()


def test_scheduled_opponent_is_followed():
    game = Game([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    traj = integrate(REPL, game, (0.4, 0.4, 0.2), opponent=square_wave(10.0),
                     t_max=40.0)
    assert traj.opp_states is not None
    # first leg favors strategy 1, second leg strategy 2
    k1 = int(np.searchsorted(traj.times, 8.0))
    k2 = int(np.searchsorted(traj.times, 18.0))
    assert traj.states[k1, 0] > traj.states[0, 0]
    assert traj.states[k2, 1] > traj.states[k1, 1]


def test_scheduled_opponent_width_is_checked():
    with pytest.raises(ValueError, match="columns"):
        integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2),
                  opponent=square_wave(10.0), t_max=1.0)


def test_coupled_populations_integrate_together():
    focal = Game([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    opp = Game([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    traj = integrate(REPL, focal, (0.5, 0.5),
                     opponent=Coupled(opp, REPL, np.full(3, 1.0 / 3.0)),
                     t_max=5.0)
    assert traj.opp_states.shape[1] == 3
    assert np.abs(traj.opp_states.sum(axis=1) - 1.0).max() <= 1e-9
    assert traj.meta["opponent"] == "coupled"


def test_coupled_shape_mismatch_is_reported():
    opp = Game([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="coupled"):
        integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2),
                  opponent=Coupled(opp, REPL, (0.5, 0.5)), t_max=1.0)


def test_coupled_opponent_on_a_face_stays_there():
    focal = Game([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    opp = Game([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    traj = integrate(REPL, focal, (0.5, 0.5),
                     opponent=Coupled(opp, REPL, (0.5, 0.0, 0.5)),
                     t_max=3.0)
    assert np.all(traj.opp_log_states[:, 1] == -np.inf)
    assert np.all(traj.opp_states[:, 1] == 0.0)
    assert np.all(np.isfinite(traj.opp_log_states[:, [0, 2]]))


def test_coupled_domain_failure_names_the_second_population():
    focal = Game([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # only the third opponent strategy's payoff leaves its link's domain
    opp = Game([[0.5, 0.5], [0.5, 0.5], [2.0, 2.0]])
    partner = Coupled(opp, GrowthRule(link=exp_link(1.0, (0.0, 1.0))),
                      np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError) as err:
        integrate(REPL, focal, (0.5, 0.5), opponent=partner, t_max=1.0)
    assert str(err.value) == ("population 2 link domain [0, 1] does not hold the payoffs "
                              "[0.5, 2.0] its run can see")


def test_self_play_needs_a_square_game():
    with pytest.raises(ValueError, match="square"):
        integrate(REPL, Game([[1.0, 0.0]]), (1.0,), t_max=1.0)


def test_link_domain_violation_stops_the_run():
    rule = GrowthRule(link=exp_link(1.0, (0.0, 1.0)))
    with pytest.raises(ValueError) as err:
        integrate(rule, DISCUSSION, (0.4, 0.4, 0.2), t_max=1.0)
    assert str(err.value) == ("link domain [0, 1] does not hold the payoffs [0.0, 3.0] "
                              "its run can see")


NARROW = GrowthRule(exp_link(1.0, (0.0, 1.0)))
SQRT = GrowthRule(sqrt_link((0.0, 1.5)))
X3 = (0.4, 0.4, 0.2)
# strategy 1's payoff leaves (0, 1.5) as the script crossfades to column 1
WAVE_GAME = Game([[0.0, 1.9], [0.0, 2.1], [0.5, 0.5]])
WAVE = Schedule(6.0, [0.0, 2.0, 3.0, 5.0], [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
# payoffs 3 .. 6 against this script, of the rows' 0 .. 8
MIXED_GAME = Game([[0.0, 8.0], [6.0, 2.0], [1.0, 5.0]])
MIXED = Schedule(4.0, [0.0, 2.0], [[0.5, 0.5], [0.25, 0.75]])
CYCLE = Game([[1.0, -2.0, 2.0], [2.0, 1.0, -2.0], [-2.0, 2.0, 1.0]])
CYCLE_RULE = GrowthRule(sqrt_link((0.33, 3.0)))
SPEEDS = [GrowthRule(speed=table_link([0.0, 2.0], [1.0, 2.0])),
          GrowthRule(speed=table_link([3.5, 6.0], [1.0, 2.0]))]
# (run, its whole message): a link, or a speed factor over the mean payoff,
# whose padded domain misses the payoffs its run can see
REFUSALS = {
    "self-play": (lambda: integrate(NARROW, DISCUSSION, X3, t_max=1.0),
                  "link domain [0, 1] does not hold the payoffs [0.0, 3.0] its run can see"),
    "self-play map": (lambda: iterate(NARROW, DISCUSSION, X3, n_max=5),
                      "link domain [0, 1] does not hold the payoffs [0.0, 3.0] its run can see"),
    "batch": (lambda: integrate(NARROW, DISCUSSION, [X3, (0.2, 0.3, 0.5)], t_max=1.0),
              "link domain [0, 1] does not hold the payoffs [0.0, 3.0] its run can see"),
    "coupled": (lambda: integrate(REPL, Game([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), (0.5, 0.5),
                                  opponent=Coupled(Game([[0.5, 0.5], [0.5, 0.5], [2.0, 2.0]]),
                                                   NARROW, np.full(3, 1.0 / 3.0)),
                                  t_max=1.0),
                "population 2 link domain [0, 1] does not hold the payoffs [0.5, 2.0] "
                "its run can see"),
    "scripted": (lambda: integrate(SQRT, WAVE_GAME, X3, opponent=WAVE, t_max=2.7),
                 "link domain [0, 1.5] does not hold the payoffs [0.0, 2.1] its run can see"),
    "scripted map": (lambda: iterate(SQRT, WAVE_GAME, X3, opponent=WAVE, n_max=2),
                     "link domain [0, 1.5] does not hold the payoffs [0.0, 2.1] "
                     "its run can see"),
    "speed": (lambda: integrate(SPEEDS[0], DISCUSSION, X3, t_max=1.0),
              "speed domain [0, 2] does not hold the payoffs [0.0, 3.0] its run can see"),
    "scripted speed": (lambda: integrate(SPEEDS[1], MIXED_GAME, X3, opponent=MIXED,
                                         t_max=1.0),
                       "speed domain [3.5, 6] does not hold the payoffs [3.0, 6.0] "
                       "its run can see"),
    "cycle probe": (lambda: taylor_sign_check(CYCLE_RULE, CYCLE),
                    "link domain [0.33, 3] does not hold the payoffs [-2.0, 2.0] "
                    "its run can see"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_link_that_misses_the_payoffs_its_run_can_see_is_refused_at_setup(case, monkeypatch):
    # every link is built above; from here on, a link evaluated fails the test
    def evaluated(*args):
        raise AssertionError("a link was evaluated before the refusal")

    monkeypatch.setattr(links, "_formula", evaluated)
    run, message = REFUSALS[case]
    with pytest.raises(ValueError) as err:
        run()
    assert str(err.value) == message


def test_nonpositive_speed_factor_stops_the_run():
    rule = GrowthRule(speed=linear_link(0.0, -1.0))
    with pytest.raises(IntegrationError, match="speed"):
        integrate(rule, DISCUSSION, (0.4, 0.4, 0.2), t_max=1.0)


def test_w_rate_matches_the_sampled_series():
    from egtlab.diagnostics import w_series
    q = np.array([0.5, 0.5, 0.0])
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=2.0, sample_every=1)
    w = w_series(traj, pure(2, 3), q)
    t = traj.times
    central = (w[2:] - w[:-2]) / (t[2:] - t[:-2])
    rates = np.array([oracles.w_rate(REPL, DISCUSSION, traj.states[k], pure(2, 3), q)
                      for k in range(1, len(t) - 1)])
    assert np.abs(central - rates).max() < 1e-7


def test_trajectory_csv_appends_extra_columns(tmp_path):
    traj = integrate(REPL, GAP_GAME, (0.5, 0.5), t_max=1.0)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path, extras={"w": traj.times * 2.0})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,w"
    assert len(lines) == len(traj) + 1
    row = [float(v) for v in lines[-1].split(",")]
    assert row[3] == 2.0 * traj.times[-1]


def test_trajectory_csv_has_full_precision(tmp_path):
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=1.0)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    row = [float(v) for v in lines[-1].split(",")]
    np.testing.assert_allclose(row[1:], traj.states[-1], rtol=1e-16)


def test_trajectory_csv_formats_every_value_like_a_float(tmp_path):
    # x2 stays on its zero face; the extras column holds -inf and nan
    traj = integrate(REPL, DISCUSSION, (0.6, 0.0, 0.4), t_max=1.0)
    w = traj.times * 3.0
    w[1], w[2] = -np.inf, np.nan
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path, extras={"w": w})
    rows = np.column_stack([traj.times, traj.states, w])
    want = "t,x1,x2,x3,w\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                      for row in rows)
    assert path.read_bytes() == want.encode()
    assert b",0," in path.read_bytes() and b",-inf\n" in path.read_bytes()


def test_trajectory_csv_refuses_a_batch(tmp_path):
    starts = np.array([[0.4, 0.4, 0.2], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
    batch = integrate(REPL, DISCUSSION, starts, t_max=1.0)
    with pytest.raises(ValueError, match=r"_csv reads a single run.* 3 runs.*member\(k\)"):
        write_trajectory_csv(batch, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()
    write_trajectory_csv(batch.member(2), tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == "t,x1,x2,x3"


def test_overflowing_step_is_an_integration_error():
    # A constant log-rate (1e3, 0) leaves no error to control, so each step
    # grows by the largest factor until one lifts the first log past exp's
    # range: the step from t = 0.253887, after four accepted steps. Through
    # integrate, a flow's error control keeps the state finite: on payoffs
    # (0, 1e7) the run ends after 30 steps.
    rate = np.array([[1e3, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(
            IntegrationError, match=r"non-finite near t=0\.253887$") as err:
        dynamics._solve(lambda t, z, t0, step: rate, [slice(0, 2)], np.log([[0.5, 0.5]]),
                        np.array([0.0, 10.0]), np.array([0.0, 10.0]))
    assert (err.value.t, err.value.step, err.value.member) == (
        pytest.approx(0.253887, abs=5e-7), 4, 0)

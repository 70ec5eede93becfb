"""Continuous flow: reference field, scheduling, and the log-space integrator."""

import numpy as np
import pytest

from egtlab.dynamics import (Coupled, GrowthRule, IntegrationError, Schedule,
                             eval_schedule, integrate, mean_payoff,
                             vector_field, write_trajectory_csv)
from egtlab.games import Game, SimplexError, pure
from egtlab.links import exp_link, linear_link, sqrt_link

DISCUSSION = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])
GAP_GAME = Game([[1.0, 1.0], [0.0, 0.0]])  # payoffs (1, 0) whatever y does
REPL = GrowthRule()


def square_wave(T: float) -> Schedule:
    return Schedule(2.0 * T, [0.0, T - 1.0, T, 2.0 * T - 1.0],
                    [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


# field ----------------------------------------------------------------------


def test_field_vanishes_on_constant_payoffs():
    game = Game([[2.0, 2.0], [2.0, 2.0]])
    np.testing.assert_array_equal(vector_field(REPL, game, (0.3, 0.7)),
                                  np.zeros(2))


def test_field_hand_value():
    got = vector_field(REPL, GAP_GAME, (0.5, 0.5))
    np.testing.assert_allclose(got, [0.25, -0.25], atol=1e-15)


def test_field_vanishes_at_vertices():
    np.testing.assert_array_equal(vector_field(REPL, DISCUSSION, (1.0, 0.0, 0.0)),
                                  np.zeros(3))


def test_field_components_sum_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        game = Game(rng.uniform(-2.0, 2.0, size=(4, 4)))
        x = rng.dirichlet(np.ones(4))
        assert abs(vector_field(REPL, game, x).sum()) <= 1e-12


def test_constant_speed_doubles_the_field():
    base = vector_field(REPL, GAP_GAME, (0.5, 0.5))
    fast = vector_field(GrowthRule(speed=2.0), GAP_GAME, (0.5, 0.5))
    np.testing.assert_allclose(fast, 2.0 * base, rtol=1e-15)


@pytest.mark.parametrize("opponent, method", [(None, "dop853"), (square_wave(2.0), "dop853"),
                                              (None, "rk4")],
                         ids=["dop853", "exact", "rk4"])
def test_integrate_rejects_a_fractional_sample_every(opponent, method):
    with pytest.raises(ValueError, match="sample_every must be an integer"):
        integrate(REPL, GAP_GAME, (0.5, 0.5), opponent=opponent, t_max=1.0,
                  sample_every=2.5, method=method)


def test_speed_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        GrowthRule(speed=-1.0)
    with pytest.raises(TypeError, match="speed"):
        GrowthRule(speed="fast")


def test_payoff_dependent_speed_scales_by_mean_payoff():
    lam = linear_link(0.0, 3.0)  # constant table: x3 the clock
    got = vector_field(GrowthRule(speed=lam), GAP_GAME, (0.5, 0.5))
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


# integrator -----------------------------------------------------------------


def test_log_ratio_grows_linearly():
    traj = integrate(REPL, GAP_GAME, (0.5, 0.5), t_max=5.0, dt=1e-3)
    ratio = traj.log_states[:, 0] - traj.log_states[:, 1]
    assert ratio[-1] - ratio[0] == pytest.approx(5.0, abs=1e-6)


def test_vertex_is_a_rest_point():
    traj = integrate(REPL, DISCUSSION, (0.0, 1.0, 0.0), t_max=1.0, dt=1e-3)
    np.testing.assert_array_equal(traj.states[-1], [0.0, 1.0, 0.0])


def test_dominated_pair_dies_in_the_discussion_game():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=200.0, dt=1e-3)
    x = traj.states[-1]
    assert x[0] * x[1] < 1e-8


def test_faces_are_exactly_invariant():
    traj = integrate(REPL, DISCUSSION, (0.5, 0.5, 0.0), t_max=3.0, dt=1e-3)
    assert np.all(traj.states[:, 2] == 0.0)


def test_simplex_drift_stays_tiny():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=5.0, dt=1e-3,
                     method="rk4")
    assert traj.meta["max_drift"] <= 1e-10
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-9


def test_meta_records_the_run():
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=1.0, dt=1e-3)
    assert traj.meta["dt"] == 1e-3
    assert traj.meta["rule"] == "replicator"
    assert traj.meta["game"] == DISCUSSION.digest()


def test_speed_two_is_a_time_change():
    slow = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=10.0, dt=1e-3)
    fast = integrate(GrowthRule(speed=2.0), DISCUSSION, (0.4, 0.4, 0.2),
                     t_max=5.0, dt=1e-3)
    np.testing.assert_allclose(fast.states[-1], slow.states[-1], atol=1e-6)


def test_scheduled_opponent_is_followed():
    game = Game([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    traj = integrate(REPL, game, (0.4, 0.4, 0.2), opponent=square_wave(10.0),
                     t_max=40.0, dt=1e-3)
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
                     t_max=5.0, dt=1e-3)
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
                     t_max=3.0, dt=1e-3)
    assert np.all(traj.opp_log_states[:, 1] == -np.inf)
    assert np.all(traj.opp_states[:, 1] == 0.0)
    assert np.all(np.isfinite(traj.opp_log_states[:, [0, 2]]))


def test_coupled_domain_failure_names_the_second_population():
    focal = Game([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # only the third opponent strategy's payoff leaves its link's domain
    opp = Game([[0.5, 0.5], [0.5, 0.5], [2.0, 2.0]])
    partner = Coupled(opp, GrowthRule(link=exp_link(1.0, (0.0, 1.0))),
                      np.full(3, 1.0 / 3.0))
    with pytest.raises(IntegrationError,
                       match=r"link domain near t=0 \(population 2 strategy 2\)") as err:
        integrate(REPL, focal, (0.5, 0.5), opponent=partner, t_max=1.0, dt=1e-3)
    assert (err.value.t, err.value.step) == (0.0, 0)


def test_self_play_needs_a_square_game():
    with pytest.raises(ValueError, match="square"):
        integrate(REPL, Game([[1.0, 0.0]]), (1.0,), t_max=1.0)


def test_link_domain_violation_stops_the_run():
    rule = GrowthRule(link=exp_link(1.0, (0.0, 1.0)))
    with pytest.raises(IntegrationError, match="domain") as err:
        integrate(rule, DISCUSSION, (0.4, 0.4, 0.2), t_max=1.0, dt=1e-3)
    assert err.value.t is not None


def test_nonpositive_speed_factor_stops_the_run():
    rule = GrowthRule(speed=linear_link(0.0, -1.0))
    with pytest.raises(IntegrationError, match="speed"):
        integrate(rule, DISCUSSION, (0.4, 0.4, 0.2), t_max=1.0, dt=1e-3)


def test_w_rate_matches_the_sampled_series():
    from egtlab.diagnostics import w_rate, w_series
    q = np.array([0.5, 0.5, 0.0])
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=2.0, dt=1e-3,
                     sample_every=1)
    w = w_series(traj, pure(2, 3), q)
    t = traj.times
    central = (w[2:] - w[:-2]) / (t[2:] - t[:-2])
    rates = np.array([w_rate(REPL, DISCUSSION, traj.states[k], pure(2, 3), q)
                      for k in range(1, len(t) - 1)])
    assert np.abs(central - rates).max() < 1e-7


def test_mean_payoff_helper():
    assert mean_payoff(GAP_GAME, (0.5, 0.5)) == pytest.approx(0.5)
    assert mean_payoff(DISCUSSION, pure(2, 3), pure(0, 3)) == 2.0


def test_trajectory_csv_appends_extra_columns(tmp_path):
    traj = integrate(REPL, GAP_GAME, (0.5, 0.5), t_max=1.0, dt=1e-3)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path, extras={"w": traj.times * 2.0})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,w"
    assert len(lines) == len(traj) + 1
    row = [float(v) for v in lines[-1].split(",")]
    assert row[3] == 2.0 * traj.times[-1]


def test_trajectory_csv_has_full_precision(tmp_path):
    traj = integrate(REPL, DISCUSSION, (0.4, 0.4, 0.2), t_max=1.0, dt=1e-3)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    row = [float(v) for v in lines[-1].split(",")]
    np.testing.assert_allclose(row[1:], traj.states[-1], rtol=1e-16)


def test_trajectory_csv_formats_every_value_like_a_float(tmp_path):
    # x2 stays on its zero face; the extras column holds -inf and nan
    traj = integrate(REPL, DISCUSSION, (0.6, 0.0, 0.4), t_max=1.0, dt=1e-3)
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
    # one RK4 step lifts the second log by about 5e3, past exp's range
    rule = GrowthRule(linear_link(1.0, 0.0, (-1e8, 1e8)))
    with pytest.raises(IntegrationError, match="non-finite near t=0") as err:
        integrate(rule, Game([[0.0, 0.0], [1e7, 1e7]]), (0.5, 0.5), t_max=1.0,
                  method="rk4")
    assert (err.value.t, err.value.step) == (0.0, 0)

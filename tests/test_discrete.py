"""Generation map, background schedules, and the exact bookkeeping identities."""

import math

import numpy as np
import pytest

from egtlab.discrete import (BackgroundFitness, affine_background, constant_background,
                             geometric_background, iterate)
from egtlab.dynamics import Coupled, GrowthRule, IntegrationError, Schedule
from egtlab.games import Game, pure
from egtlab.links import linear_link, sqrt_link, table_link
from oracles import discrete_w_increment, step, vector_field

TWO_ONE = Game([[2.0, 2.0], [1.0, 1.0]])  # payoffs (2, 1) against anything
REPL = GrowthRule()


def one_generation(rule, game, x, C):
    """Frequencies after one generation of iterate on the background C."""
    return iterate(rule, game, x, n_max=1, sample_every=1,
                   background=constant_background(C)).states[1]


def test_background_values_follow_the_schedule():
    n = np.array([0.0, 1.0, 5.0])
    assert constant_background(3.0).values(n).tolist() == [3.0, 3.0, 3.0]
    assert affine_background(1.0, 2.0).values(n).tolist() == [1.0, 3.0, 11.0]
    assert geometric_background(3.0, 2.0).values(n).tolist() == pytest.approx([3.0, 6.0, 96.0])


def test_geometric_background_saturates_to_infinity():
    assert geometric_background(1.0, 2.0).values(np.array([1023.0]))[0] == \
        pytest.approx(2.0 ** 1023, rel=1e-12)
    assert geometric_background(1.0, 2.0).values(np.array([2000.0]))[0] == math.inf


@pytest.mark.parametrize("base, ratio", [(1.0, 2.0), (3.0, 2.0), (0.5, 1.01), (2.0, 0.9)])
def test_background_value_is_values_at_one_generation(base, ratio):
    # the maps read C_n over blocks of generations, and the closed-form
    # oracles one generation at a time; both read the same C_n, to the bit
    geo = geometric_background(base, ratio)
    n = np.arange(1100, dtype=float)
    assert [geo.values(n[k:k + 1])[0] for k in range(len(n))] == geo.values(n).tolist()


def test_geometric_background_validation():
    with pytest.raises(ValueError):
        geometric_background(0.0, 2.0)
    with pytest.raises(ValueError):
        geometric_background(1.0, -1.0)
    with pytest.raises(ValueError):
        BackgroundFitness("weekly", 1.0)


@pytest.mark.parametrize("kind", ["constant", "affine", "geometric"])
@pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
def test_background_rate_must_be_finite(kind, rate):
    with pytest.raises(ValueError, match="background rate must be finite"):
        BackgroundFitness(kind, 1.0, rate)


def test_step_is_neutral_on_constant_payoffs():
    game = Game([[1.5, 1.5], [1.5, 1.5]])
    np.testing.assert_allclose(one_generation(REPL, game, (0.3, 0.7), 1.0), [0.3, 0.7])


def test_step_hand_value():
    np.testing.assert_allclose(one_generation(REPL, TWO_ONE, (0.5, 0.5), 0.0),
                               [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)


def test_step_fixes_vertices():
    np.testing.assert_array_equal(one_generation(REPL, TWO_ONE, (1.0, 0.0), 0.0),
                                  [1.0, 0.0])


def test_step_rejects_a_nonpositive_numerator():
    game = Game([[1.0, 1.0], [-2.0, -2.0]])
    with pytest.raises(IntegrationError, match="strategy 1"):
        one_generation(REPL, game, (0.5, 0.5), 1.0)


def test_iterate_is_constant_on_constant_payoffs():
    game = Game([[1.0, 1.0], [1.0, 1.0]])
    traj = iterate(REPL, game, (0.25, 0.75), n_max=50, sample_every=10,
                   background=constant_background(0.0))
    np.testing.assert_allclose(traj.states, np.tile([0.25, 0.75], (len(traj), 1)))


def test_log_ratio_gains_ln2_each_generation():
    traj = iterate(REPL, TWO_ONE, (0.5, 0.5), n_max=40, sample_every=1,
                   background=constant_background(0.0))
    ratio = traj.log_states[:, 0] - traj.log_states[:, 1]
    np.testing.assert_allclose(np.diff(ratio), math.log(2.0), rtol=1e-13)


def test_fast_geometric_background_freezes_selection():
    traj = iterate(REPL, TWO_ONE, (0.5, 0.5), n_max=10_000,
                   background=geometric_background(1.0, 2.0))
    ratio = traj.log_states[:, 0] - traj.log_states[:, 1]
    # the increments telescope: prod (2^n + 2)/(2^n + 1) = 3, so x2 -> 1/4
    assert ratio[-1] == pytest.approx(math.log(3.0), abs=1e-9)
    assert traj.states[-1, 1] == pytest.approx(0.25, abs=1e-4)


def test_w_increment_examples():
    x = np.array([0.5, 0.5])
    p, q = pure(0, 2), pure(1, 2)
    assert discrete_w_increment(REPL, TWO_ONE, x, x, 0.0, p, p) == 0.0
    assert discrete_w_increment(REPL, TWO_ONE, x, x, 0.0, p, q) == \
        pytest.approx(math.log(2.0), rel=1e-15)
    slow = discrete_w_increment(REPL, TWO_ONE, x, x, 1000.0, p, q)
    assert slow == pytest.approx(1e-3, abs=2e-6)


def test_w_increment_matches_a_measured_step():
    rng = np.random.default_rng(8)
    p, q = pure(0, 3), np.array([0.0, 0.5, 0.5])
    for _ in range(50):
        game = Game(rng.uniform(0.5, 3.0, size=(3, 3)))
        x = rng.dirichlet(np.ones(3))
        C = float(rng.uniform(0.0, 5.0))
        nxt = one_generation(REPL, game, x, C)
        measured = (math.log(nxt[0])
                    - 0.5 * (math.log(nxt[1]) + math.log(nxt[2]))) - \
                   (math.log(x[0]) - 0.5 * (math.log(x[1]) + math.log(x[2])))
        predicted = discrete_w_increment(REPL, game, x, x, C, p, q)
        assert measured == pytest.approx(predicted, abs=1e-12)


def test_w_increments_telescope_along_a_run():
    traj = iterate(REPL, TWO_ONE, (0.5, 0.5), n_max=100, sample_every=1,
                   background=affine_background(1.0, 1.0))
    p, q = pure(0, 2), pure(1, 2)
    w = traj.log_states[:, 0] - traj.log_states[:, 1]
    total = 0.0
    for n in range(100):
        x = traj.states[n]
        total += discrete_w_increment(REPL, TWO_ONE, x, x,
                                      1.0 + float(n), p, q)
    assert total == pytest.approx(w[-1] - w[0], abs=1e-10)


def test_update_matches_its_increment_form():
    # x' - x must equal x (g - gbar) / (C + gbar) componentwise
    rng = np.random.default_rng(9)
    for _ in range(200):
        game = Game(rng.uniform(-1.0, 3.0, size=(4, 4)))
        x = rng.dirichlet(np.ones(4))
        C = float(rng.uniform(4.0, 20.0))
        u = game.payoff @ x
        gbar = float(x @ u)
        lhs = one_generation(REPL, game, x, C) - x
        rhs = x * (u - gbar) / (C + gbar)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_large_background_approaches_the_flow():
    game = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])
    x = np.array([0.4, 0.4, 0.2])
    C = 1e5
    scaled = (one_generation(REPL, game, x, C) - x) * C
    field = vector_field(REPL, game, x)
    np.testing.assert_allclose(scaled, field, rtol=10.0 / C)


def test_iterate_rejects_speed_factors():
    with pytest.raises(ValueError, match="speed"):
        iterate(GrowthRule(speed=linear_link(0.0, 2.0)), TWO_ONE, (0.5, 0.5), n_max=10)


def test_iterate_rejects_an_empty_run():
    with pytest.raises(ValueError, match="n_max"):
        iterate(REPL, TWO_ONE, (0.5, 0.5), n_max=0)


def test_iterate_rejects_a_fractional_sample_every():
    with pytest.raises(ValueError, match="sample_every must be an integer"):
        iterate(REPL, TWO_ONE, (0.5, 0.5), n_max=10, sample_every=2.5)


@pytest.mark.parametrize("counts, message", [
    ({"n_max": 2.5}, "n_max must be an integer, got 2.5"),
    ({"n_max": True}, "n_max must be an integer, got True"),
    ({"n_max": "10"}, "n_max must be an integer, got '10'"),
    ({"n_max": 10, "sample_every": True}, "sample_every must be an integer, got True"),
    ({"n_max": 10, "sample_every": 0}, "sample_every must be at least 1, got 0"),
])
def test_iterate_takes_only_whole_counts(counts, message):
    with pytest.raises(ValueError, match=message):
        iterate(REPL, TWO_ONE, (0.5, 0.5), **counts)


def test_iterate_takes_numpy_counts():
    traj = iterate(REPL, TWO_ONE, (0.5, 0.5), n_max=np.int64(10), sample_every=np.int32(5))
    np.testing.assert_array_equal(traj.times, [0.0, 5.0, 10.0])
    assert traj.meta["steps"] == 10 and type(traj.meta["sample_every"]) is int


def test_scripted_opponent_is_sampled_at_integer_times():
    game = Game([[1.0, 0.0], [0.0, 1.0]])
    sched = Schedule(4.0, [0.0, 1.0, 2.0, 3.0],
                     [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    traj = iterate(REPL, game, (0.5, 0.5), opponent=sched, n_max=4,
                   background=constant_background(1.0), sample_every=1)
    x = np.array([0.5, 0.5])
    for n in range(4):
        y = np.array([1.0, 0.0]) if n % 4 in (0, 1) else np.array([0.0, 1.0])
        x = step(REPL, game, x, y, C=1.0)
        np.testing.assert_allclose(traj.states[n + 1], x, atol=1e-12)


def test_background_precondition_reports_the_generation():
    game = Game([[1.0, 1.0], [-2.0, -2.0]])
    with pytest.raises(RuntimeError, match="generation"):
        iterate(REPL, game, (0.5, 0.5), n_max=10,
                background=constant_background(1.0))


def test_every_numerator_is_checked_before_the_update():
    # strategy 0 alone would pass; the failure at strategy 1 must still win
    game = Game([[1.0, 1.0], [-2.0, -2.0]])
    with pytest.raises(IntegrationError,
                       match=r"generation 0 \(strategy 1\)") as err:
        iterate(REPL, game, (0.5, 0.5), n_max=10,
                background=constant_background(0.0))
    assert (err.value.t, err.value.step) == (0.0, 0)


FOCAL = Game([[2.0, 0.5, 1.0], [0.5, 2.0, 1.5]])
PARTNER = Game([[1.5, 0.5], [0.5, 1.5], [1.0, 1.2]])


# The payoff rows' hulls, [0.5, 2] and [0.5, 1.5], lie inside the links'
# domains in the first pair of rules; in the second they leave them, so the
# map scans the links' values, though the run's payoffs stay inside. The
# third pair are knot tables, which every path reads through np.interp.
HULL_RULES = {
    "hull-inside": (REPL, GrowthRule(link=sqrt_link((0.0, 3.0)))),
    "hull-outside": (GrowthRule(link=linear_link(1.0, 0.0, (0.6, 1.9))),
                     GrowthRule(link=sqrt_link((0.51, 3.0)))),
    "table": (GrowthRule(link=table_link([0.5, 0.9, 1.3, 2.0], [0.2, 1.1, 1.3, 2.4])),
              GrowthRule(link=table_link([0.4, 1.0, 1.6], [0.5, 0.7, 1.9]))),
}


@pytest.mark.parametrize("rules", HULL_RULES)
def test_coupled_map_matches_repeated_steps(rules):
    rule1, rule2 = HULL_RULES[rules]
    traj = iterate(rule1, FOCAL, (0.3, 0.7),
                   opponent=Coupled(PARTNER, rule2, (0.2, 0.3, 0.5)),
                   n_max=30, background=affine_background(1.0, 0.5),
                   sample_every=1)
    x, y = np.array([0.3, 0.7]), np.array([0.2, 0.3, 0.5])
    for n in range(30):
        C = 1.0 + 0.5 * n
        x, y = step(rule1, FOCAL, x, y, C=C), step(rule2, PARTNER, y, x, C=C)
        np.testing.assert_allclose(traj.states[n + 1], x, rtol=1e-12)
        np.testing.assert_allclose(traj.opp_states[n + 1], y, rtol=1e-12)


@pytest.mark.parametrize("rules", HULL_RULES)
def test_self_play_map_matches_repeated_steps(rules):
    # payoffs stay in [0.72, 1.78] over the run, inside the first link's
    # domain in both cases, while the rows' hull [0.5, 2] leaves (0.6, 1.9)
    rule = HULL_RULES[rules][0]
    game = Game([[2.0, 0.5, 1.0], [0.5, 2.0, 1.5], [1.0, 1.5, 0.5]])
    traj = iterate(rule, game, (0.3, 0.3, 0.4), n_max=30,
                   background=affine_background(1.0, 0.5), sample_every=1)
    x = np.array([0.3, 0.3, 0.4])
    for n in range(30):
        x = step(rule, game, x, C=1.0 + 0.5 * n)
        np.testing.assert_allclose(traj.states[n + 1], x, rtol=1e-12)


def test_self_play_map_reports_a_payoff_outside_the_link_domain():
    # u_1 = 3 - 4 x_0 falls below the sqrt link's domain once x_0 > 3/4
    rule = GrowthRule(link=sqrt_link((0.0, 3.0)))
    game = Game([[2.0, 2.0], [-1.0, 3.0]])
    with pytest.raises(IntegrationError,
                       match=r"^payoff left the link domain near t=8 \(strategy 1\)$") as err:
        iterate(rule, game, (0.4, 0.6), n_max=100, background=constant_background(1.0))
    assert (err.value.t, err.value.step) == (8.0, 8)
    x = np.array([0.4, 0.6])
    for _ in range(8):
        x = step(rule, game, x, C=1.0)
    with pytest.raises(ValueError, match="outside link domain"):
        step(rule, game, x, C=1.0)


def test_coupled_map_reports_the_population_that_left_the_link_domain():
    # population 2's third payoff, 3 x_0 - x_1, turns negative as x_0 falls
    rule2 = GrowthRule(link=sqrt_link((0.0, 3.0)))
    partner = Game([[1.5, 0.5], [0.5, 1.5], [3.0, -1.0]])
    with pytest.raises(IntegrationError, match=r"^payoff left the link domain near t=9 "
                       r"\(population 2 strategy 2\)$") as err:
        iterate(REPL, FOCAL, (0.6, 0.4), opponent=Coupled(partner, rule2, (0.2, 0.3, 0.5)),
                n_max=100, background=constant_background(1.0))
    assert (err.value.t, err.value.step) == (9.0, 9)


def test_coupled_map_keeps_a_face_of_the_opponent():
    traj = iterate(REPL, FOCAL, (0.3, 0.7),
                   opponent=Coupled(PARTNER, REPL, (0.6, 0.0, 0.4)),
                   n_max=200, background=constant_background(1.0),
                   sample_every=10)
    assert np.all(traj.opp_log_states[:, 1] == -np.inf)
    assert np.all(np.isfinite(traj.opp_log_states[:, [0, 2]]))


def test_coupled_numerator_failure_names_the_second_population():
    partner = Game([[1.0, 1.0], [-3.0, -3.0], [1.0, 1.0]])
    with pytest.raises(IntegrationError, match=r"generation 0 "
                       r"\(population 2 strategy 1\)"):
        iterate(REPL, FOCAL, (0.3, 0.7),
                opponent=Coupled(partner, REPL, np.full(3, 1.0 / 3.0)),
                n_max=10, background=constant_background(1.0))


@pytest.mark.parametrize("opponent", ["self-play", "scripted", "coupled"])
def test_the_replicator_map_is_the_same_at_any_payoff_scale(opponent):
    # its growth rate is the payoff itself, so payoffs and C scaled together
    # leave every generation as it was; payoffs past 1e6 left its domain
    payoff = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])

    def run(scale):
        opp = {"self-play": None,
               "scripted": Schedule(3.0, [0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]),
               "coupled": Coupled(Game(scale * payoff.T), REPL, [0.2, 0.3, 0.5])}[opponent]
        return iterate(REPL, Game(scale * payoff), [0.4, 0.4, 0.2], opponent=opp, n_max=40,
                       sample_every=1, background=constant_background(0.5 * scale))

    want, got = run(1.0), run(1e7)
    np.testing.assert_allclose(got.log_states, want.log_states, rtol=1e-12, atol=1e-12)
    if opponent == "coupled":
        np.testing.assert_allclose(got.opp_log_states, want.opp_log_states, rtol=1e-12,
                                   atol=1e-12)


def test_map_survives_a_ratio_that_rounds_to_minus_one():
    # with C = 0 and gbar about 0.5, (g_0 - gbar) / (C + gbar) would round to
    # exactly -1 although C + g_0 = 1e-17 > 0; the map adds log1p((g_i - r) /
    # (C + r)) with r = min g, whose argument is never negative
    rule = GrowthRule(linear_link(1.0, 0.0, (0.0, 2.0)))
    game = Game([[1e-17, 1e-17], [1.0, 1.0]])
    traj = iterate(rule, game, (0.5, 0.5), n_max=3,
                   background=constant_background(0.0), sample_every=1)
    x = np.array([0.5, 0.5])
    for n in range(3):
        x = step(rule, game, x, C=0.0)
        np.testing.assert_allclose(traj.states[n + 1], x, rtol=1e-12)


def test_coupled_map_survives_a_ratio_that_rounds_to_minus_one():
    # the same ratio in both populations: each one's first strategy earns
    # 1e-17 against a mean of about 0.5 at C = 0
    rule = GrowthRule(linear_link(1.0, 0.0, (0.0, 2.0)))
    game = Game([[1e-17, 1e-17], [1.0, 1.0]])
    traj = iterate(rule, game, (0.5, 0.5), opponent=Coupled(game, rule, (0.4, 0.6)),
                   n_max=3, background=constant_background(0.0), sample_every=1)
    x, y = np.array([0.5, 0.5]), np.array([0.4, 0.6])
    for n in range(3):
        x, y = step(rule, game, x, y, C=0.0), step(rule, game, y, x, C=0.0)
        np.testing.assert_allclose(traj.states[n + 1], x, rtol=1e-12)
        np.testing.assert_allclose(traj.opp_states[n + 1], y, rtol=1e-12)


def _sample_drift(traj):
    """The largest |sum x - 1| over the samples after the first, of both
    populations of a coupled run."""
    logs = [traj.log_states[1:]]
    if traj.opp_log_states is not None:
        logs.append(traj.opp_log_states[1:])
    return max(float(np.abs(np.exp(z).sum(axis=1) - 1.0).max()) for z in logs)


@pytest.mark.parametrize("opponent", ["self", "coupled", "scripted"])
def test_max_drift_is_measured_over_the_normalized_samples(opponent):
    game, x0 = Game([[2.0, 0.5, 1.0], [0.5, 2.0, 1.5], [1.0, 1.5, 0.5]]), (0.3, 0.3, 0.4)
    if opponent == "coupled":  # population 2 sets the drift: 3.3e-16 against 2.2e-16
        game, x0 = FOCAL, (0.6, 0.4)
    opp = {"self": None, "coupled": Coupled(PARTNER, REPL, (0.2, 0.3, 0.5)),
           "scripted": Schedule(3.0, [0.0, 1.0, 2.0], np.eye(3))}[opponent]
    traj = iterate(REPL, game, x0, opponent=opp, n_max=500, sample_every=7,
                   background=affine_background(1.0, 0.5))
    assert traj.meta["opponent"] == opponent
    assert traj.meta["max_drift"] == _sample_drift(traj)
    assert traj.meta["max_drift"] <= 4 * np.finfo(float).eps


def test_iterate_rejects_a_coupled_opponents_speed():
    # no coupled opponent with a speed reaches iterate: Coupled refuses it
    with pytest.raises(ValueError, match="^a coupled population's rule takes no speed factor$"):
        Coupled(PARTNER, GrowthRule(speed=linear_link(0.0, 2.0)), (0.2, 0.3, 0.5))


def test_a_table_map_stops_where_an_increment_overflows():
    # the identity table's values are np.float64: (g_1 - r) / (C + r) past
    # the largest double is an inf, as a float's, and no NumPy overflow
    # warning, an error under this suite's filter
    rule = GrowthRule(table_link([0.0, 2.0], [0.0, 2.0]))
    with pytest.raises(IntegrationError, match="^state became non-finite near t=0$") as err:
        iterate(rule, Game([[5e-309, 5e-309], [1.0, 1.0]]), (0.5, 0.5), n_max=10)
    assert (err.value.t, err.value.step) == (0.0, 0)


@pytest.mark.parametrize("background", [constant_background(0.0), affine_background(0.0, 0.0)],
                         ids=["fold", "block"])
def test_scripted_map_stops_where_an_increment_overflows(background):
    # C + r = 5e-309 at C = 0, so (g_1 - r) / (C + r) exceeds the largest
    # double: generation 0 overflows, on the scripted map as on self-play
    rule = GrowthRule(linear_link(1.0, 0.0, (0.0, 2.0)))
    game = Game([[5e-309, 5e-309], [1.0, 1.0]])
    for opponent in (Schedule(1.0, [0.0], [[0.5, 0.5]]), None):
        with pytest.raises(IntegrationError, match="^state became non-finite near t=0$") as err:
            iterate(rule, game, (0.5, 0.5), opponent=opponent, n_max=10, background=background)
        assert (err.value.t, err.value.step) == (0.0, 0)
    # row 0 earns 5e-309 only against column 0, which the script plays at
    # generation 2 first
    game = Game([[5e-309, 1.0], [1.0, 1.0]])
    script = Schedule(3.0, [0.0, 1.0, 2.0], [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(IntegrationError, match="^state became non-finite near t=2$") as err:
        iterate(rule, game, (0.5, 0.5), opponent=script, n_max=10, background=background)
    assert (err.value.t, err.value.step) == (2.0, 2)
    assert iterate(rule, game, (0.5, 0.5), opponent=script, n_max=2,
                   background=background).meta["steps"] == 2

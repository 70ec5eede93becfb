"""Closed-form scripted runs against the steppers they replace.

A flat speed table, speed=table_link([lo, hi], [c, c]), is payoff-dependent
in form only: it keeps a scripted flow on the stepper (method="rk4") while
giving it the constant speed c, so the two paths can be compared on the
same run.
Scripted generation maps are compared with repeated discrete.step.
"""

import numpy as np
import pytest

from egtlab.discrete import (affine_background, constant_background,
                             geometric_background, iterate, step)
from egtlab.dynamics import (GrowthRule, IntegrationError, Schedule,
                             _schedule_fn, eval_schedule, integrate)
from egtlab.games import Game
from egtlab.links import DomainError, exp_link, linear_link, sqrt_link, table_link

SURVIVAL = Game([[1.0, 0.0], [0.0, 1.0], [0.52, 0.52]])
WAVE = Schedule(6.0, [0.0, 2.0, 3.0, 5.0],
                [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
G4 = Game([[1.0, 0.3, 1.4], [0.4, 1.2, 0.6], [0.9, 0.8, 0.7], [1.1, 0.2, 0.5]])
S3 = Schedule(2.5, [0.0, 0.7, 1.9],
              [[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.1, 0.8, 0.1]])
# At dt = 0.1, plateaus of 1, 2, 3 and 1 steps between one-step crossfades:
# no plateau step, or only one, lies clear of the breakpoints.
STAIRS = Schedule(0.9, [0.0, 0.1, 0.2, 0.4, 0.5, 0.8],
                  [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
# An integer period: generation n meets the script where generation n mod 5 does.
SQ5 = Schedule(5.0, [0.0, 1.0, 3.0],
               [[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])


def stepped(rule: GrowthRule) -> GrowthRule:
    """The same rule with its constant speed as a flat table over mean payoffs."""
    c = rule.speed if rule.speed is not None else 1.0
    return GrowthRule(rule.link, speed=table_link([-10.0, 10.0], [c, c]))


def assert_same_run(closed, ref, atol=1e-12):
    np.testing.assert_array_equal(closed.times, ref.times)
    np.testing.assert_array_equal(closed.opp_states, ref.opp_states)
    np.testing.assert_array_equal(np.isinf(closed.log_states), np.isinf(ref.log_states))
    np.testing.assert_allclose(closed.log_states, ref.log_states, rtol=0.0, atol=atol)
    assert closed.meta["steps"] == ref.meta["steps"]
    assert closed.meta.keys() == ref.meta.keys()
    assert closed.meta["max_drift"] <= 1e-14


FLOWS = {
    "sqrt link": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.3, 0.3, 0.4), WAVE,
                  dict(t_max=7.5)),
    "start on a face": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.6, 0.0, 0.4),
                        WAVE, dict(t_max=7.5, sample_every=7)),
    "constant speed": (GrowthRule(exp_link(1.0, (0.0, 2.0)), speed=2.5), G4,
                       (0.1, 0.2, 0.3, 0.4), S3, dict(t_max=4.3, dt=3e-3, sample_every=13)),
    "short plateaus": (GrowthRule(sqrt_link((0.0, 1.0)), speed=1.5), SURVIVAL,
                       (0.3, 0.3, 0.4), STAIRS, dict(t_max=2.8, dt=0.1, sample_every=1)),
    # blocks of 4096 steps end at t = 8.192, on a crossfade, and at
    # t = 16.384, inside a plateau; samples fall inside plateaus too
    "three periods": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.3, 0.3, 0.4), WAVE,
                      dict(t_max=19.0, dt=2e-3, sample_every=333)),
    "face start over three periods": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL,
                                      (0.6, 0.0, 0.4), WAVE,
                                      dict(t_max=19.0, dt=1e-2, sample_every=33)),
}


@pytest.mark.parametrize("case", sorted(FLOWS))
def test_closed_form_flow_matches_the_stepper(case):
    rule, game, x0, script, kw = FLOWS[case]
    closed = integrate(rule, game, x0, opponent=script, **kw)
    ref = integrate(stepped(rule), game, x0, opponent=script, method="rk4", **kw)
    assert_same_run(closed, ref)


def test_closed_form_flow_counts_the_stage_rows_it_evaluates():
    rule = GrowthRule(sqrt_link((0.0, 1.0)))
    wave = integrate(rule, SURVIVAL, (0.3, 0.3, 0.4), opponent=WAVE, t_max=7.5)
    # plateaus [0, 2], [3, 5] and [6, 7.5] evaluate their first, second and
    # last steps, and [3, 5] the first step of the block from t = 4.096; the
    # crossfades [2, 3] and [5, 6] evaluate all 1000 steps each
    assert wave.meta["steps"] == 7500
    assert wave.meta["rhs_evals"] == 3 * (3 + 1000 + 4 + 1000 + 3)
    rule, game, x0, script, kw = FLOWS["constant speed"]
    s3 = integrate(rule, game, x0, opponent=script, **kw)
    assert s3.meta["rhs_evals"] == 3 * s3.meta["steps"]


def test_closed_form_flow_fails_where_the_stepper_fails():
    # With h = 0.1, strategy 1's payoff leaves (0, 1.5) at the midpoint of the
    # step from t = 2.7 and strategy 0's at its end: the midpoint comes first.
    game = Game([[0.0, 1.9], [0.0, 2.1], [0.5, 0.5]])
    rule = GrowthRule(sqrt_link((0.0, 1.5)))
    errors = []
    for r in (rule, stepped(rule)):
        with pytest.raises(IntegrationError, match=r"near t=2\.7 \(strategy 1\)") as err:
            integrate(r, game, (0.3, 0.3, 0.4), opponent=WAVE, t_max=7.5, dt=0.1,
                      method="rk4")
        errors.append((str(err.value), err.value.t, err.value.step))
    assert errors[0] == errors[1]
    assert errors[0][2] == 27


def test_schedule_evaluates_bit_for_bit_like_the_stepper():
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.uniform(0.0, 40.0, 500), np.arange(0.0, 20.0, 0.25),
                        [S3.period * 7, 1e9 + 0.3]])
    got = eval_schedule(S3, t)
    at = _schedule_fn(S3)
    np.testing.assert_array_equal(got, [at(v) for v in t.tolist()])
    np.testing.assert_array_equal(eval_schedule(S3, 1.3), at(1.3))


def repeated_steps(rule, game, x0, script, background, n):
    """Frequencies after each of n generations of discrete.step."""
    x, out = np.asarray(x0, dtype=float), []
    for k in range(n):
        x = step(rule, game, x, eval_schedule(script, k), C=background.value(k))
        out.append(x)
    return np.array(out)


@pytest.mark.parametrize("background", [constant_background(0.5),
                                        affine_background(1.0, 0.05),
                                        geometric_background(1.0, 1.02)],
                         ids=["constant", "affine", "geometric"])
def test_closed_form_map_matches_repeated_steps(background):
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)))
    x0 = (0.1, 0.0, 0.5, 0.4)
    traj = iterate(rule, G4, x0, opponent=S3, n_max=120, background=background,
                   sample_every=1)
    want = repeated_steps(rule, G4, x0, S3, background, 120)
    np.testing.assert_allclose(traj.states[1:], want, rtol=1e-11, atol=0.0)
    assert np.all(traj.log_states[:, 1] == -np.inf)
    np.testing.assert_array_equal(traj.opp_states, eval_schedule(S3, traj.times))


@pytest.mark.parametrize("background", [constant_background(0.5),
                                        affine_background(1.0, 0.05),
                                        geometric_background(1.0, 1.02)],
                         ids=["constant", "affine", "geometric"])
def test_period_table_map_matches_repeated_steps(background):
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)))
    x0 = (0.1, 0.0, 0.5, 0.4)
    for n in (3, 120):
        traj = iterate(rule, G4, x0, opponent=SQ5, n_max=n, background=background,
                       sample_every=1)
        want = repeated_steps(rule, G4, x0, SQ5, background, n)
        np.testing.assert_allclose(traj.states[1:], want, rtol=1e-11, atol=0.0)
        assert np.all(traj.log_states[:, 1] == -np.inf)
        np.testing.assert_array_equal(traj.opp_states, eval_schedule(SQ5, traj.times))


def test_period_table_map_fails_where_the_steps_fail():
    # the falling background meets strategy 3's numerator in the 12th period
    rule = GrowthRule(linear_link(1.0, -1.0))
    background = affine_background(1.0, -0.01)
    x0 = (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(ValueError, match=r"\(strategy 3\)"):
        repeated_steps(rule, G4, x0, SQ5, background, 55 + 1)
    repeated_steps(rule, G4, x0, SQ5, background, 55)
    with pytest.raises(IntegrationError, match=r"^background plus growth rate not positive "
                       r"at generation 55 \(strategy 3\)$") as err:
        iterate(rule, G4, x0, opponent=SQ5, n_max=3000, background=background)
    assert (err.value.t, err.value.step) == (55.0, 55)


def test_closed_form_map_fails_where_the_steps_fail():
    # the affine background falls until strategy 3's numerator turns negative
    rule = GrowthRule(linear_link(1.0, -1.0))
    background = affine_background(1.0, -0.01)
    x0 = (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(ValueError, match=r"\(strategy 3\)"):
        repeated_steps(rule, G4, x0, S3, background, 37 + 1)
    repeated_steps(rule, G4, x0, S3, background, 37)
    with pytest.raises(IntegrationError,
                       match=r"generation 37 \(strategy 3\)") as err:
        iterate(rule, G4, x0, opponent=S3, n_max=3000, background=background)
    assert (err.value.t, err.value.step) == (37.0, 37)


def test_closed_form_map_domain_failure_wins_over_the_numerator():
    # at generation 0 strategy 0 leaves the domain and strategy 1's numerator
    # is negative; the domain check comes first, as on the stepper
    game = Game([[5.0, 5.0], [0.5, 0.5]])
    script = Schedule(2.0, [0.0], [[1.0, 0.0]])
    rule = GrowthRule(linear_link(1.0, 0.0, (0.0, 2.0)))
    with pytest.raises(DomainError):
        step(rule, game, (0.5, 0.5), (1.0, 0.0), C=-1.0)
    with pytest.raises(IntegrationError, match=r"link domain near t=0 \(strategy 0\)"):
        iterate(rule, game, (0.5, 0.5), opponent=script, n_max=5,
                background=constant_background(-1.0))

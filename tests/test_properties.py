"""Invariants checked by randomized search rather than hand-picked cases."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egtlab.diagnostics import elimination_metrics
from egtlab.discrete import constant_background, iterate
from egtlab.dominance import find_dominator, strict_margin
from egtlab.dynamics import (GrowthRule, Schedule, Trajectory, eval_schedule,
                             integrate)
from egtlab.games import Game, pure
from egtlab.links import classify_link, linear_link

from oracles import discrete_w_increment, grid_margin, mixture_grid

REPL = GrowthRule()
GRID_3 = mixture_grid(3, 6)

finite = dict(allow_nan=False, allow_infinity=False)


def positives(n, lo=1e-3, hi=1.0):
    return st.lists(st.floats(lo, hi, **finite), min_size=n, max_size=n)


def normalized(raw):
    arr = np.asarray(raw, dtype=float)
    return arr / arr.sum()


@settings(derandomize=True, deadline=None, max_examples=15)
@given(payoff=st.lists(st.floats(-2.0, 2.0, **finite), min_size=9, max_size=9),
       raw_x=positives(3), dead=st.integers(0, 2))
def test_flow_preserves_simplex_and_faces(payoff, raw_x, dead):
    game = Game(np.reshape(payoff, (3, 3)))
    x0 = normalized(raw_x)
    x0[dead] = 0.0
    x0 = x0 / x0.sum()
    traj = integrate(REPL, game, x0, t_max=0.5, sample_every=50)
    assert np.all(traj.states[:, dead] == 0.0)
    np.testing.assert_allclose(traj.states.sum(axis=1), 1.0, atol=1e-9)
    assert traj.meta["max_drift"] <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=100)
@given(payoff=st.lists(st.floats(-1.0, 3.0, **finite), min_size=16, max_size=16),
       raw_x=positives(4), c=st.floats(4.0, 20.0, **finite))
def test_generation_map_matches_increment_form(payoff, raw_x, c):
    game = Game(np.reshape(payoff, (4, 4)))
    x = normalized(raw_x)
    u = game.payoff @ x
    gbar = float(x @ u)
    nxt = iterate(REPL, game, x, n_max=1, sample_every=1,
                  background=constant_background(c)).states[1]
    lhs = nxt - x
    np.testing.assert_allclose(lhs, x * (u - gbar) / (c + gbar), atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(payoff=st.lists(st.floats(0.5, 3.0, **finite), min_size=4, max_size=4),
       raw_x=positives(2, lo=0.05), c=st.floats(0.0, 5.0, **finite))
def test_divergence_increments_telescope(payoff, raw_x, c):
    game = Game(np.reshape(payoff, (2, 2)))
    x0 = normalized(raw_x)
    traj = iterate(REPL, game, x0, n_max=20, sample_every=1,
                   background=constant_background(c))
    p, q = pure(0, 2), pure(1, 2)
    w = traj.log_states[:, 0] - traj.log_states[:, 1]
    total = sum(discrete_w_increment(REPL, game, traj.states[n], traj.states[n],
                                     c, p, q) for n in range(20))
    assert total == pytest.approx(float(w[-1] - w[0]), abs=1e-10)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(payoff=st.lists(st.integers(-4, 4), min_size=9, max_size=9),
       target=st.integers(0, 2))
def test_lp_agrees_with_the_mixture_grid(payoff, target):
    game = Game(np.reshape(payoff, (3, 3)).astype(float))
    q = pure(target, 3).weights
    res = find_dominator(game, q, mode="mixed")
    gm = grid_margin(game.payoff, q, GRID_3)
    if gm > 1e-6:
        assert res.dominated
        assert res.margin >= gm - 1e-9
    if res.dominated and res.margin > 1e-6:
        realized = strict_margin(game, res.dominator.weights, q)
        assert realized == pytest.approx(res.margin, abs=1e-9)


# Hypothesis seeds its draws with numeric literals from the local sources, so
# what it draws moves whenever they change. Each of these games was drawn once
# and hit rounding dust in phase 1 of the simplex; they are checked always.
@settings(derandomize=True, deadline=None, max_examples=60)
@given(payoff=st.lists(st.floats(-3.0, 3.0, **finite), min_size=9, max_size=9),
       lam=st.floats(0.1, 10.0, **finite), target=st.integers(0, 2))
@example(payoff=[5.6e-10, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0], lam=2.0, target=0)
@example(payoff=[0.0, 0.0, 5.960464477539063e-08, 0.0, 0.0, 0.0, 1.375, 0.0, 0.0],
         lam=0.1, target=0)
def test_margin_scales_with_the_payoffs(payoff, lam, target):
    base = np.reshape(payoff, (3, 3))
    q = pure(target, 3).weights
    res = find_dominator(Game(base), q, mode="mixed")
    scaled = find_dominator(Game(lam * base), q, mode="mixed")
    assert scaled.dominated == res.dominated
    assert scaled.margin == pytest.approx(lam * res.margin, rel=1e-7, abs=1e-9)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(slope=st.floats(0.01, 100.0, **finite),
       intercept=st.floats(-50.0, 50.0, **finite))
def test_affine_links_always_classify_linear(slope, intercept):
    cls = classify_link(linear_link(slope, intercept, (0.0, 10.0)))
    assert cls.linear and cls.increasing
    assert cls.label == "aggregate-monotonic"


@settings(derandomize=True, deadline=None, max_examples=60)
@given(period=st.floats(1.0, 10.0, **finite),
       cut=st.floats(0.1, 0.9, **finite),
       raw_rows=st.lists(positives(2, lo=0.05), min_size=2, max_size=2),
       t=st.floats(0.0, 10.0, **finite), laps=st.integers(1, 5))
def test_schedules_are_periodic(period, cut, raw_rows, t, laps):
    values = [normalized(r) for r in raw_rows]
    sched = Schedule(period, [0.0, cut * period], values)
    base = eval_schedule(sched, t)
    again = eval_schedule(sched, t + laps * period)
    np.testing.assert_allclose(again, base, atol=1e-9)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(raw_x=positives(4), raw_q=positives(4),
       zeros=st.sets(st.integers(0, 3), max_size=2))
def test_weighted_product_is_bounded_by_min_support(raw_x, raw_q, zeros):
    x = normalized(raw_x)
    q = np.asarray(raw_q, dtype=float)
    q[list(zeros)] = 0.0
    q = q / q.sum()
    traj = Trajectory(np.array([0.0]), np.log(x)[None, :])
    mins, prods = elimination_metrics(traj, q)
    q_min = float(q[q > 0.0].min())
    assert prods[0] <= mins[0] ** q_min + 1e-12
    assert prods[0] >= mins[0] - 1e-12  # geometric mean sits above the min

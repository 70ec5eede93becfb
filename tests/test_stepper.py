"""The stepper, Dormand-Prince 8(5,3) (DOP853) under error control: its
tableau, exact solutions, a SciPy oracle, the fixed-step RK4 oracle of
tests/oracles.py, batches of runs, run stats and failures.

Errors are measured in units of RTOL * (1 + |z|), the per-coordinate scale
the step control aims at; the stated multiples leave room for the error
that builds up over many steps.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from egtlab import dynamics
from egtlab.dynamics import (_A, _B8, _C, _E, _P, RTOL, Coupled, GrowthRule,
                             IntegrationError, Schedule, _dense_basis, eval_schedule,
                             integrate)
from egtlab.games import Game
from egtlab.links import (discrete_effective_link, exp_link, linear_link, log_link,
                          sqrt_link, table_link)
from oracles import rk4_flow, script_at, vector_field

GAP_GAME = Game([[1.0, 1.0], [0.0, 0.0]])  # payoffs (1, 0) whatever y does
RPS4 = Game([[1.0, 0.0, 2.5, 0.5], [2.5, 1.0, 0.0, 0.5],
             [0.0, 2.5, 1.0, 0.5], [0.8, 0.8, 0.8, 1.0]])
EXP = GrowthRule(exp_link(1.0, (0.0, 2.5)))
A = Game([[1.0, 0.3, 1.4, 0.2], [0.4, 1.2, 0.6, 1.5], [0.9, 0.8, 0.7, 1.0]])
B = Game([[0.5, 1.2, 0.9], [1.3, 0.4, 0.8], [0.7, 1.1, 0.6], [1.0, 0.9, 1.2]])
G4 = Game([[1.0, 0.3, 1.4], [0.4, 1.2, 0.6], [0.9, 0.8, 0.7], [1.1, 0.2, 0.5]])
S3 = Schedule(2.5, [0.0, 0.7, 1.9], [[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.1, 0.8, 0.1]])
SPEED = GrowthRule(exp_link(1.0, (0.0, 2.0)), speed=table_link([0.0, 2.0], [0.5, 1.5]))


def normalized(z):
    top = z.max(axis=-1, keepdims=True)
    return z - (top + np.log(np.exp(z - top).sum(axis=-1, keepdims=True)))


def scaled_error(got, want) -> float:
    """Largest |got - want| in units of RTOL * (1 + |want|)."""
    return float((np.abs(got - want) / (RTOL * (1.0 + np.abs(want)))).max())


# tableau -----------------------------------------------------------------------

# order of the scheme, then of its embedded error estimates
ORDER, EMBEDDED = 8, (5, 3)


def exact(values):
    return [Fraction(float(v)) for v in values]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def tall_trees(weights, rows, order, theta=1):
    """Residuals of sum_s w_s (A^(k-1) 1)_s = theta^k / k! for k up to order,
    with A the strictly lower triangular matrix of the stage rows."""
    v, out = [Fraction(1)] * len(rows), []
    for k in range(1, order + 1):
        out.append(dot(weights, v) - Fraction(theta) ** k / math.factorial(k))
        v = [dot(row, v) for row in rows]
    return out


def test_tableau_meets_its_order_conditions():
    # The literals are the exact coefficients rounded to doubles, so every
    # condition is checked in exact arithmetic on the doubles: to 1e-15, and
    # a row sum to within half an ulp of each literal in it (the entries of
    # DOP853's rows 8 to 11 reach 43, where 1e-15 is below one ulp).
    c, b = exact(_C), exact(_B8)
    rows = [exact(_A[i]) if i else [] for i in range(len(c))]
    for i in range(1, len(c)):
        slack = (sum(map(math.ulp, _A[i])) + math.ulp(_C[i])) / 2
        assert abs(sum(rows[i]) - c[i]) <= slack, f"row {i}"
    for k in range(1, ORDER + 1):
        assert abs(dot(b, (ci ** (k - 1) for ci in c)) - Fraction(1, k)) <= 1e-15, k
    assert max(map(abs, tall_trees(b, rows[:len(b)], ORDER))) <= 1e-15
    assert len(_E) == len(EMBEDDED)
    for e, low in zip(_E, EMBEDDED):
        # b minus a scheme of order low: zero sum, and zero moments up to it
        for k in range(1, low + 1):
            assert abs(dot(exact(e), (ci ** (k - 1) for ci in c))) <= 1e-15, (low, k)
    # the first-same-as-last stage is the step's end
    assert (_C[len(b)], list(_A[len(b)])) == (1.0, list(_B8))


def test_dense_basis_is_the_products_of_theta_and_one_minus_theta():
    theta = np.linspace(0.0, 1.0, 1025)
    for k in range(7):
        # theta (1 - theta) theta ..., k + 1 factors multiplied left to right
        want = theta
        for j in range(1, k + 1):
            want = want * (1.0 - theta if j % 2 else theta)
        np.testing.assert_array_equal(_dense_basis(theta)[:, k].view(np.int64),
                                      want.view(np.int64))
    assert _dense_basis(theta.reshape(5, 205)).shape == (5, 205, 7)
    assert _dense_basis(0.5).shape == (7,)


def test_dense_output_spans_the_step_to_order_seven():
    ends = _dense_basis(np.array([0.0, 1.0])) @ _P
    np.testing.assert_array_equal(ends[0], 0.0)
    np.testing.assert_array_equal(ends[1], np.append(_B8, np.zeros(len(_C) - len(_B8))))
    c = exact(_C)
    rows = [exact(_A[i]) if i else [] for i in range(len(c))]
    for theta in (Fraction(3, 8), Fraction(11, 16)):  # the basis is exact at these
        basis = [theta]
        for k in range(1, _P.shape[0]):
            basis.append(basis[-1] * (1 - theta if k % 2 else theta))
        assert basis == exact(_dense_basis(float(theta)))
        w = [dot(basis, exact(col)) for col in _P.T]
        for k in range(1, 8):
            assert abs(dot(w, (ci ** (k - 1) for ci in c)) - theta ** k / k) <= 1e-15
        assert max(map(abs, tall_trees(w, rows, 7, theta))) <= 1e-15


# exact solutions --------------------------------------------------------------


@pytest.mark.parametrize("x0, sample_every", [((0.5, 0.5), 100), ((0.9, 0.1), 7)])
def test_log_ratio_grows_at_exactly_rate_one(x0, sample_every):
    # z1 - z2 = r0 + t, so z1 = -log1p(exp(-r)) and z2 = -log1p(exp(r))
    traj = integrate(GrowthRule(), GAP_GAME, x0, t_max=40.0, sample_every=sample_every)
    r = np.log(x0[0] / x0[1]) + traj.times
    want = np.stack([-np.log1p(np.exp(-r)), -np.log1p(np.exp(r))], axis=1)
    assert scaled_error(traj.log_states, want) <= 1.0
    assert traj.meta["steps"] < 200


# SciPy oracle ------------------------------------------------------------------


def dop853(rhs, z0, times, knots=()):
    """Normalized logs at the sample times from SciPy's DOP853 at rtol 1e-12,
    restarted at every knot (a kink of the opponent script)."""
    from scipy.integrate import solve_ivp
    cuts = [0.0] + [k for k in knots if 0.0 < k < times[-1]] + [float(times[-1])]
    z, out = np.asarray(z0, dtype=float), {0.0: np.asarray(z0, dtype=float)}
    for a, b in zip(cuts[:-1], cuts[1:]):
        inside = times[(times > a) & (times <= b)]
        sol = solve_ivp(rhs, (a, b), z, method="DOP853", rtol=1e-12, atol=1e-12,
                        t_eval=inside, dense_output=True)
        assert sol.success, sol.message
        out.update(zip(sol.t.tolist(), sol.y.T))
        z = sol.sol(b)
    return normalized(np.array([out[t] for t in times.tolist()]))


def softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def test_self_play_matches_dop853():
    pytest.importorskip("scipy")
    x0 = np.array([0.1, 0.2, 0.3, 0.4])
    traj = integrate(EXP, RPS4, x0, t_max=30.0)

    def rhs(t, z):
        x = softmax(z)
        return vector_field(EXP, RPS4, x) / x

    assert scaled_error(traj.log_states, dop853(rhs, np.log(x0), traj.times)) <= 10.0


def test_coupled_run_matches_dop853():
    pytest.importorskip("scipy")
    rule = GrowthRule(log_link((0.2, 1.5)))
    x0, y0 = np.array([0.2, 0.3, 0.5]), np.array([0.4, 0.3, 0.1, 0.2])
    traj = integrate(rule, A, x0, opponent=Coupled(B, GrowthRule(), y0), t_max=20.0)

    def rhs(t, z):
        x, y = softmax(z[:3]), softmax(z[3:])
        return np.concatenate([vector_field(rule, A, x, y) / x,
                               vector_field(GrowthRule(), B, y, x) / y])

    want = dop853(rhs, np.log(np.concatenate([x0, y0])), traj.times)
    assert scaled_error(traj.log_states, normalized(want[:, :3])) <= 10.0
    assert scaled_error(traj.opp_log_states, normalized(want[:, 3:])) <= 10.0


def test_scripted_run_with_a_speed_factor_matches_dop853():
    pytest.importorskip("scipy")
    x0 = np.array([0.1, 0.2, 0.3, 0.4])
    traj = integrate(SPEED, G4, x0, opponent=S3, t_max=20.0)

    def rhs(t, z):
        x = softmax(z)
        return vector_field(SPEED, G4, x, eval_schedule(S3, t)) / x

    knots = [k * S3.period + c for k in range(9) for c in S3.times]
    want = dop853(rhs, np.log(x0), traj.times, knots)
    assert scaled_error(traj.log_states, want) <= 10.0


@pytest.fixture
def speed_checks(monkeypatch):
    """One entry per array of speed factors checked for faults."""
    calls, check = [], dynamics._speed_faults

    def counting(lam):
        calls.append(len(lam))
        return check(lam)

    monkeypatch.setattr(dynamics, "_speed_faults", counting)
    return calls


def test_a_speed_positive_on_the_payoffs_is_checked_once_per_run(speed_checks):
    # SPEED runs from 0.5 to 1.5 on [0, 2], around G4's payoffs 0.2 .. 1.5;
    # the one check reads it at the ends of the hull, widened by its pad
    traj = integrate(SPEED, G4, (0.1, 0.2, 0.3, 0.4), opponent=S3, t_max=5.0)
    assert traj.meta["rhs_evals"] > 100 and speed_checks == [2]


@pytest.mark.parametrize("zero", [0.2, 0.2 - 1e-9], ids=["at the hull", "inside the pad"])
def test_a_speed_that_vanishes_at_the_payoff_hull_is_scanned(zero, speed_checks):
    # mean payoffs stay above G4's smallest payoff, 0.2, so the run completes;
    # its speed reaches zero there, or within its domain pad of 2e-6 below,
    # and every right-hand side scans its one run's speed factor
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)), speed=linear_link(1.0, -zero))
    traj = integrate(rule, G4, (0.1, 0.2, 0.3, 0.4), opponent=S3, t_max=5.0)
    assert speed_checks == [2] + [1] * traj.meta["rhs_evals"]
    assert traj.meta["rhs_evals"] > 100


# batches -----------------------------------------------------------------------


def test_a_batch_gives_each_member_its_single_run():
    starts = np.random.default_rng(3).dirichlet(np.ones(4), size=5)
    batch = integrate(EXP, RPS4, starts, t_max=30.0)
    assert batch.log_states.shape == (len(batch), 5, 4)
    assert batch.meta["members"] == 5
    for k, x0 in enumerate(starts):
        single = integrate(EXP, RPS4, x0, t_max=30.0)
        np.testing.assert_array_equal(batch.times, single.times)
        assert scaled_error(batch.member(k).log_states, single.log_states) <= 10.0


@pytest.mark.parametrize("k", [-1, 2, True, 1.0, np.int64(-1)],
                         ids=["negative", "past-the-end", "bool", "float", "numpy-negative"])
def test_member_takes_only_a_run_index_of_the_batch(k):
    # NumPy would read -1 as the last run and True as a new axis, and raise a
    # bare IndexError for 2
    batch = integrate(EXP, RPS4, [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]], t_max=1.0)
    with pytest.raises(ValueError) as err:
        batch.member(k)
    assert str(err.value) == f"k must be a run index in [0, 2) of this batch of 2 runs, got {k!r}"
    assert batch.member(np.int64(1)).log_states.shape == (len(batch), 4)


def test_a_batch_on_a_face_keeps_it_exactly():
    starts = np.array([[0.2, 0.0, 0.5, 0.3], [0.6, 0.0, 0.1, 0.3]])
    batch = integrate(EXP, RPS4, starts, t_max=5.0)
    assert np.all(batch.log_states[:, :, 1] == -np.inf)
    assert np.all(np.isfinite(batch.log_states[:, :, [0, 2, 3]]))


def test_a_batch_needs_self_play_and_one_support():
    with pytest.raises(ValueError, match="share one support"):
        integrate(EXP, RPS4, [[0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.25, 0.25]], t_max=1.0)
    with pytest.raises(ValueError, match="self-play"):
        integrate(GrowthRule(), G4, [[0.25] * 4, [0.25] * 4], opponent=S3, t_max=1.0)
    with pytest.raises(ValueError, match="initial state 1"):
        integrate(EXP, RPS4, [[0.25] * 4, [0.5] * 4], t_max=1.0)
    with pytest.raises(ValueError, match="member"):
        integrate(EXP, RPS4, [0.25] * 4, t_max=1.0).member(0)


# samples, stats and failures ---------------------------------------------------


def test_samples_land_on_the_fixed_step_grid():
    # the RK4 oracle steps on that grid and samples its step ends
    kw = dict(t_max=7.3, sample_every=39)
    dop = integrate(SPEED, G4, (0.1, 0.2, 0.3, 0.4), opponent=S3, **kw)
    times, logs, _ = rk4_flow(SPEED, G4, (0.1, 0.2, 0.3, 0.4), S3, **kw)
    np.testing.assert_array_equal(dop.times, times)
    script = script_at(S3)
    np.testing.assert_allclose(dop.opp_states, [script(t) for t in times], rtol=0.0,
                               atol=1e-15)
    assert scaled_error(dop.log_states, logs) <= 100.0


def test_a_scripted_run_on_an_effective_link_takes_the_stepper():
    # ln(C + f) has no antiderivative, so the run cannot take the exact path
    rule = GrowthRule(discrete_effective_link(sqrt_link((0.0, 9.0)), 1.0))
    kw = dict(t_max=7.3, sample_every=39)
    dop = integrate(rule, G4, (0.1, 0.2, 0.3, 0.4), opponent=S3, **kw)
    _, logs, _ = rk4_flow(rule, G4, (0.1, 0.2, 0.3, 0.4), S3, **kw)
    assert dop.meta["method"] == "dop853"
    assert scaled_error(dop.log_states, logs) <= 100.0


def test_meta_records_the_stepper():
    x0 = (0.1, 0.2, 0.3, 0.4)
    m = integrate(EXP, RPS4, x0, t_max=10.0).meta
    assert (m["method"], m["rtol"], m["members"]) == ("dop853", RTOL, 1)
    assert 0 < m["steps"] < 10_000 and m["rejected"] >= 0
    assert 0.0 < m["h_min"] <= m["h_max"] <= 10.0
    assert m["max_drift"] <= 1e-8
    # One evaluation at the start, one for the first step size, eleven per
    # attempt and one (the first-same-as-last stage) per accepted step; the
    # dense output adds three on each step with a sample inside it. That is
    # no step when the only samples are the ends, and every step when the
    # samples lie closer together than the smallest step. Samples do not
    # steer the steps.
    ends = integrate(EXP, RPS4, x0, t_max=10.0, sample_every=10_000)
    dense = integrate(EXP, RPS4, x0, t_max=10.0, sample_every=25).meta
    steps, rejected = m["steps"], m["rejected"]
    assert len(ends) == 2 and dense["h_min"] > 25 * 1e-3
    for meta in (ends.meta, dense):
        assert (meta["steps"], meta["rejected"]) == (steps, rejected)
    assert ends.meta["rhs_evals"] == 2 + 12 * steps + 11 * rejected
    assert dense["rhs_evals"] == 2 + 15 * steps + 11 * rejected
    assert ends.meta["rhs_evals"] < m["rhs_evals"] <= dense["rhs_evals"]


def test_a_failure_names_the_member_that_failed():
    game = Game([[2.0, 0.0], [0.5, 0.5]])
    starts = [[0.3, 0.7], [0.4, 0.6], [0.6, 0.4]]
    # mean payoffs 0.53, 0.62 and 0.92: only the last speed is negative; the
    # table covers the payoff hull [0, 2], as a speed must
    speed = GrowthRule(speed=table_link([0.0, 0.7, 1.0, 2.0], [1.0, 1.0, -1.0, -1.0]))
    with pytest.raises(IntegrationError, match="speed factor") as err:
        integrate(speed, game, starts, t_max=1.0)
    assert err.value.member == 2

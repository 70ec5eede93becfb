"""Closed-form scripted runs against independent references.

Scripted flows with no speed factor are integrated exactly; they are
compared with SciPy's quad and the fixed-step RK4 of tests/oracles.py, and
with themselves at other samples. Two of the quad cases are the time change
that replaces a constant speed lam: the unit-speed run against the script
stretched by lam, read at lam t, is the run at speed lam.
Scripted generation maps are compared with repeated generations of the
reference map oracles.step, the one-period fold with the block loop, and the
block loop with each generation's increments computed on their own.
"""

import math

import numpy as np
import pytest

import oracles
from egtlab import discrete
from egtlab.discrete import (BackgroundFitness, affine_background, constant_background,
                             geometric_background, iterate)
from egtlab.dynamics import (GrowthRule, IntegrationError, Schedule, _piece_at,
                             _script_piece, _setup, eval_schedule, integrate)
from egtlab.games import Game
from egtlab.links import (DomainError, array_link, exp_link, linear_link, log_link,
                          power_link, sqrt_link, table_link)
from egtlab.scenarios import run_background_threshold, run_survival_nonconcave

SURVIVAL = Game([[1.0, 0.0], [0.0, 1.0], [0.52, 0.52]])
# payoffs 0 and 1 at the kinks, where sqrt's slope is infinite
WAVE = Schedule(6.0, [0.0, 2.0, 3.0, 5.0],
                [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
G4 = Game([[1.0, 0.3, 1.4], [0.4, 1.2, 0.6], [0.9, 0.8, 0.7], [1.1, 0.2, 0.5]])
S3 = Schedule(2.5, [0.0, 0.7, 1.9],
              [[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.1, 0.8, 0.1]])
# plateaus of 0.1, 0.2, 0.3 and 0.1 time units between crossfades of 0.1
STAIRS = Schedule(0.9, [0.0, 0.1, 0.2, 0.4, 0.5, 0.8],
                  [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
# An integer period: generation n meets the script where generation n mod 5 does.
SQ5 = Schedule(5.0, [0.0, 1.0, 3.0],
               [[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
# Each crossfade of SWING moves a payoff by 1e-9 or 3e-9 near 1, where the
# divided difference of F cancels.
NEAR = Game([[1.0, 1.0 + 1e-9], [1.0 + 3e-9, 1.0], [1.2, 0.9]])
SWING = Schedule(2.0, [0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
# u from 0.3 to 1.4 crosses all four inner knots
TABLE = table_link([0.0, 0.5, 0.7, 0.9, 1.2, 2.0], [0.0, 1.0, 0.2, 1.4, 0.3, 2.0])
X4 = (0.1, 0.2, 0.3, 0.4)
EPS = np.finfo(float).eps


def stretched(script: Schedule, lam: float) -> Schedule:
    """script with its times and period stretched by lam."""
    return Schedule(lam * script.period, lam * script.times, script.values)


# case -> (lam, script): the case runs at unit speed against stretched(script,
# lam), and quad integrates the run at constant speed lam against script,
# read at t / lam
TIME_CHANGES = {"constant speed": (2.5, S3), "short plateaus": (1.5, STAIRS)}

FLOWS = {
    "sqrt link": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.3, 0.3, 0.4), WAVE,
                  dict(t_max=7.5)),
    "start on a face": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.6, 0.0, 0.4),
                        WAVE, dict(t_max=7.5, sample_every=7)),
    "constant speed": (GrowthRule(exp_link(1.0, (0.0, 2.0))), G4, X4, stretched(S3, 2.5),
                       dict(t_max=2.5 * 4.3, sample_every=13)),
    "short plateaus": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.3, 0.3, 0.4),
                       stretched(STAIRS, 1.5),
                       dict(t_max=1.5 * 2.8, sample_every=150)),
    "three periods": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.3, 0.3, 0.4), WAVE,
                      dict(t_max=19.0, sample_every=666)),
    "face start over three periods": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL,
                                      (0.6, 0.0, 0.4), WAVE,
                                      dict(t_max=19.0, sample_every=330)),
    "linear": (GrowthRule(linear_link(2.0, -1.0)), G4, X4, S3, dict(t_max=6.3)),
    "power 2": (GrowthRule(power_link(2.0, (0.0, 2.0))), G4, X4, S3, dict(t_max=6.3)),
    "power 0.5": (GrowthRule(power_link(0.5, (0.0, 2.0))), G4, X4, S3, dict(t_max=6.3)),
    "power -1": (GrowthRule(power_link(-1.0, (0.2, 2.0))), G4, X4, S3, dict(t_max=6.3)),
    "exp": (GrowthRule(exp_link(-1.5, (0.0, 2.0))), G4, X4, S3, dict(t_max=6.3)),
    "log": (GrowthRule(log_link((0.2, 2.0))), G4, X4, S3, dict(t_max=6.3)),
    "table across knots": (GrowthRule(TABLE), G4, X4, S3, dict(t_max=6.3)),
    # payoffs 2.5e-12 below the domain, inside its pad: the link holds f(0) there
    "payoff in the domain's pad": (GrowthRule(exp_link(1.0, (0.0, 2.0))),
                                   Game([[-2.5e-12, 1.0], [1.0, -2.5e-12], [0.5, 0.5]]),
                                   (0.3, 0.3, 0.4), WAVE, dict(t_max=13.0)),
    "near-flat exp": (GrowthRule(exp_link(1.0, (0.5, 1.5))), NEAR, (0.3, 0.3, 0.4), SWING,
                      dict(t_max=5.3, sample_every=300)),
    "near-flat log": (GrowthRule(log_link((0.5, 1.5))), NEAR, (0.3, 0.3, 0.4), SWING,
                      dict(t_max=5.3, sample_every=300)),
}


@pytest.mark.parametrize("case", sorted(FLOWS))
def test_exact_flow_matches_quad(case):
    pytest.importorskip("scipy")
    rule, game, x0, script, kw = FLOWS[case]
    traj = integrate(rule, game, x0, opponent=script, **kw)
    lam, original = TIME_CHANGES.get(case, (1.0, script))
    want = oracles.scripted_flow_logs(rule.effective_link, lam, game.payoff, original, x0,
                                      traj.times / lam)
    assert traj.meta["method"] == "exact"
    np.testing.assert_array_equal(np.isinf(traj.log_states), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(traj.log_states[finite] - want[finite])
                  <= 1e-13 * (1.0 + np.abs(want[finite])))
    np.testing.assert_array_equal(traj.opp_states, eval_schedule(script, traj.times))


def test_near_flat_pieces_take_the_gauss_legendre_rule():
    # with the divided difference alone, these runs are off by up to 3e-7
    # (exp) and 5e-9 (log)
    for case in ("near-flat exp", "near-flat log"):
        rule, game, x0, script, kw = FLOWS[case]
        traj = integrate(rule, game, x0, opponent=script, **kw)
        # SWING's two pieces are both crossfades, and so is the partial piece
        # of every sample off a breakpoint: all of those rows fall back
        inside = int(np.sum(traj.times % 1.0 != 0.0))
        assert traj.meta["rhs_evals"] == 4 * (2 + len(traj)) + 8 * (2 + inside)


def test_exact_flow_work_is_independent_of_the_horizon():
    rule, game, x0, script, _ = FLOWS["sqrt link"]
    metas = [integrate(rule, game, x0, opponent=script, t_max=t_max, sample_every=every).meta
             for t_max, every in ((7.5, 100), (750.0, 10_000))]
    # four rows per script piece (4) and per sample (76): f and F at both ends
    for meta in metas:
        assert meta["rhs_evals"] == 4 * (4 + 76)
        assert (meta["method"], meta["steps"], meta["rejected"]) == ("exact", 0, 0)
        assert (meta["h_min"], meta["h_max"], meta["rtol"]) == (None, None, None)
    # a speed that is a link, even a constant one, takes the stepper
    stepped = integrate(GrowthRule(rule.link, speed=linear_link(0.0, 1.0)), game, x0,
                        opponent=script, t_max=7.5).meta
    assert stepped["method"] == "dop853" and metas[0].keys() == stepped.keys()


def test_exact_flow_samples_are_normalized_to_rounding():
    # the logs reach about 40 before the samples are normalized; taking the
    # largest off first keeps x_T x_B, which the symmetric link pins at 1/4,
    # from rounding above it
    report, traj = run_survival_nonconcave(periods=3)
    assert traj.meta["max_drift"] <= 4 * np.finfo(float).eps
    assert report["run"]["product_late_max"] <= 0.25 and report["ok"]


def test_exact_flow_folds_whole_periods_at_a_long_horizon():
    # 1e5 periods of WAVE, sampled every 2,000 periods. At t = k P the flow
    # has added k times one period's increment, z(P) - z(0) up to a common
    # shift. Each entry of z(P) is off by a few eps (1 + |z|), which k
    # periods multiply by k; the fold's k S and the normalization round at
    # eps |z(kP)|.
    rule, x0 = GrowthRule(sqrt_link((0.0, 1.0))), (0.3, 0.3, 0.4)
    one = integrate(rule, SURVIVAL, x0, opponent=WAVE, t_max=6.0).log_states
    traj = integrate(rule, SURVIVAL, x0, opponent=WAVE, t_max=6e5, sample_every=12_000_000)
    np.testing.assert_array_equal(traj.times, 12_000.0 * np.arange(51))
    k = traj.times[:, None] / WAVE.period
    z0, zP = one[0], one[-1]
    want = z0 + k * (zP - z0)
    want -= want.max(axis=1, keepdims=True)
    want -= np.log(np.exp(want).sum(axis=1, keepdims=True))
    tol = 4 * EPS * (k * (1.0 + np.abs(z0).max() + np.abs(zP).max()) + 1.0 + np.abs(want))
    assert np.all(np.abs(traj.log_states - want) <= tol)
    assert traj.meta["method"] == "exact"
    # strategies 1 and 2 end far below the smallest float, resolved in logs
    assert traj.log_states[-1, :2].max() < -9e4


def test_an_antiderivative_that_overflows_takes_the_gauss_legendre_rule():
    # the linear link's u^2 / 2 overflows past |u| = 1.9e154, and a piece's
    # F(u_b) - F(u_a) with it; the rule reads f alone. Over 1e-150 time
    # units at payoff 1e200 the two logs part by 1e50
    traj = integrate(GrowthRule(), Game([[1e200, 0.0], [0.0, 1e200]]), [0.5, 0.5],
                     opponent=SWING, t_max=1e-150)
    np.testing.assert_array_equal(traj.states[-1], [1.0, 0.0])
    assert traj.log_states[-1, 1] == pytest.approx(-1e50, rel=1e-15)
    assert traj.meta["max_drift"] == 0.0


def test_exact_flow_stops_at_the_first_sample_that_overflows():
    # each 100-unit period parts the logs by 2.5e306 more: the fold's
    # normalized second log is -1.775e308 at t = 7100 and past the largest
    # double at t = 7200
    game = Game([[1e305, 0.0], [0.0, 0.5e305]])
    script = Schedule(100.0, [0.0, 50.0], [[1.0, 0.0], [0.0, 1.0]])
    traj = integrate(GrowthRule(), game, [0.5, 0.5], opponent=script, t_max=7100.0,
                     sample_every=100_000)
    assert traj.log_states[-1, 1] == pytest.approx(-1.775e308, rel=1e-15)
    with pytest.raises(IntegrationError) as err:
        integrate(GrowthRule(), game, [0.5, 0.5], opponent=script, t_max=1e4,
                  sample_every=100_000)
    assert str(err.value) == "state became non-finite near t=7200"
    assert (err.value.t, err.value.step, err.value.member) == (7200.0, 0, 0)


def test_rk4_converges_to_the_exact_flow_at_fourth_order():
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)))
    exact = integrate(rule, G4, X4, opponent=S3, t_max=5.0).log_states[-1]
    errors = [np.abs(oracles.rk4_flow(rule, G4, X4, S3, t_max=5.0, dt=dt)[1][-1]
                     - exact).max()
              for dt in (0.1, 0.05, 0.025)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(12.0 <= r <= 20.0 for r in ratios), (errors, ratios)


def test_exact_flow_at_a_sample_does_not_depend_on_the_other_samples():
    rule, game, x0, script, _ = FLOWS["three periods"]
    coarse = integrate(rule, game, x0, opponent=script, t_max=19.0, sample_every=70)
    fine = integrate(rule, game, x0, opponent=script, t_max=19.0, sample_every=7)
    i, j = np.nonzero(coarse.times[:, None] == fine.times[None, :])
    assert len(i) == len(coarse) > 200
    np.testing.assert_array_equal(coarse.log_states[i], fine.log_states[j])


def test_closed_form_flow_fails_where_the_stepper_fails():
    # On WAVE's crossfade from t = 2, strategy 1's payoff 2.1 (t - 2) leaves
    # (0, 1.5) first, strategy 0's 1.9 (t - 2) after it. The exact path fails
    # at the crossing itself. A constant speed table forces the stepper,
    # which fails at the start of the step whose stage left the domain, on
    # the lowest strategy out of it there: its step from t = 2 reaches past
    # both crossings.
    game = Game([[0.0, 1.9], [0.0, 2.1], [0.5, 0.5]])
    rule = GrowthRule(sqrt_link((0.0, 1.5)))
    x0 = (0.3, 0.3, 0.4)
    forced = GrowthRule(rule.link, speed=table_link([-1.0, 3.0], [1.0, 1.0]))
    with pytest.raises(IntegrationError, match=r"near t=2 \(strategy 0\)$") as stepped:
        integrate(forced, game, x0, opponent=WAVE, t_max=7.5)
    assert stepped.value.step == 5
    crossing = 2.0 + (1.5 + 1e-12 * 2.5) / 2.1
    with pytest.raises(IntegrationError, match=r"near t=2\.71429 \(strategy 1\)$") as exact:
        integrate(rule, game, x0, opponent=WAVE, t_max=7.5)
    assert exact.value.t == pytest.approx(crossing, rel=0.0, abs=1e-14)
    assert stepped.value.t <= crossing
    assert (exact.value.step, exact.value.member) == (0, 0)
    # a horizon that ends before the crossing runs to its end
    for t_max in (crossing - 1e-9, 2.7):
        traj = integrate(rule, game, x0, opponent=WAVE, t_max=t_max)
        assert traj.times[-1] == t_max
    with pytest.raises(IntegrationError):
        integrate(rule, game, x0, opponent=WAVE, t_max=crossing + 1e-9)


def test_the_stepper_finds_the_script_piece_bit_for_bit_like_the_exact_path():
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.uniform(0.0, 40.0, 500), np.arange(0.0, 20.0, 0.25),
                        [S3.period * 7, 1e9 + 0.3]])
    _, k, w = _script_piece(S3, t)
    at = _piece_at(S3)
    pieces = [at(v) for v in t.tolist()]
    np.testing.assert_array_equal([p[0] for p in pieces], k)
    np.testing.assert_array_equal([p[1] for p in pieces], w)
    # at the start of each piece the stepper reads a row of the table of
    # payoffs at the breakpoints that _exact_flow integrates
    _, pays, _ = _setup(GrowthRule(), G4, X4, S3)
    table = S3.values @ G4.payoff.T
    for v in (*S3.times, S3.period * 7):
        j, frac = at(v)
        assert frac == 0.0
        np.testing.assert_array_equal(pays(v, None)[0], table[j:j + 1])


def test_a_time_that_rounds_onto_the_periods_end_starts_the_next_period():
    # 4.81 is 13 periods of 0.37 to rounding, but its remainder rounds to
    # 0.37000000000000001, a whole period. Folded onto the next period it
    # starts piece 0; left unfolded it would read cycles 12 at the end of the
    # last piece (w = 1.0). Either way the script takes the same row; the
    # fold keeps whole periods whole, bit for bit.
    script = Schedule(0.37, [0.0, 0.1], [[1.0, 0.0], [0.0, 1.0]])
    t = 4.81
    assert t - script.period * math.floor(t / script.period) >= script.period
    cycles, k, w = _script_piece(script, np.array([t]))
    assert (cycles.tolist(), k.tolist(), w.tolist()) == ([13.0], [0], [0.0])
    assert _piece_at(script)(t) == (0, 0.0)


def repeated_steps(rule, game, x0, script, background, n):
    """Frequencies after each of n generations of oracles.step."""
    x, out = np.asarray(x0, dtype=float), []
    for k in range(n):
        C = background.values(np.array([float(k)]))[0]
        x = oracles.step(rule, game, x, eval_schedule(script, k), C=C)
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
def test_integer_period_map_matches_repeated_steps(background):
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)))
    x0 = (0.1, 0.0, 0.5, 0.4)
    for n in (3, 120):
        traj = iterate(rule, G4, x0, opponent=SQ5, n_max=n, background=background,
                       sample_every=1)
        want = repeated_steps(rule, G4, x0, SQ5, background, n)
        np.testing.assert_allclose(traj.states[1:], want, rtol=1e-11, atol=0.0)
        assert np.all(traj.log_states[:, 1] == -np.inf)
        np.testing.assert_array_equal(traj.opp_states, eval_schedule(SQ5, traj.times))


def test_integer_period_map_fails_where_the_steps_fail():
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


@pytest.fixture
def rows_evaluated(monkeypatch):
    """Sizes of the time arrays the scripted map hands to _script_piece."""
    calls = []

    def counting(schedule, t):
        calls.append(np.size(t))
        return _script_piece(schedule, t)

    monkeypatch.setattr(discrete, "_script_piece", counting)
    return calls


def test_folded_map_matches_the_block_loop(rows_evaluated):
    # affine_background(C, 0.0) has the C_n of constant_background(C) but
    # takes the block loop; the two sum the same increments in another order,
    # and the loop's running sum may drift by n eps (1 + |z|) after n
    # generations (4.0e-13 (1 + |z|) measured here)
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)))
    x0 = (0.1, 0.0, 0.5, 0.4)
    runs = [iterate(rule, G4, x0, opponent=SQ5, n_max=100_000, background=bg,
                    sample_every=997) for bg in (constant_background(0.5),
                                                 affine_background(0.5, 0.0))]
    # each run evaluates one period of the script
    assert rows_evaluated == [5, 5]
    folded, blocked = (t.log_states for t in runs)
    assert np.all(np.isinf(folded) == np.isinf(blocked))
    finite = np.isfinite(blocked)
    gap = np.abs(folded[finite] - blocked[finite]) / (1.0 + np.abs(blocked[finite]))
    assert gap.max() <= 100_000 * EPS
    assert folded[finite].min() < -100.0  # strategy 3 dies, far from rounding
    np.testing.assert_array_equal(runs[0].times, runs[1].times)


def test_folded_map_evaluates_one_period_whatever_the_horizon(rows_evaluated, monkeypatch):
    # background-threshold runs 10,000 and 7,664,600 generations on a script
    # of 34; each run evaluates the script and the background on one period
    values, backgrounds = BackgroundFitness.values, []

    def counting(self, n):
        backgrounds.append(np.size(n))
        return values(self, n)

    monkeypatch.setattr(BackgroundFitness, "values", counting)
    report, traj = run_background_threshold()
    assert all(report["checks"].values())
    assert traj.times[-1] == report["threshold"]["n_max_big"] > 7_000_000
    assert rows_evaluated == backgrounds == [34, 34]


def test_folded_map_fails_inside_the_first_period():
    # off strategy 3, the smallest growth rate u - 1 falls to -0.46 at
    # generation 3 of SQ5 (strategy 1), and C = 0.4 does not cover it
    rule = GrowthRule(linear_link(1.0, -1.0))
    background = constant_background(0.4)
    x0 = (0.3, 0.3, 0.4, 0.0)
    with pytest.raises(ValueError, match=r"\(strategy 1\)"):
        repeated_steps(rule, G4, x0, SQ5, background, 3 + 1)
    with pytest.raises(IntegrationError, match=r"^background plus growth rate not positive "
                       r"at generation 3 \(strategy 1\)$") as err:
        iterate(rule, G4, x0, opponent=SQ5, n_max=3000, background=background)
    assert (err.value.t, err.value.step) == (3.0, 3)
    traj = iterate(rule, G4, x0, opponent=SQ5, n_max=3, background=background,
                   sample_every=1)
    np.testing.assert_allclose(traj.states[1:], repeated_steps(rule, G4, x0, SQ5, background, 3),
                               rtol=1e-12, atol=0.0)


def test_folded_map_with_a_period_longer_than_the_run(rows_evaluated):
    script = Schedule(40.0, [0.0, 12.0, 25.0], SQ5.values)
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)))
    x0 = (0.1, 0.2, 0.3, 0.4)
    for n in (1, 7, 39):
        traj = iterate(rule, G4, x0, opponent=script, n_max=n,
                       background=constant_background(0.5), sample_every=3)
        want = repeated_steps(rule, G4, x0, script, constant_background(0.5), n)
        np.testing.assert_allclose(traj.states[1:], want[traj.times[1:].astype(int) - 1],
                                   rtol=1e-12, atol=0.0)
    assert rows_evaluated == [1, 7, 39]


def test_fold_and_block_loop_meet_at_the_block_size(rows_evaluated):
    # a period of _BLOCK generations is folded, and the block loop of the
    # affine run reads its link values; one more is summed in blocks that
    # evaluate every generation
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)))
    x0 = (0.1, 0.2, 0.3, 0.4)
    n = 3 * discrete._BLOCK
    for period in (discrete._BLOCK, discrete._BLOCK + 1):
        script = Schedule(float(period), [0.0, 1000.0, 2500.0], SQ5.values)
        rows_evaluated.clear()
        const, affine = (iterate(rule, G4, x0, opponent=script, n_max=n, background=bg,
                                 sample_every=101).log_states
                         for bg in (constant_background(0.5), affine_background(0.5, 0.0)))
        folded = period == discrete._BLOCK
        blocks = [discrete._BLOCK] * 3
        assert rows_evaluated == ([period] * 2 if folded else blocks * 2)
        if folded:
            assert np.all(np.abs(const - affine) <= n * EPS * (1.0 + np.abs(affine)))
        else:
            np.testing.assert_array_equal(const, affine)


def generation_by_generation(rule, game, x0, script, background, n, every):
    """Logs at the samples of the block loop, from each generation's mean-free
    increments evaluated on its own, in the block loop's arithmetic: payoffs
    ua[j] + w (ub[j] - ua[j]) at the fraction w of script piece j, from the
    payoffs ua against each breakpoint's row and ub against the next's."""
    f = array_link(rule.effective_link)
    ua = script.values @ game.payoff.T
    du = np.roll(ua, -1, axis=0) - ua
    z, out = np.log(np.asarray(x0, dtype=float)), []
    for k in range(n):
        _, j, w = _script_piece(script, np.array([float(k)]))
        g = f(ua[j[0]] + w[0] * du[j[0]])
        d = np.log1p((g - g.min()) / (background.values(np.array([float(k)]))[0] + g.min()))
        z = z + (d - d.mean())
        if (k + 1) % every == 0 or k + 1 == n:
            out.append(z - (z.max() + np.log(np.exp(z - z.max()).sum())))
    return np.vstack([np.log(x0), out])


@pytest.mark.parametrize("background", [affine_background(1.0, 0.05),
                                        geometric_background(1.0, 1.0001)],
                         ids=["affine", "geometric"])
@pytest.mark.parametrize("script", [SQ5, S3], ids=["integer period", "fractional period"])
def test_block_loop_sums_each_generations_increments(script, background):
    # with an integer period the loop reads one period's link values across
    # the block boundary at _BLOCK, which is not a multiple of 5
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)))
    n, every = discrete._BLOCK + 300, 97
    traj = iterate(rule, G4, X4, opponent=script, n_max=n, background=background,
                   sample_every=every)
    want = generation_by_generation(rule, G4, X4, script, background, n, every)
    np.testing.assert_array_equal(traj.log_states, want)


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
        oracles.step(rule, game, (0.5, 0.5), (1.0, 0.0), C=-1.0)
    with pytest.raises(IntegrationError, match=r"link domain near t=0 \(strategy 0\)"):
        iterate(rule, game, (0.5, 0.5), opponent=script, n_max=5,
                background=constant_background(-1.0))

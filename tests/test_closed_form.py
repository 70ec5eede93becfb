"""Closed-form scripted runs against independent references.

Scripted flows with a state-free speed are integrated exactly; they are
compared with SciPy's quad (tests/oracles.py), with the RK4 stepper that
method="rk4" runs on them, and with themselves on other dt grids.
Scripted generation maps are compared with repeated discrete.step, and
the one-period fold with the block loop.
"""

import numpy as np
import pytest

import oracles
from egtlab import discrete
from egtlab.discrete import (BackgroundFitness, affine_background, constant_background,
                             geometric_background, iterate, step)
from egtlab.dynamics import (GrowthRule, IntegrationError, Schedule,
                             _schedule_fn, eval_schedule, integrate)
from egtlab.games import Game
from egtlab.links import (DomainError, exp_link, linear_link, log_link, power_link,
                          sqrt_link, table_link)
from egtlab.scenarios import (run_background_threshold, run_survival_nonconcave,
                              run_survival_nonconvex)

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

FLOWS = {
    "sqrt link": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.3, 0.3, 0.4), WAVE,
                  dict(t_max=7.5)),
    "start on a face": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.6, 0.0, 0.4),
                        WAVE, dict(t_max=7.5, sample_every=7)),
    "constant speed": (GrowthRule(exp_link(1.0, (0.0, 2.0)), speed=2.5), G4, X4, S3,
                       dict(t_max=4.3, dt=3e-3, sample_every=13)),
    "short plateaus": (GrowthRule(sqrt_link((0.0, 1.0)), speed=1.5), SURVIVAL,
                       (0.3, 0.3, 0.4), STAIRS, dict(t_max=2.8, dt=0.1, sample_every=1)),
    "three periods": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL, (0.3, 0.3, 0.4), WAVE,
                      dict(t_max=19.0, dt=2e-3, sample_every=333)),
    "face start over three periods": (GrowthRule(sqrt_link((0.0, 1.0))), SURVIVAL,
                                      (0.6, 0.0, 0.4), WAVE,
                                      dict(t_max=19.0, dt=1e-2, sample_every=33)),
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
    want = oracles.scripted_flow_logs(rule.effective_link, rule.speed or 1.0, game.payoff,
                                      script, x0, traj.times)
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


def test_exact_flow_work_is_independent_of_dt_and_the_horizon():
    rule, game, x0, script, _ = FLOWS["sqrt link"]
    metas = [integrate(rule, game, x0, opponent=script, t_max=t_max, dt=dt,
                       sample_every=every).meta
             for t_max, dt, every in ((7.5, 1e-3, 100), (7.5, 1e-2, 10), (750.0, 1e-3, 10_000))]
    # four rows per script piece (4) and per sample (76): f and F at both ends
    for meta in metas:
        assert meta["rhs_evals"] == 4 * (4 + 76)
        assert (meta["method"], meta["steps"], meta["rejected"]) == ("exact", 0, 0)
        assert (meta["h_min"], meta["h_max"], meta["rtol"]) == (None, None, None)
    stepped = integrate(rule, game, x0, opponent=script, t_max=7.5, dt=0.1, method="rk4").meta
    assert metas[0].keys() == stepped.keys()


def test_exact_flow_samples_are_normalized_to_rounding():
    # the logs reach about 40 before the samples are normalized; taking the
    # largest off first keeps x_T x_B, which the symmetric link pins at 1/4,
    # from rounding above it
    report, traj = run_survival_nonconcave(periods=3)
    assert traj.meta["max_drift"] <= 4 * np.finfo(float).eps
    assert report["run"]["product_late_max"] <= 0.25 and report["ok"]


def test_rk4_converges_to_the_exact_flow_at_fourth_order():
    rule = GrowthRule(exp_link(1.0, (0.0, 2.0)))
    exact = integrate(rule, G4, X4, opponent=S3, t_max=5.0).log_states[-1]
    errors = [np.abs(integrate(rule, G4, X4, opponent=S3, t_max=5.0, dt=dt,
                               method="rk4").log_states[-1] - exact).max()
              for dt in (0.1, 0.05, 0.025)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(12.0 <= r <= 20.0 for r in ratios), (errors, ratios)


def test_exact_flow_does_not_depend_on_dt():
    rule, game, x0, script, _ = FLOWS["three periods"]
    coarse = integrate(rule, game, x0, opponent=script, t_max=19.0, dt=1e-2, sample_every=7)
    fine = integrate(rule, game, x0, opponent=script, t_max=19.0, dt=1e-3, sample_every=70)
    i, j = np.nonzero(np.abs(coarse.times[:, None] - fine.times[None, :]) <= 1e-12)
    assert len(i) == len(coarse) > 200
    np.testing.assert_allclose(coarse.log_states[i], fine.log_states[j], rtol=0.0, atol=1e-13)
    (default, dense), (sparse, grid) = (run_survival_nonconvex(),
                                        run_survival_nonconvex(dt=1e-2))
    assert default["run"]["method"] == sparse["run"]["method"] == "exact"
    assert abs(sparse["run"]["x_M_final"] - default["run"]["x_M_final"]) <= 1e-12
    np.testing.assert_allclose(grid.log_states[-1], dense.log_states[-1], rtol=1e-13)


def test_closed_form_flow_fails_where_the_stepper_fails():
    # On WAVE's crossfade from t = 2, strategy 1's payoff 2.1 (t - 2) leaves
    # (0, 1.5) first. The stepper (h = 0.1) fails at the midpoint of the step
    # from t = 2.7; the exact path at the crossing itself.
    game = Game([[0.0, 1.9], [0.0, 2.1], [0.5, 0.5]])
    rule = GrowthRule(sqrt_link((0.0, 1.5)))
    x0 = (0.3, 0.3, 0.4)
    with pytest.raises(IntegrationError, match=r"near t=2\.7 \(strategy 1\)") as stepped:
        integrate(rule, game, x0, opponent=WAVE, t_max=7.5, dt=0.1, method="rk4")
    assert stepped.value.step == 27
    crossing = 2.0 + (1.5 + 1e-12 * 2.5) / 2.1
    with pytest.raises(IntegrationError, match=r"near t=2\.71429 \(strategy 1\)$") as exact:
        integrate(rule, game, x0, opponent=WAVE, t_max=7.5, dt=0.1)
    assert exact.value.t == pytest.approx(crossing, rel=0.0, abs=1e-14)
    assert stepped.value.t <= exact.value.t < stepped.value.t + 0.1
    assert (exact.value.step, exact.value.member) == (0, 0)
    # a horizon that ends before the crossing runs to its end
    for t_max in (crossing - 1e-9, 2.7):
        traj = integrate(rule, game, x0, opponent=WAVE, t_max=t_max, dt=0.1)
        assert traj.times[-1] == t_max
    with pytest.raises(IntegrationError):
        integrate(rule, game, x0, opponent=WAVE, t_max=crossing + 1e-9, dt=0.1)


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
    """Sizes of the time arrays the scripted map hands to eval_schedule."""
    calls = []

    def counting(schedule, t):
        calls.append(np.size(t))
        return eval_schedule(schedule, t)

    monkeypatch.setattr(discrete, "eval_schedule", counting)
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
    assert rows_evaluated[0] == 5 and sum(rows_evaluated[1:]) == 100_000
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
    # a period of _BLOCK generations is folded, one more is summed in blocks
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
        assert rows_evaluated == ([period] if folded else blocks) + blocks
        if folded:
            assert np.all(np.abs(const - affine) <= n * EPS * (1.0 + np.abs(affine)))
        else:
            np.testing.assert_array_equal(const, affine)


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

"""Final log-states of short runs, recorded from the earlier one-loop-per-path
integrators: flows took fixed-step RK4 at dt = 1e-3, maps their one
generation loop.

- The maps must reproduce them.
- tests/oracles.rk4_flow, RK4 on the same grid, must reproduce all four
  flows. That pins the oracle the stepper tests compare with.
- The package's DOP853 must meet the three stepped flows within its error
  control, 1.0 in units of RTOL * (1 + |z|). scripted_flow takes the exact
  path instead; the recorded value is off from it by RK4's own error at
  sqrt's infinite slope (1.2e-6), and tests/test_closed_form.py checks that
  path against SciPy's quad (FLOWS["sqrt link"]).

The tolerance of the recorded values is 1e-12 rather than bit equality
because Python 3.12 and later round float sum() differently."""

import numpy as np
import pytest

from egtlab.discrete import affine_background, constant_background, iterate
from egtlab.dynamics import RTOL, Coupled, GrowthRule, Schedule, integrate
from egtlab.games import Game
from egtlab.links import exp_link, log_link, sqrt_link, table_link
from oracles import rk4_flow

NEG_INF = float("-inf")
RPS4 = Game([[1.0, 0.0, 2.5, 0.5], [2.5, 1.0, 0.0, 0.5],
             [0.0, 2.5, 1.0, 0.5], [0.8, 0.8, 0.8, 1.0]])
SURVIVAL = Game([[1.0, 0.0], [0.0, 1.0], [0.52, 0.52]])
WAVE = Schedule(6.0, [0.0, 2.0, 3.0, 5.0],
                [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
A = Game([[1.0, 0.3, 1.4, 0.2], [0.4, 1.2, 0.6, 1.5], [0.9, 0.8, 0.7, 1.0]])
B = Game([[0.5, 1.2, 0.9], [1.3, 0.4, 0.8], [0.7, 1.1, 0.6], [1.0, 0.9, 1.2]])
EXP = GrowthRule(exp_link(1.0, (0.0, 2.5)))
SQRT = GrowthRule(sqrt_link((0.0, 1.0)))
LOG = GrowthRule(log_link((0.2, 1.5)))
SPEED = GrowthRule(speed=table_link([0.0, 1.0], [0.5, 1.5]))
# the second population starts on a face
Y0 = (0.4, 0.3, 0.0, 0.3)
PARTNER = Coupled(B, GrowthRule(), Y0)

# name -> (rule, game, x0, package opponent, oracle opponent, t_max)
FLOWS = {
    "self_flow": (EXP, RPS4, (0.1, 0.2, 0.3, 0.4), None, None, 3.0),
    "scripted_flow": (SQRT, SURVIVAL, (0.3, 0.3, 0.4), WAVE, WAVE, 7.5),
    "coupled_flow": (LOG, A, (0.2, 0.3, 0.5), PARTNER, (B, GrowthRule(), Y0), 3.0),
    "scripted_speed_flow": (SPEED, SURVIVAL, (0.3, 0.3, 0.4), WAVE, WAVE, 7.5),
}

MAPS = {
    "self_map": lambda: iterate(EXP, RPS4, (0.1, 0.2, 0.3, 0.4), n_max=500,
                                background=constant_background(1.0)),
    "scripted_map": lambda: iterate(SQRT, SURVIVAL, (0.3, 0.3, 0.4), opponent=WAVE,
                                    n_max=500, background=affine_background(1.0, 0.05)),
    "coupled_map": lambda: iterate(LOG, A, (0.2, 0.3, 0.5), opponent=PARTNER,
                                   n_max=500, background=constant_background(2.0)),
}

# (final log-state, final opponent log-state or None)
RECORDED = {
    "self_flow": ([-1.1905406507896075, -1.4381827538875358, -1.862419680531322,
                   -1.1930722482586504], None),
    "scripted_flow": ([-1.2788835835234984, -2.778883583528443, -0.4162061158707242],
                      None),
    "coupled_flow": ([-3.0599497093759385, -0.8952348171452593, -0.6077068480790279],
                     [-0.867702382472422, -1.9170092622282915, NEG_INF,
                      -0.8369282426761527]),
    "scripted_speed_flow": ([-0.37947419117656916, -3.114662557891836,
                             -1.3042152138570489], None),
    "self_map": ([-0.714944581180632, -3.7519223363285614, -0.7188585085502801,
                  -148.24050422217877], None),
    "scripted_map": ([-13.855875897646175, -14.931199360341605,
                      -1.288128806241098e-06], None),
    "coupled_map": ([-138.03920296803375, -0.5156565448635216, -0.909087828727555],
                    [-0.6886694206101864, -80.25442900085926, NEG_INF,
                     -0.6976450810622348]),
}


def final_logs(name):
    """(log-states, opponent log-states or None) of run name: a flow by the
    RK4 oracle, a map by iterate."""
    if name in FLOWS:
        rule, game, x0, _, opponent, t_max = FLOWS[name]
        return rk4_flow(rule, game, x0, opponent, t_max=t_max)[1:]
    traj = MAPS[name]()
    return traj.log_states, traj.opp_log_states


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_final_log_states_match_the_recorded_runs(name):
    logs, opp_logs = final_logs(name)
    want, want_opp = RECORDED[name]
    np.testing.assert_allclose(logs[-1], want, rtol=0.0, atol=1e-12)
    if want_opp is None:
        assert opp_logs is None
    else:
        np.testing.assert_allclose(opp_logs[-1], want_opp, rtol=0.0, atol=1e-12)


def scaled_error(got, want) -> float:
    """Largest |got - want| in units of RTOL * (1 + |want|), both ends -inf
    counting as no error."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    return float((np.abs(got[finite] - want[finite])
                  / (RTOL * (1.0 + np.abs(want[finite])))).max())


@pytest.mark.parametrize("name", sorted(set(FLOWS) - {"scripted_flow"}))
def test_the_stepper_meets_the_recorded_flows(name):
    rule, game, x0, opponent, _, t_max = FLOWS[name]
    traj = integrate(rule, game, x0, opponent=opponent, t_max=t_max)
    assert traj.meta["method"] == "dop853"
    want, want_opp = RECORDED[name]
    assert scaled_error(traj.log_states[-1], want) <= 1.0
    if want_opp is not None:
        assert scaled_error(traj.opp_log_states[-1], want_opp) <= 1.0

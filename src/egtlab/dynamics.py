"""Continuous-time selection dynamics driven by a link function.

The flow is x_i' = x_i * (g_i - gbar) with g_i the link applied to the
expected payoff of strategy i and gbar the population mean growth rate. With
a linear link this is the classical replicator flow. A speed factor, a link
over the mean payoff, multiplies the right-hand side; a constant one would
only change how fast time runs (see GrowthRule).

Integration runs in log coordinates z_i = ln x_i, over one population
(playing itself or a scripted opponent), a batch of self-play runs that share
one support, or a coupled pair. Each population is restricted to its support
when the run starts, so support faces are exactly invariant and frequencies
near machine zero remain resolved.

One stepper (_solve) advances a log-state of shape (B, n), one row per run,
with NumPy: Dormand & Prince's 8th-order pair DOP853 (Hairer, Norsett &
Wanner, Solving ODEs I, II.5), 12 stages and a first-same-as-last stage, at
RTOL = ATOL = 1e-10. The error estimate combines the embedded 5th- and
3rd-order ones per run, and the worst run sets the shared step. Samples come
from the scheme's 7th-order dense output (II.6; three more stages, only on
steps with a sample inside) at the times of the fixed-step grid that dt and
sample_every define, so dt sets the sample grid, not the step.

Steps never cross a bound of _grid (the opponent script's breakpoints),
so a kink of the script never falls inside a step. Logs are renormalized
after every accepted step and the largest pre-renormalization drift, a
measure of the integration error, is kept in the meta. Against a script the
stepper reads the payoffs, affine on each piece, off the table of their
values at the pieces' ends that the exact path integrates (_piece_payoffs).
A speed factor is scanned on every call only where it is not positive on
the payoff hull widened by its domain pad; elsewhere one check per run
covers every call.

Against a script, with no speed factor and a link of a family with an
antiderivative (all but the effective link), each growth rate depends on
time alone and gbar is a shift common to all coordinates, so z_i(t) = z_i(0)
+ int_0^t f(u_i(s)) ds up to that shift. u_i is affine on each piece
[a, b] of the script, and the integral is (b - a) (F(u_b) - F(u_a)) /
(u_b - u_a), F an antiderivative of the link, or (b - a) f(u_a) if u_a = u_b.
That quotient cancels where F's terms exceed 32 |u_b - u_a| (1 + |f(u_a)| +
|f(u_b)|), on a piece short against the scale on which f varies; the 8-point
Gauss-Legendre rule takes those. A piece's mean of f is then off by about
100 eps (1 + |f(u_a)| + |f(u_b)|) at most, plus 1.7e-23 |u_b - u_a|^16
max|f^(16)| by Gauss-Legendre. With one period's sum S and its prefix sums,
z(t) = z(0) + floor(t / P) S + prefix[k] + the part of piece k up to t,
normalized at the samples only (_exact_flow): O(pieces + samples) work
after _grid's one array pass over the breakpoints up to t_max. The fold is
_fold, which the scripted generation map shares (discrete.py). Its drift is
_drift, the largest |sum x - 1| over the normalized samples after the
first: one rounding measure that every generation map reports too.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .games import Game, validate_simplex
from .links import (LinkFunction, _eval_unchecked, _extremes, _integral_unchecked,
                    array_link, domain_pad, hull_inside, linear_link)

_REPLICATOR = linear_link(1.0, 0.0)

# Relative and absolute tolerance of the stepper's error control, per run
# and log coordinate. The conserved quantity of a zero-sum coupled replicator
# pair (3 vs 4 strategies, ten time units, 20 random pairs) drifts by up to 3.4e-8
# at 1e-8 and 5.1e-10 at 1e-10. At 1e-10 the sample logs z of hw-4x4 (whose
# saddle loop amplifies errors) and dual-4x4, at their catalog defaults, stay
# within 2.4e-8 and 4.7e-10 times 1 + |z| of SciPy's DOP853 at rtol 1e-12.
RTOL = ATOL = 1e-10
# Step control of DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.4 and
# their Fortran code): h grows by SAFETY * err^(-1/8) within [FAC_MIN, FAC_MAX]
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.333, 6.0


class IntegrationError(RuntimeError):
    """The flow could not be continued; carries the failing time, the number
    of steps accepted before it, and the index of the failing run (0 for a
    single run; None where the failure belongs to no one run)."""

    def __init__(self, message, t=None, step=None, member=None):
        super().__init__(message)
        self.t = t
        self.step = step
        self.member = member


def _dense_basis(theta) -> np.ndarray:
    """theta, theta (1 - theta), theta^2 (1 - theta), ..., theta^4 (1 - theta)^3
    at each theta, one row per theta: the polynomials that weigh the rows of
    DOP853's dense output (Hairer, Norsett & Wanner, II.6)."""
    theta = np.asarray(theta, dtype=float)[..., None]
    factors = np.empty(theta.shape[:-1] + (7,))
    factors[..., 0::2], factors[..., 1::2] = theta, 1.0 - theta
    return np.multiply.accumulate(factors, axis=-1)


# Dormand & Prince's 8(5,3) pair DOP853 with its 7th-order dense output, the
# coefficients of Hairer's Fortran code (Hairer, Norsett & Wanner, Solving
# ODEs I, II.5 and II.6): 12 stages, the first-same-as-last stage and three
# extra stages for the dense output. _B8 weighs the 12 stages of a step, and
# each row of _E is one embedded error estimate over them. The nodes _C and
# the stage rows _A (row i has i entries) go on past those stages: first the
# first-same-as-last stage (the right-hand side at the step's end, c = 1 and
# a = _B8), then the extra stages of the dense output. _P holds, per
# polynomial of _dense_basis, weights over all 16 stages.
_B8 = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, 0.3111643669578199,
                -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
# weights of the embedded 3rd-order solution
_B3 = np.array([0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7338466882816118,
                0.0, 0.0, 0.022058823529411766])
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0,
      1.0, 0.1, 0.2, 7 / 9)
_A = (None,
      np.array([0.05260015195876773]),
      np.array([0.0197250569845379, 0.0591751709536137]),
      np.array([0.02958758547680685, 0.0, 0.08876275643042054]),
      np.array([0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792]),
      np.array([0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242]),
      np.array([0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
                -0.017578125]),
      np.array([0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
                -0.015319437748624402, 0.008273789163814023]),
      np.array([0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
                27.59209969944671, 20.154067550477894, -43.48988418106996]),
      np.array([0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
                21.230051448181193, 15.279233632882423, -33.28821096898486,
                -0.020331201708508627]),
      np.array([-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
                -8.149787010746927, -18.52006565999696, 22.739487099350505,
                2.4936055526796523, -3.0467644718982196]),
      np.array([2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
                -17.9589318631188, 27.94888452941996, -2.8589982771350235,
                -8.87285693353063, 12.360567175794303, 0.6433927460157636]),
      _B8,
      np.array([0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
                -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
                0.00820105229563469, 0.007567897660545699, -0.008298]),
      np.array([0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
                0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
                -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
                0.1413124436746325]),
      np.array([-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
                7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
                -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]))
# _B8 minus the embedded 5th-order weights, and _B8 minus the 3rd-order ones
_E = np.array([
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
     -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
     0.3341791187130175, 0.08192320648511571, -0.022355307863886294],
    _B8 - _B3])
# the step's increment, the two rows the end slopes fix, and Hairer's four rows
_B16 = np.append(_B8, np.zeros(4))
_P = np.vstack([_B16, np.eye(16)[0] - _B16, 2 * _B16 - np.eye(16)[0] - np.eye(16)[12], [
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
     -39.17726167561544, -149.72683625798564]]])


@dataclass(frozen=True)
class Schedule:
    """Periodic piecewise-linear opponent script over mixtures.

    times[0] must be 0 and times must stay strictly inside one period; after
    the last breakpoint the script interpolates back to the first row.
    """

    period: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        period = float(self.period)
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if not (math.isfinite(period) and period > 0):
            raise ValueError(f"schedule period must be positive, got {period!r}")
        if times.ndim != 1 or times.size == 0:
            raise ValueError("schedule needs a 1-d array of breakpoint times")
        if times[0] != 0.0:
            raise ValueError("first schedule breakpoint must sit at t=0")
        if np.any(np.diff(times) <= 0) or times[-1] >= period:
            raise ValueError("schedule times must increase strictly and stay below the period")
        if values.ndim != 2 or values.shape[0] != times.size:
            raise ValueError("schedule needs one mixture row per breakpoint")
        for k in range(values.shape[0]):
            validate_simplex(values[k], what=f"schedule row {k}")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_strategies(self) -> int:
        return self.values.shape[1]


def _script_piece(schedule: Schedule, t):
    """(cycles, k, w) for the array of times t: whole periods before each
    time, the index of its script piece and the fraction of that piece
    behind it, computed as _piece_at computes them per float (a time that
    rounds onto the period's end starts the next period)."""
    period, starts = schedule.period, schedule.times
    cycles = np.floor(t / period)
    tau = t - period * cycles
    wrap = tau >= period
    cycles, tau = cycles + wrap, np.where(wrap, 0.0, tau)
    k = np.maximum(np.searchsorted(starts, tau, side="right"), 1) - 1
    ends = np.append(starts[1:], period)
    return cycles, k, (tau - starts[k]) / (ends[k] - starts[k])


def _piece_at(schedule: Schedule):
    """Per-float t -> (k, w) of _script_piece, in its arithmetic."""
    period, starts = schedule.period, schedule.times.tolist()
    ends = starts[1:] + [period]

    def at(t):
        tau = t - period * math.floor(t / period)
        tau = 0.0 if tau >= period else tau
        k = bisect.bisect_right(starts, tau, 1) - 1
        return k, (tau - starts[k]) / (ends[k] - starts[k])

    return at


def _piece_payoffs(pop, schedule: Schedule):
    """pop's payoffs against the script at the start (ua) and end (ub) of
    each piece; at the fraction w of piece k, ua[k] + w (ub[k] - ua[k])."""
    ua = schedule.values @ pop.payoffs.T
    return ua, np.roll(ua, -1, axis=0)


def eval_schedule(schedule: Schedule, t) -> np.ndarray:
    """Opponent weights at time t, or one row per entry of an array of times."""
    _, k, w = _script_piece(schedule, np.asarray(t, dtype=float))
    rows = schedule.values
    return rows[k] + w[..., None] * (np.roll(rows, -1, axis=0) - rows)[k]


@dataclass(frozen=True)
class GrowthRule:
    """Link plus optional speed factor; link None means plain replicator.

    speed is None or a link over the first population's mean payoff, by
    which the flow's right-hand side is multiplied. A constant speed lam is
    refused, since it only changes time: that run is the unit-speed run to
    lam t_max, its script's times and period stretched by lam, read at
    lam t."""

    link: LinkFunction | None = None
    speed: LinkFunction | None = None

    def __post_init__(self):
        if self.speed is not None and not isinstance(self.speed, LinkFunction):
            raise TypeError(f"speed must be None or a link over mean payoff, got {self.speed!r}")

    @property
    def effective_link(self) -> LinkFunction:
        return self.link if self.link is not None else _REPLICATOR

    @property
    def label(self) -> str:
        base = ("replicator" if self.link is None
                else f"payoff-functional({self.link.family})")
        return base if self.speed is None else f"{base}*speed({self.speed.family})"


@dataclass(frozen=True)
class Coupled:
    """Second population with its own game (payoffs against population one).
    Its rule takes no speed factor: a coupled run has none."""

    game: Game
    rule: GrowthRule
    y0: np.ndarray

    def __post_init__(self):
        if self.rule.speed is not None:
            raise ValueError("a coupled population's rule takes no speed factor")


@dataclass(frozen=True)
class Trajectory:
    """Sampled run; log_states are authoritative, states derived on access.

    A batch of runs (meta["members"] > 1) holds log_states of shape
    (samples, members, strategies); member(k) is run k on its own."""

    times: np.ndarray
    log_states: np.ndarray
    opp_states: np.ndarray | None = None
    opp_log_states: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def states(self) -> np.ndarray:
        return np.exp(self.log_states)

    def __len__(self) -> int:
        return self.times.shape[0]

    def member(self, k: int) -> Trajectory:
        """Run k of a batch, with the batch's meta."""
        if self.log_states.ndim != 3:
            raise ValueError("member() needs a batch of runs")
        return Trajectory(self.times, self.log_states[:, k], meta=self.meta)

    def run_logs(self, what: str) -> np.ndarray:
        """log_states of a single run, (samples, strategies); a batch fails
        with a ValueError that names what needed the single run."""
        if self.log_states.ndim != 2:
            raise ValueError(
                f"{what} reads a single run, got a batch of {self.log_states.shape[1]} runs; "
                "take run k with Trajectory.member(k)")
        return self.log_states


def _log_state(x0, n, what) -> np.ndarray:
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{what} must have length {n}, got shape {x.shape}")
    validate_simplex(x, what=what)
    with np.errstate(divide="ignore"):
        z = np.log(np.maximum(x, 0.0))
    return z


class _Population:
    """One population restricted to its support when the run starts.

    z holds the logs on the support only and payoffs the payoff rows of the
    support, sliced to the opponent columns they can meet, with hull their
    smallest and largest entry; coordinates off the support stay exactly at
    -inf and are never evaluated. f is the link.
    """

    def __init__(self, z, payoff, cols, link: LinkFunction, where: str):
        self.n = z.size
        self.support = np.flatnonzero(z > -np.inf)
        self.z = z[self.support].tolist()
        self.payoffs = payoff[np.ix_(self.support, cols)]
        self.hull = (float(self.payoffs.min()), float(self.payoffs.max()))
        self.f = link
        self.where = where

    def name(self, k: int) -> str:
        return self.where.format(int(self.support[k]))

    def domain_error(self, k: int, t: float, step: int, member=None) -> IntegrationError:
        return IntegrationError(
            f"payoff left the link domain near t={t:g} ({self.name(k)})", t=t, step=step,
            member=member)

    def log_states(self, samples) -> np.ndarray:
        """Full log-states from support logs, one row per sample (and run)."""
        samples = np.asarray(samples, dtype=float)
        out = np.full(samples.shape[:-1] + (self.n,), -np.inf)
        out[..., self.support] = samples
        return out


def _setup(rule: GrowthRule, game: Game, x0, opponent):
    """Validate the opponent and build the populations.

    Returns (populations, pays, label): pays maps the time and the
    populations' frequencies, one (B, n) array each, to each population's
    payoffs. A script's are one row of its per-piece table (_piece_payoffs),
    whatever the number of runs.
    """
    n, m = game.n_rows, game.n_cols
    z = _log_state(x0, n, "initial state")
    if isinstance(opponent, Coupled):
        if opponent.game.n_rows != m or opponent.game.n_cols != n:
            raise ValueError(
                f"coupled game must be {m}x{n} (opponent strategies x ours), "
                f"got {opponent.game.n_rows}x{opponent.game.n_cols}")
        z2 = _log_state(opponent.y0, m, "coupled initial state")
        if rule.speed is not None:
            raise ValueError("payoff-dependent speed is not supported with a coupled opponent")
        pops = [_Population(z, game.payoff, np.flatnonzero(z2 > -np.inf),
                            rule.effective_link, "population 1 strategy {}"),
                _Population(z2, opponent.game.payoff, np.flatnonzero(z > -np.inf),
                            opponent.rule.effective_link, "population 2 strategy {}")]
        mat, mat2 = (pop.payoffs.T for pop in pops)
        return pops, lambda t, xs: [xs[1].dot(mat), xs[0].dot(mat2)], "coupled"
    if isinstance(opponent, Schedule):
        if opponent.n_strategies != m:
            raise ValueError(
                f"schedule rows have {opponent.n_strategies} entries, game has {m} columns")
        pop = _Population(z, game.payoff, np.arange(m), rule.effective_link, "strategy {}")
        piece, (ua, ub) = _piece_at(opponent), _piece_payoffs(pop, opponent)
        ua, du = ua[:, None], (ub - ua)[:, None]

        def pays(t, xs):
            k, w = piece(t)
            return [ua[k] + w * du[k]]

        return [pop], pays, "scripted"
    if opponent is not None:
        raise TypeError(f"unsupported opponent {opponent!r}")
    if n != m:
        raise ValueError(f"self-play needs a square game, got {n}x{m}")
    pop = _Population(z, game.payoff, np.flatnonzero(z > -np.inf),
                      rule.effective_link, "strategy {}")
    mat = pop.payoffs.T
    return [pop], lambda t, xs: [xs[0].dot(mat)], "self"


def _trajectory(pops, opponent, times, samples, meta) -> Trajectory:
    """Trajectory from the sample times and, per population, its support
    logs at each sample."""
    times = np.asarray(times, dtype=float)
    logs = [pop.log_states(s) for pop, s in zip(pops, samples)]
    if len(pops) == 2:
        return Trajectory(times, logs[0], np.exp(logs[1]), logs[1], meta)
    opp = eval_schedule(opponent, times) if isinstance(opponent, Schedule) else None
    return Trajectory(times, logs[0], opp, None, meta)


def _check_count(value, name: str) -> int:
    """A count such as n_max or sample_every as an int: a whole number of at
    least 1, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")
    return int(value)


def _sample_counts(total: int, sample_every: int) -> np.ndarray:
    """Step counts at the samples: the start, every sample_every-th step,
    and the last step."""
    counts = np.arange(0, total + 1, sample_every)
    return counts if counts[-1] == total else np.append(counts, total)


def _grid(t_max: float, dt: float, sample_every: int, schedule: Schedule | None):
    """(bounds, sample times) of the fixed-step grid of dt.

    The bounds are 0, t_max and the script's breakpoints k P + times[j]
    (j >= 1) and k P (k >= 1) inside (0, t_max), less each that lies within
    1e-12 max(1, t_max) of the breakpoint before it or of t_max. Each
    segment is cut into ceil(its length / dt) equal steps, at least one, its
    last ending exactly on its bound; the samples are the start, every
    sample_every-th step and the last step."""
    bounds = np.array([0.0, t_max])
    if schedule is not None:
        P = schedule.period
        # k P + times[j], k P itself at j = 0, and k P + P, which may round
        # off (k + 1) P (the smaller is kept), for k up to ceil(t_max / P);
        # sorted, they start at 0, which is no cut
        cuts = np.sort(np.add.outer(np.arange(math.ceil(t_max / P) + 1) * P,
                                    np.append(schedule.times, P)), axis=None)
        tol = 1e-12 * max(1.0, t_max)
        keep = (np.diff(cuts) > tol) & (t_max - cuts[1:] > tol)
        bounds = np.concatenate(([0.0], cuts[1:][keep], [t_max]))
    steps = np.maximum(1, np.ceil(np.diff(bounds) / dt - 1e-9).astype(np.int64))
    ends = np.cumsum(steps)
    last = _sample_counts(int(ends[-1]), sample_every)[1:] - 1  # each sample's last step
    seg = np.searchsorted(ends, last, side="right")
    k = last - (ends[seg] - steps[seg])
    a, b = bounds[:-1][seg], bounds[1:][seg]
    times = np.where(k == steps[seg] - 1, b, a + (k + 1) * ((b - a) / steps[seg]))
    return bounds, np.append(0.0, times)


def _normalize(z, slices):
    """z with each population's logs shifted onto the simplex, in place."""
    for sl in slices:
        w = z[..., sl]
        top = np.maximum.reduce(w, axis=-1, keepdims=True)
        w -= top + np.log(np.add.reduce(np.exp(w - top), axis=-1, keepdims=True))
    return z


def _log_field(pops, pays, speed):
    """Right-hand side over a (B, N) log-state: the populations' support logs
    side by side, one row per run; pays gives their payoffs (see _setup).

    field(t, z, t0, step) fails with an IntegrationError that reports t0,
    the start of the step being taken, and the step count: on a payoff
    outside a link's domain (first run, then strategy) or a speed factor
    that is not positive. Payoffs against mixtures, and mean payoffs, stay
    within the hull of the rows but for rounding dust inside the links'
    domain pad (a script's rows sum to one within 1e-12). So a link's values
    are scanned for nan only where hull_inside fails, and speed factors only
    where the speed is not positive on the hull widened by its domain pad.
    Returns (field, slices of the populations).
    """
    ends = np.cumsum([len(pop.z) for pop in pops])
    slices = [slice(int(e) - len(pop.z), int(e)) for pop, e in zip(pops, ends)]
    plan = [(pop, array_link(pop.f, pop.hull), not hull_inside(pop.f, pop.hull))
            for pop in pops]
    speed_link = scanned = None
    if speed is not None:
        (lo, hi), pad = pops[0].hull, domain_pad(speed)
        speed_link = array_link(speed, pops[0].hull)
        scanned = _speed_faults(speed_link(_extremes(speed, lo - pad, hi + pad))).any()
    add, top = np.add.reduce, np.maximum.reduce

    def field(t, z, t0, step):
        # each population's frequencies, then its rates, in its slice of d
        d, xs = np.empty(z.shape), []
        for sl in slices:
            w, x = z[:, sl], d[:, sl]
            np.subtract(w, top(w, axis=1, keepdims=True), out=x)
            np.exp(x, out=x)
            xs.append(np.divide(x, add(x, axis=1, keepdims=True), out=x))
        us = pays(t, xs)
        if speed_link is not None:
            mean = add(xs[0] * us[0], axis=1)
        for (pop, f, check), x, u in zip(plan, xs, us):
            g = f(u)
            gbar = add(x * g, axis=1, keepdims=True)
            if check and np.isnan(gbar).any():
                b, i = np.argwhere(np.isnan(g))[0]
                raise pop.domain_error(int(i), t0, step, member=int(b))
            np.subtract(g, gbar, out=x)
        if speed_link is not None:
            lam = speed_link(mean)
            if scanned and _speed_faults(lam).any():
                raise IntegrationError(
                    f"speed factor not positive (or outside its table) near t={t0:g}",
                    t=t0, step=step, member=int(np.argmax(_speed_faults(lam))))
            np.multiply(d, lam[:, None], out=d)
        return d

    return field, slices


def _speed_faults(lam):
    """Where the speed factors lam are not positive and finite."""
    return ~((lam > 0.0) & (lam < math.inf))


def _rms(v):
    """Largest RMS norm over the rows (runs) of v."""
    return math.sqrt(np.add.reduce(v * v, axis=1).max() / v.shape[1])


def _error_norm(d, h: float) -> float:
    """Error of a DOP853 step from its scaled 5th- and 3rd-order estimates
    d[0] and d[1], each of shape (B, N): h err5^2 / sqrt(err5^2 + 0.01 err3^2)
    with the RMS norms err5 and err3 of a run, for the worst run. NaN where
    an estimate is not finite."""
    sq = np.add.reduce(d * d, axis=2) / d.shape[2]
    den = sq[0] + 0.01 * sq[1]
    return h * float(np.maximum.reduce(sq[0] / np.sqrt(np.where(den > 0.0, den, 1.0))))


def _solve(field, slices, z0, bounds, t_samples):
    """DOP853 over a (B, N) log-state, segment by segment.

    Step sizes follow the error control, shared by the runs and clipped
    to the segment's end; each accepted step evaluates the
    first-same-as-last stage. After each accepted step every population's
    logs are renormalized, and a sum of frequencies that is not positive and
    finite stops the run. t_samples[0] takes z0; every later sample time is
    a step's end or falls inside a step and is read off the dense output,
    whose extra stages are evaluated only on such steps. Returns (logs at
    the samples, run stats with max_drift).
    """
    n_stages = len(_B8)
    B, N = z0.shape
    K = np.empty((len(_C), B, N))
    flat = K.reshape(len(K), B * N)
    heads = [flat[:i] for i in range(len(K))]  # the stages before stage i
    state = np.empty((B, N))  # each stage's state, built in place
    state_flat = state.reshape(B * N)
    out = np.empty((len(t_samples), B, N))
    out[0] = z0
    z, az = z0.copy(), np.abs(z0)
    sample_times = t_samples.tolist()
    stats = {"steps": 0, "rejected": 0, "rhs_evals": 0, "h_min": math.inf, "h_max": 0.0,
             "max_drift": 0.0}
    nxt = 1

    def stages(t, h, hv, lo, hi):
        """Fills stages lo..hi-1 of the step from (t, z) of size h: stage
        i's state is z + h (_A[i] @ the stages before it), built in state by
        the same products and sums. hv is h as a 0-d array, which a ufunc
        takes as it is where it converts a float on every call; ndarray.dot
        skips the dispatch that np.dot and @ go through."""
        step = stats["steps"]
        for i in range(lo, hi):
            _A[i].dot(heads[i], out=state_flat)
            np.multiply(hv, state, out=state)
            np.add(z, state, out=state)
            K[i] = field(t + _C[i] * h, state, t, step)
        stats["rhs_evals"] += hi - lo

    t = float(bounds[0])
    K[0] = field(t, z, t, 0)
    h = _initial_step(field, t, z, K[0], float(bounds[-1] - bounds[0]))
    stats["rhs_evals"] = 2  # K[0] and the initial step's trial
    for b in bounds[1:].tolist():
        rejected = False
        while t < b:
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError(f"step size fell to {h:g} near t={t:g}", t=t,
                                       step=stats["steps"])
            # a step that reaches the bound, or nearly, ends on it; the next
            # step starts from the size proposed before this one was cut
            h_free, t_new = h, t + h
            if t + 1.01 * h >= b:
                h, t_new = b - t, b
            hv = np.array(h)
            stages(t, h, hv, 1, n_stages)
            z_new = z + hv * _B8.dot(heads[n_stages]).reshape(B, N)
            scale = ATOL + RTOL * np.maximum(az, np.abs(z_new))
            err = _error_norm(_E.dot(heads[n_stages]).reshape(2, B, N) / scale, h)
            # an error that is not finite (a step out of the finite states)
            # shrinks the step the most
            fac = (min(_FAC_MAX, max(_FAC_MIN, _SAFETY * max(err, 1e-30) ** -0.125))
                   if err < math.inf else _FAC_MIN)
            if not err <= 1.0:
                stats["rejected"] += 1
                rejected = True
                h *= fac
                continue
            for sl in slices:
                total = np.add.reduce(np.exp(z_new[:, sl]), axis=1)
                # inf or nan where a sum is, so it also checks the sums' upper end
                drift = float(np.maximum.reduce(np.abs(total - 1.0)))
                if not (np.minimum.reduce(total) > 0.0 and drift < math.inf):
                    bad = ~((total > 0.0) & (total < math.inf))
                    raise IntegrationError(f"state became non-finite near t={t:g}", t=t,
                                           step=stats["steps"], member=int(np.argmax(bad)))
                z_new[:, sl] -= np.log(total)[:, None]
                stats["max_drift"] = max(stats["max_drift"], drift)
            K[n_stages] = field(t_new, z_new, t, stats["steps"])
            stats["rhs_evals"] += 1
            last = bisect.bisect_right(sample_times, t_new, nxt)
            if last > nxt:
                inside = bisect.bisect_left(sample_times, t_new, nxt, last) - nxt
                if inside:
                    stages(t, h, hv, n_stages + 1, len(_C))
                    w = _dense_basis((t_samples[nxt:nxt + inside] - t) / h).dot(_P)
                    out[nxt:nxt + inside] = _normalize(
                        z + hv * w.dot(flat).reshape(inside, B, N), slices)
                out[nxt + inside:last] = z_new
                nxt = last
            stats["steps"] += 1
            stats["h_min"] = min(stats["h_min"], h)
            stats["h_max"] = max(stats["h_max"], h)
            z, az, K[0], t = z_new, np.abs(z_new), K[n_stages], t_new
            h = max(h * (min(fac, 1.0) if rejected else fac), h_free if t == b else 0.0)
            rejected = False
    return out, stats


def _initial_step(field, t, z, f0, span: float) -> float:
    """First step size from the scaled sizes of the state, its derivative and
    its change over a trial Euler step, for an order-8 scheme (Hairer,
    Norsett & Wanner, II.4)."""
    scale = ATOL + RTOL * np.abs(z)
    d0, d1 = _rms(z / scale), _rms(f0 / scale)
    h0 = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h0 = min(h0, span)
    d2 = _rms((field(t + h0, z + h0 * f0, t, 0) - f0) / scale) / h0
    top = max(d1, d2)
    h1 = (0.01 / top) ** 0.125 if top > 1e-15 else max(1e-6, 1e-3 * h0)
    return min(100.0 * h0, h1, span)


# The 8-point Gauss-Legendre rule on [-1, 1], exact up to degree 15; literal,
# so that importing egtlab loads no numpy.polynomial
_GL_X = np.array([0.9602898564975362, 0.7966664774136267, 0.525532409916329,
                  0.18343464249564978])
_GL_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                  0.36268378337836166])
_GL_X, _GL_W = np.append(-_GL_X, _GL_X[::-1]), np.append(_GL_W, _GL_W[::-1])


def _exact_flow(pop, schedule: Schedule, t_max: float, times):
    """The run against a script with no speed factor, integrated exactly at
    the sample times (see the module docstring), the link taken at the
    argument clamped to its domain as array_link takes it. A payoff leaving
    the padded domain before t_max fails where it crosses the edge, earliest
    crossing then lowest strategy first. Returns ([logs at each sample], max
    drift over the normalized samples, rows of the link or F evaluated)."""
    f, starts, n = pop.f, schedule.times, len(pop.z)
    lengths = np.append(starts[1:], schedule.period) - starts
    ua, ub = _piece_payoffs(pop, schedule)
    lo, hi = f.domain[0] - domain_pad(f), f.domain[1] + domain_pad(f)
    into = lengths[:, None] * (np.clip(ub, lo, hi) - ua) / (ub - ua)
    cross = starts[:, None] + np.where((ua < lo) | (ua > hi), 0.0,
                                       np.where((ub < lo) | (ub > hi), into, np.inf))
    first = int(np.argmin(cross))
    if cross.flat[first] < t_max:
        raise pop.domain_error(first % n, float(cross.flat[first]), 0, member=0)
    # the mean of f along each piece, then along each sample's part of its
    # piece: rows of paths from ua to ub
    cycles, k, w = _script_piece(schedule, times)
    ua, ub = np.vstack([ua, ua[k]]), np.vstack([ub, ua[k] + w[:, None] * (ub[k] - ua[k])])
    ca, cb = np.clip(ua, *f.domain), np.clip(ub, *f.domain)
    fa, fb = _eval_unchecked(f, ca), _eval_unchecked(f, cb)
    dF, size = _integral_unchecked(f, ca, cb)
    du = ub - ua
    mean = np.where(du == 0.0, fa, (fa * (ca - ua) + dF + fb * (ub - cb)) / du)
    cancels = (du != 0.0) & (size > 32.0 * np.abs(cb - ca) * (1.0 + np.abs(fa) + np.abs(fb)))
    rows = cancels.any(axis=1)
    if rows.any():
        a, b = ua[rows, :, None], ub[rows, :, None]
        g = _eval_unchecked(f, np.clip(0.5 * (a + b) + 0.5 * (b - a) * _GL_X, *f.domain))
        mean[rows] = np.where(cancels[rows], 0.5 * (g @ _GL_W), mean[rows])
    areas = np.append(lengths, w * lengths[k])[:, None] * mean
    areas -= areas.mean(axis=1, keepdims=True)  # the common shift, kept off the sums
    z, drift = _fold(pop.z, areas[:len(starts)], cycles, k, areas[len(starts):])
    return [z], drift, 4 * len(ua) + 8 * int(rows.sum())


def _fold(z0, rows, cycles, k, partial=0.0):
    """Logs at samples that lie cycles whole periods, k increment rows and
    partial past z0 (one entry per sample, the first sample z0 itself):
    z0 + (cycles S + prefix[k] + partial), with prefix the prefix sums of
    one period's mean-free increment rows and S their sum. Each sample's
    largest log comes off before the log of the sum, so the samples are
    normalized to rounding. Returns (logs, max |sum x - 1| over the samples
    after the first)."""
    prefix = np.cumsum(np.vstack([np.zeros(len(z0)), rows]), axis=0)
    z = np.asarray(z0) + (cycles[:, None] * prefix[-1] + prefix[k] + partial)
    z[1:] -= z[1:].max(axis=1, keepdims=True)
    z[0] = z0
    _normalize(z[1:], [slice(None)])
    return z, _drift(z[1:])


def _drift(z) -> float:
    """The largest |sum x - 1| over normalized logs z, one row per sample:
    the max_drift of every generation map and of the exact flow."""
    return float(np.abs(np.exp(z).sum(axis=-1) - 1.0).max())


def _batch_logs(x0, n: int) -> np.ndarray:
    """Logs of a (B, n) batch of starts that share one support."""
    if x0.shape[0] == 0:
        raise ValueError("a batch of initial states needs at least one row")
    z = np.array([_log_state(x, n, f"initial state {k}") for k, x in enumerate(x0)])
    if np.any(np.isinf(z) != np.isinf(z[0])):
        raise ValueError("the initial states of a batch must share one support")
    return z


def integrate(rule: GrowthRule, game: Game, x0,
              opponent: Schedule | Coupled | None = None,
              t_max: float = 200.0, dt: float = 1e-3,
              sample_every: int = 100) -> Trajectory:
    """Run the flow from x0 for t_max time units.

    opponent None plays the population against itself (square game);
    a Schedule scripts the column player; a Coupled instance evolves a second
    population by its own rule. In self-play x0 may be a (B, n) array of
    starts sharing one support: the B runs go in one call, log_states has
    shape (samples, B, n) and meta["members"] is B.

    dt sets the sample grid: the fixed-step grid of dt cut at the script's
    breakpoints, sampled at the start, every sample_every-th grid step and
    the end; sample_every must be a positive integer. A scripted run with no
    speed factor takes no steps: it is integrated exactly (_exact_flow,
    method "exact"), whatever dt. Every other run, and a run
    on a link ln(C + f) of the effective family, which has no
    antiderivative, takes the stepper (method "dop853"): the 8th-order
    Dormand-Prince pair, sizing its steps under error control at
    RTOL = ATOL = 1e-10 and reading the samples off its 7th-order dense
    output.

    meta records the method, accepted and rejected steps ("steps",
    "rejected"), right-hand-side evaluations ("rhs_evals"; on the exact
    path, the rows of the link or its antiderivative evaluated), the
    smallest and largest step, rtol (RTOL; all three None on the exact
    path) and "max_drift": the largest |sum x - 1| before a step's
    renormalization on the stepper, over the normalized samples after the
    first on the exact path (_drift).
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    sample_every = _check_count(sample_every, "sample_every")
    x0 = np.asarray(x0, dtype=float)
    batch = x0.ndim == 2
    if batch:
        if opponent is not None:
            raise ValueError("a batch of initial states needs self-play (no opponent)")
        z0 = _batch_logs(x0, game.n_rows)
    pops, pays, label = _setup(rule, game, x0[0] if batch else x0, opponent)
    scripted = label == "scripted"
    bounds, times = _grid(t_max, dt, sample_every, opponent if scripted else None)
    if scripted and rule.speed is None and rule.effective_link.family != "effective":
        with np.errstate(divide="ignore", invalid="ignore"):  # masked by np.where
            samples, max_drift, evals = _exact_flow(pops[0], opponent, t_max, times)
        stats = {"method": "exact", "steps": 0, "rejected": 0, "rhs_evals": evals,
                 "h_min": None, "h_max": None, "rtol": None}
    else:
        z = z0[:, pops[0].support] if batch else np.array([sum((p.z for p in pops), [])])
        field, slices = _log_field(pops, pays, rule.speed)
        with np.errstate(over="ignore"):
            out, stats = _solve(field, slices, z, bounds, times)
        max_drift = stats.pop("max_drift")
        samples = [(out if batch else out[:, 0])[..., sl] for sl in slices]
        stats.update(method="dop853", rtol=RTOL)
    meta = {"dynamics": "continuous", **stats, "members": len(z0) if batch else 1,
            "dt": dt, "t_max": t_max, "max_drift": max_drift,
            "sample_every": sample_every, "opponent": label,
            "rule": rule.label, "game": game.digest()}
    return _trajectory(pops, opponent, times, samples, meta)


def write_trajectory_csv(traj: Trajectory, path, extras=None) -> None:
    """Plain CSV: time column, one frequency column per strategy, opponent
    columns appended when the run had a distinct opponent, then one column per
    extras entry (name -> one value per sample). Full precision."""
    n = traj.run_logs("write_trajectory_csv").shape[1]
    cols = ["t"] + [f"x{i + 1}" for i in range(n)]
    blocks = [traj.times[:, None], traj.states]
    if traj.opp_states is not None:
        cols += [f"y{j + 1}" for j in range(traj.opp_states.shape[1])]
        blocks.append(traj.opp_states)
    for name, series in (extras or {}).items():
        cols.append(name)
        blocks.append(np.asarray(series, dtype=float)[:, None])
    data = np.hstack(blocks)
    line = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.write(line * data.shape[0] % tuple(data.ravel().tolist()))

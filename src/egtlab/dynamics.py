"""Continuous-time selection dynamics driven by a link function.

The flow is x_i' = lam * x_i * (g_i - gbar) with g_i the link applied to the
expected payoff of strategy i and gbar the population mean growth rate. With
a linear link and unit speed this is the classical replicator flow.

Integration runs in log coordinates z_i = ln x_i, over one population
(playing itself or a scripted opponent), a batch of self-play runs that share
one support, or a coupled pair. Each population is restricted to its support
when the run starts, so support faces are exactly invariant and frequencies
near machine zero remain resolved.

One explicit Runge-Kutta stepper (_solve) advances a log-state of shape
(B, n), one row per run, with NumPy:

- method="dop853", the default: Dormand & Prince's 8th-order pair DOP853
  (Hairer, Norsett & Wanner, Solving ODEs I, II.5), 12 stages and a
  first-same-as-last stage, at RTOL = ATOL = 1e-10. The error estimate
  combines the embedded 5th- and 3rd-order ones per run, and the worst run
  sets the shared step. Samples come from the scheme's 7th-order dense
  output (II.6; three more stages, only on steps with a sample inside) at
  the times of the fixed-step grid that dt and sample_every define, so dt
  sets the sample grid, not the step.
- method="rk4": the classic fourth-order scheme at fixed steps dt on that
  same grid, kept as the tests' reference.

Steps never cross a bound of _segments (the opponent script's breakpoints),
so a kink of the script never falls inside a step. Logs are renormalized
after every accepted step and the largest pre-renormalization drift is kept
in the meta.

Against a script, with a state-free speed lam, each growth rate depends on
time alone and gbar is a shift common to all coordinates, so z_i(t) = z_i(0)
+ lam int_0^t f(u_i(s)) ds up to that shift. u_i is affine on each piece
[a, b] of the script, and the integral is (b - a) (F(u_b) - F(u_a)) /
(u_b - u_a), F an antiderivative of the link, or (b - a) f(u_a) if u_a = u_b.
That quotient cancels where F's terms exceed 32 |u_b - u_a| (1 + |f(u_a)| +
|f(u_b)|), on a piece short against the scale on which f varies; the 8-point
Gauss-Legendre rule takes those. A piece's mean of f is then off by about
100 eps (1 + |f(u_a)| + |f(u_b)|) at most, plus 1.7e-23 |u_b - u_a|^16
max|f^(16)| by Gauss-Legendre. With one period's sum S and its prefix sums,
z(t) = z(0) + lam (floor(t / P) S + prefix[k] + the part of piece k up to t),
normalized at the samples only (_exact_flow): O(pieces + samples) work once
the sample times are known. The fold is _fold, which the scripted generation
map shares (discrete.py). The sample times are not that cheap: _segments
builds the script's breakpoints in a Python loop over every period up to
t_max, so a long horizon first costs O(t_max / P) interpreted steps. On one
Intel Xeon core an exact run of a period-6 script to t_max = 6e5 takes about
0.3 s, nearly all of it in that loop. A vectorised grid waits on a benchmark
op with such a horizon.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .games import Game, payoff_mixed, validate_simplex
from .links import (LinkFunction, _eval_unchecked, _integral_unchecked, array_link,
                    domain_pad, eval_link, hull_inside, linear_link)

_REPLICATOR = linear_link(1.0, 0.0)

# Relative and absolute tolerance of the adaptive stepper, per run and log
# coordinate. The conserved quantity of a zero-sum coupled replicator pair
# (3 vs 4 strategies, ten time units, 20 random pairs) drifts by up to 3.4e-8
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


@dataclass(frozen=True)
class _Tableau:
    """Explicit Runge-Kutta scheme: nodes c, stage rows a (row i has i
    entries) and weights b over the len(b) stages of a step.

    An adaptive pair adds error weights e, one row per embedded estimate
    over the stages, and dense output. For that, c and a go on past the
    stages: first the first-same-as-last stage (the right-hand side at the
    step's end, c = 1 and a = b), then the extra stages of the dense output.
    p holds, per polynomial of _dense_basis, weights over all of them."""

    c: tuple
    a: tuple
    b: np.ndarray
    e: np.ndarray | None = None
    p: np.ndarray | None = None


def _dense_basis(theta) -> np.ndarray:
    """theta, theta (1 - theta), theta^2 (1 - theta), ..., theta^4 (1 - theta)^3
    at each theta, one row per theta: the polynomials that weigh the rows of
    DOP853's dense output (Hairer, Norsett & Wanner, II.6)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape + (7,))
    out[..., 0] = theta
    for k in range(1, 7):
        out[..., k] = out[..., k - 1] * (1.0 - theta if k % 2 else theta)
    return out


_RK4 = _Tableau(c=(0.0, 0.5, 0.5, 1.0),
                a=(None, np.array([0.5]), np.array([0.0, 0.5]), np.array([0.0, 0.0, 1.0])),
                b=np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6]))

# Dormand & Prince's 8(5,3) pair DOP853 with its 7th-order dense output, the
# coefficients of Hairer's Fortran code (Hairer, Norsett & Wanner, Solving
# ODEs I, II.5 and II.6): 12 stages, the first-same-as-last stage and three
# extra stages for the dense output.
_B8 = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, 0.3111643669578199,
                -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
# weights of the embedded 3rd-order solution
_B3 = np.array([0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7338466882816118,
                0.0, 0.0, 0.022058823529411766])


def _dop853_dense(d) -> np.ndarray:
    """Dense-output rows over the 16 stages: the step's increment, the two
    rows the end slopes fix, and Hairer's four rows d."""
    b, unit = np.append(_B8, np.zeros(4)), np.eye(16)
    return np.vstack([b, unit[0] - b, 2 * b - unit[0] - unit[12], d])


_DOP853 = _Tableau(
    c=(0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
       0.2816496580927726, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0,
       1.0, 0.1, 0.2, 7 / 9),
    a=(None,
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
                 -0.0013990241651590145, 2.9475147891527724, -9.15095847217987])),
    b=_B8,
    # b minus the embedded 5th-order weights, and b minus the 3rd-order ones
    e=np.array([
        [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
         -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
         0.3341791187130175, 0.08192320648511571, -0.022355307863886294],
        _B8 - _B3]),
    p=_dop853_dense([
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
         -39.17726167561544, -149.72683625798564]]))

_TABLEAUS = {"dop853": _DOP853, "rk4": _RK4}


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


def _schedule_fn(schedule: Schedule):
    """Per-float evaluator t -> opponent weights; wraps back to the first row."""
    period = schedule.period
    times = schedule.times.tolist()
    rows = schedule.values.tolist()
    last = len(times) - 1

    def at(t):
        tau = t - period * math.floor(t / period)
        if tau >= period:
            tau = 0.0
        k = bisect.bisect_right(times, tau, 1) - 1
        t0 = times[k]
        t1 = period if k == last else times[k + 1]
        w = (tau - t0) / (t1 - t0) if t1 > t0 else 0.0
        return [a + w * (b - a) for a, b in zip(rows[k], rows[0 if k == last else k + 1])]

    return at


def _script_piece(schedule: Schedule, t):
    """(cycles, k, w) for the array of times t: whole periods before each
    time, the index of its script piece and the fraction of that piece
    behind it, computed as the stepper's per-float evaluator computes them
    (a time that rounds onto the period's end starts the next period)."""
    period, starts = schedule.period, schedule.times
    cycles = np.floor(t / period)
    tau = t - period * cycles
    wrap = tau >= period
    cycles, tau = cycles + wrap, np.where(wrap, 0.0, tau)
    k = np.maximum(np.searchsorted(starts, tau, side="right"), 1) - 1
    ends = np.append(starts[1:], period)
    return cycles, k, (tau - starts[k]) / (ends[k] - starts[k])


def eval_schedule(schedule: Schedule, t) -> np.ndarray:
    """Opponent weights at time t, or one row per entry of an array of times.

    The arithmetic is that of the stepper's per-float evaluator, so the two
    agree bit for bit."""
    _, k, w = _script_piece(schedule, np.asarray(t, dtype=float))
    rows = schedule.values
    return rows[k] + w[..., None] * (np.roll(rows, -1, axis=0) - rows)[k]


@dataclass(frozen=True)
class GrowthRule:
    """Link plus optional speed factor; link None means plain replicator."""

    link: LinkFunction | None = None
    speed: float | LinkFunction | None = None

    def __post_init__(self):
        if isinstance(self.speed, (int, float)):
            s = float(self.speed)
            if not (math.isfinite(s) and s > 0):
                raise ValueError(f"constant speed must be positive, got {self.speed!r}")
            object.__setattr__(self, "speed", s)
        elif self.speed is not None and not isinstance(self.speed, LinkFunction):
            raise TypeError("speed must be None, a positive number, or a link over mean payoff")

    @property
    def effective_link(self) -> LinkFunction:
        return self.link if self.link is not None else _REPLICATOR

    @property
    def label(self) -> str:
        base = ("replicator" if self.link is None
                else f"payoff-functional({self.link.family})")
        if self.speed is None:
            return base
        factor = self.speed if isinstance(self.speed, float) else self.speed.family
        return f"{base}*speed({factor})"


@dataclass(frozen=True)
class Coupled:
    """Second population with its own game (payoffs against population one)."""

    game: Game
    rule: GrowthRule
    y0: np.ndarray


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


def vector_field(rule: GrowthRule, game: Game, x, y=None) -> np.ndarray:
    """Reference right-hand side in frequency space (not used by the integrator)."""
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    f = rule.effective_link
    u = game.payoff @ y
    g = np.array([eval_link(f, ui) if xi > 0 else 0.0 for ui, xi in zip(u, x)])
    gbar = float(x @ g)
    lam = 1.0
    if isinstance(rule.speed, float):
        lam = rule.speed
    elif isinstance(rule.speed, LinkFunction):
        lam = eval_link(rule.speed, float(x @ u))
        if lam <= 0:
            raise IntegrationError(f"speed factor {lam:g} is not positive")
    return lam * x * (g - gbar)


def _log_state(x0, n, what) -> np.ndarray:
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{what} must have length {n}, got shape {x.shape}")
    validate_simplex(x, what=what)
    with np.errstate(divide="ignore"):
        z = np.log(np.maximum(x, 0.0))
    return z


def _segments(t_max: float, dt: float, schedule: Schedule | None):
    """Segment bounds cut at every schedule breakpoint inside the horizon."""
    cuts = []
    if schedule is not None:
        P = schedule.period
        marks = list(schedule.times[1:]) + [P]
        k = 0
        while k * P < t_max:
            for tb in ([0.0] if k else []) + marks:
                e = k * P + tb
                if 0.0 < e < t_max:
                    cuts.append(e)
            k += 1
    tol = 1e-12 * max(1.0, t_max)
    bounds = [0.0]
    for e in sorted(cuts):
        if e - bounds[-1] > tol and t_max - e > tol:
            bounds.append(e)
    bounds.append(t_max)
    bounds = np.array(bounds)
    steps = np.maximum(1, np.ceil(np.diff(bounds) / dt - 1e-9).astype(np.int64))
    return bounds, steps


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


def _setup(rule: GrowthRule, game: Game, x0, opponent, opp_speed_error: str):
    """Validate the opponent and build the populations.

    Returns (populations, plays, label): plays maps the time and the
    populations' frequencies to what each population plays against (a
    script plays one row, whatever the number of runs).
    """
    n, m = game.n_rows, game.n_cols
    z = _log_state(x0, n, "initial state")
    if isinstance(opponent, Coupled):
        if opponent.game.n_rows != m or opponent.game.n_cols != n:
            raise ValueError(
                f"coupled game must be {m}x{n} (opponent strategies x ours), "
                f"got {opponent.game.n_rows}x{opponent.game.n_cols}")
        z2 = _log_state(opponent.y0, m, "coupled initial state")
        if isinstance(rule.speed, LinkFunction):
            raise ValueError("payoff-dependent speed is not supported with a coupled opponent")
        if opponent.rule.speed is not None:
            raise ValueError(opp_speed_error)
        pops = [_Population(z, game.payoff, np.flatnonzero(z2 > -np.inf),
                            rule.effective_link, "population 1 strategy {}"),
                _Population(z2, opponent.game.payoff, np.flatnonzero(z > -np.inf),
                            opponent.rule.effective_link, "population 2 strategy {}")]
        return pops, lambda t, xs: xs[::-1], "coupled"
    if isinstance(opponent, Schedule):
        if opponent.n_strategies != m:
            raise ValueError(
                f"schedule rows have {opponent.n_strategies} entries, game has {m} columns")
        script = _schedule_fn(opponent)
        pop = _Population(z, game.payoff, np.arange(m), rule.effective_link, "strategy {}")
        return [pop], lambda t, xs: [[script(t)]], "scripted"
    if opponent is not None:
        raise TypeError(f"unsupported opponent {opponent!r}")
    if n != m:
        raise ValueError(f"self-play needs a square game, got {n}x{m}")
    pop = _Population(z, game.payoff, np.flatnonzero(z > -np.inf),
                      rule.effective_link, "strategy {}")
    return [pop], lambda t, xs: xs, "self"


def _trajectory(pops, opponent, times, samples, meta) -> Trajectory:
    """Trajectory from the sample times and, per population, its support
    logs at each sample."""
    times = np.asarray(times, dtype=float)
    logs = [pop.log_states(s) for pop, s in zip(pops, samples)]
    if len(pops) == 2:
        return Trajectory(times, logs[0], np.exp(logs[1]), logs[1], meta)
    opp = eval_schedule(opponent, times) if isinstance(opponent, Schedule) else None
    return Trajectory(times, logs[0], opp, None, meta)


def _check_sample_every(sample_every) -> None:
    if not isinstance(sample_every, numbers.Integral):
        raise ValueError(f"sample_every must be an integer, got {sample_every!r}")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")


def _sample_counts(total: int, sample_every: int) -> np.ndarray:
    """Step counts at the samples: the start, every sample_every-th step,
    and the last step."""
    counts = np.arange(0, total + 1, sample_every)
    return counts if counts[-1] == total else np.append(counts, total)


def _grid_times(bounds, steps, counts) -> np.ndarray:
    """Times of the fixed-step grid after each of counts (each at least 1)
    steps; a segment's last step ends exactly on its bound."""
    ends = np.cumsum(steps)
    seg = np.searchsorted(ends, counts - 1, side="right")
    k = counts - 1 - (ends[seg] - steps[seg])
    a, b = bounds[:-1][seg], bounds[1:][seg]
    return np.where(k == steps[seg] - 1, b, a + (k + 1) * ((b - a) / steps[seg]))


def _normalize(z, slices):
    """z with each population's logs shifted onto the simplex, in place."""
    for sl in slices:
        w = z[..., sl]
        top = w.max(axis=-1, keepdims=True)
        w -= top + np.log(np.exp(w - top).sum(axis=-1, keepdims=True))
    return z


def _log_field(pops, plays, speed):
    """Right-hand side over a (B, N) log-state: the populations' support logs
    side by side, one row per run.

    field(t, z, t0, step) fails with an IntegrationError that reports t0,
    the start of the step being taken, and the step count: on a payoff
    outside a link's domain (first run, then strategy) or a speed factor
    that is not positive. Payoffs against mixtures, and mean payoffs, stay
    within the hull of the rows (a script's rows sum to one within 1e-12,
    inside the links' domain pad), so a link's values are scanned for nan
    only where hull_inside fails. Returns (field, slices of the populations).
    """
    ends = np.cumsum([len(pop.z) for pop in pops])
    slices = [slice(int(e) - len(pop.z), int(e)) for pop, e in zip(pops, ends)]
    mats = [pop.payoffs.T for pop in pops]
    links = [array_link(pop.f, pop.hull) for pop in pops]
    checked = [not hull_inside(pop.f, pop.hull) for pop in pops]
    speed_link = array_link(speed, pops[0].hull) if isinstance(speed, LinkFunction) else None
    lam0 = speed if isinstance(speed, float) else None
    add, top = np.add.reduce, np.maximum.reduce

    def field(t, z, t0, step):
        xs = []
        for sl in slices:
            w = z[:, sl]
            e = np.exp(w - top(w, axis=1, keepdims=True))
            xs.append(e / add(e, axis=1, keepdims=True))
        parts, pays = [], []
        for pop, x, y, mat, f, check in zip(pops, xs, plays(t, xs), mats, links, checked):
            u = np.dot(y, mat)
            g = f(u)
            gbar = add(x * g, axis=1, keepdims=True)
            if check and np.isnan(gbar).any():
                b, i = np.argwhere(np.isnan(g))[0]
                raise pop.domain_error(int(i), t0, step, member=int(b))
            parts.append(g - gbar)
            pays.append(u)
        d = parts[0] if len(parts) == 1 else np.hstack(parts)
        if speed_link is not None:
            lam = speed_link(add(xs[0] * pays[0], axis=1))
            bad = ~((lam > 0.0) & (lam < math.inf))
            if bad.any():
                raise IntegrationError(
                    f"speed factor not positive (or outside its table) near t={t0:g}",
                    t=t0, step=step, member=int(np.argmax(bad)))
            return d * lam[:, None]
        return d if lam0 is None else d * lam0

    return field, slices


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
    return h * float((sq[0] / np.sqrt(np.where(den > 0.0, den, 1.0))).max())


def _solve(tab: _Tableau, field, slices, z0, bounds, steps, t_samples):
    """Explicit Runge-Kutta over a (B, N) log-state, segment by segment.

    Without error weights the tableau takes steps[k] equal steps over
    segment k; with them it takes adaptive steps, shared by the runs and
    clipped to the segment's end, and evaluates the first-same-as-last stage
    on each accepted step. After each accepted step every population's logs
    are renormalized, and a sum of frequencies that is not positive and
    finite stops the run. t_samples[0] takes z0; every later sample time is
    a step's end or falls inside a step and is read off the dense output,
    whose extra stages are evaluated only on such steps. Returns (logs at
    the samples, run stats with max_drift).
    """
    adaptive = tab.e is not None
    n_stages = len(tab.b)
    B, N = z0.shape
    K = np.empty((len(tab.c), B, N))
    flat = K.reshape(len(K), B * N)
    out = np.empty((len(t_samples), B, N))
    out[0] = z0
    z = z0.copy()
    stats = {"steps": 0, "rejected": 0, "rhs_evals": 0, "h_min": math.inf, "h_max": 0.0,
             "max_drift": 0.0}
    nxt = 1

    def rhs(t, state, t0):
        stats["rhs_evals"] += 1
        return field(t, state, t0, stats["steps"])

    def stages(t, h, lo, hi):
        """Fills stages lo..hi-1 of the step from (t, z) of size h."""
        for i in range(lo, hi):
            K[i] = rhs(t + tab.c[i] * h, z + h * (tab.a[i] @ flat[:i]).reshape(B, N), t)

    def attempt(t, h):
        """Fills the stages after the first; returns the new state."""
        stages(t, h, 1, n_stages)
        return z + h * (tab.b @ flat[:n_stages]).reshape(B, N)

    def accept(t, t_new, h, z_new):
        nonlocal z, nxt
        for sl in slices:
            total = np.add.reduce(np.exp(z_new[:, sl]), axis=1)
            if not (total.min() > 0.0 and total.max() < math.inf):
                bad = ~((total > 0.0) & (total < math.inf))
                raise IntegrationError(f"state became non-finite near t={t:g}", t=t,
                                       step=stats["steps"], member=int(np.argmax(bad)))
            z_new[:, sl] -= np.log(total)[:, None]
            stats["max_drift"] = max(stats["max_drift"], float(np.abs(total - 1.0).max()))
        if adaptive:
            K[n_stages] = rhs(t_new, z_new, t)
        last = int(np.searchsorted(t_samples, t_new, side="right"))
        if last > nxt:
            ts = t_samples[nxt:last]
            inside = int(np.searchsorted(ts, t_new))
            if inside:
                stages(t, h, n_stages + 1, len(tab.c))
                w = _dense_basis((ts[:inside] - t) / h) @ tab.p
                out[nxt:nxt + inside] = _normalize(
                    z + h * (w @ flat).reshape(inside, B, N), slices)
            out[nxt + inside:last] = z_new
            nxt = last
        z = z_new
        stats["steps"] += 1
        stats["h_min"] = min(stats["h_min"], h)
        stats["h_max"] = max(stats["h_max"], h)

    if not adaptive:
        for a, b, ns in zip(bounds[:-1].tolist(), bounds[1:].tolist(), steps.tolist()):
            h = (b - a) / ns
            for k in range(ns):
                t = a + k * h
                K[0] = rhs(t, z, t)
                accept(t, b if k == ns - 1 else a + (k + 1) * h, h, attempt(t, h))
        return out, stats

    t = float(bounds[0])
    K[0] = rhs(t, z, t)
    h = _initial_step(rhs, t, z, K[0], float(bounds[-1] - bounds[0]))
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
            z_new = attempt(t, h)
            scale = ATOL + RTOL * np.maximum(np.abs(z), np.abs(z_new))
            err = _error_norm((tab.e @ flat[:n_stages]).reshape(2, B, N) / scale, h)
            # an error that is not finite (a step out of the finite states)
            # shrinks the step the most
            fac = (min(_FAC_MAX, max(_FAC_MIN, _SAFETY * max(err, 1e-30) ** -0.125))
                   if err < math.inf else _FAC_MIN)
            if not err <= 1.0:
                stats["rejected"] += 1
                rejected = True
                h *= fac
                continue
            accept(t, t_new, h, z_new)
            K[0] = K[n_stages]
            t = t_new
            h = max(h * (min(fac, 1.0) if rejected else fac), h_free if t == b else 0.0)
            rejected = False
    return out, stats


def _initial_step(rhs, t, z, f0, span: float) -> float:
    """First step size from the scaled sizes of the state, its derivative and
    its change over a trial Euler step, for an order-8 scheme (Hairer,
    Norsett & Wanner, II.4)."""
    scale = ATOL + RTOL * np.abs(z)
    d0, d1 = _rms(z / scale), _rms(f0 / scale)
    h0 = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h0 = min(h0, span)
    d2 = _rms((rhs(t + h0, z + h0 * f0, t) - f0) / scale) / h0
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


def _exact_flow(pop, schedule: Schedule, lam: float, t_max: float, times):
    """The run against a script at constant speed lam, integrated exactly at
    the sample times (see the module docstring), the link taken at the
    argument clamped to its domain as array_link takes it. A payoff leaving
    the padded domain before t_max fails where it crosses the edge, earliest
    crossing then lowest strategy first. Returns ([logs at each sample], max
    drift over the normalized samples, rows of the link or F evaluated)."""
    f, starts, n = pop.f, schedule.times, len(pop.z)
    lengths = np.append(starts[1:], schedule.period) - starts
    ua = schedule.values @ pop.payoffs.T
    ub = np.roll(ua, -1, axis=0)
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
    z, drift = _fold(pop.z, areas[:len(starts)], cycles, k, areas[len(starts):], lam)
    return [z], drift, 4 * len(ua) + 8 * int(rows.sum())


def _fold(z0, rows, cycles, k, partial=0.0, lam=1.0):
    """Logs at samples that lie cycles whole periods, k increment rows and
    partial past z0 (one entry per sample, the first sample z0 itself):
    z0 + lam (cycles S + prefix[k] + partial), with prefix the prefix sums of
    one period's mean-free increment rows and S their sum. Each sample's
    largest log comes off before the log of the sum, so the samples are
    normalized to rounding. Returns (logs, max |sum x - 1| over the samples
    after the first)."""
    prefix = np.cumsum(np.vstack([np.zeros(len(z0)), rows]), axis=0)
    z = np.asarray(z0) + lam * (cycles[:, None] * prefix[-1] + prefix[k] + partial)
    z[1:] -= z[1:].max(axis=1, keepdims=True)
    z[0] = z0
    _normalize(z[1:], [slice(None)])
    return z, float(np.abs(np.exp(z[1:]).sum(axis=1) - 1.0).max())


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
              sample_every: int = 100, method: str = "dop853") -> Trajectory:
    """Run the flow from x0 for t_max time units.

    opponent None plays the population against itself (square game);
    a Schedule scripts the column player; a Coupled instance evolves a second
    population by its own rule. In self-play x0 may be a (B, n) array of
    starts sharing one support: the B runs go in one call, log_states has
    shape (samples, B, n) and meta["members"] is B.

    dt sets the sample grid: the fixed-step grid of dt cut at the script's
    breakpoints, sampled at the start, every sample_every-th grid step and
    the end; sample_every must be a positive integer. method "dop853" (the
    default), the 8th-order Dormand-Prince pair, steps adaptively under
    error control at RTOL = ATOL = 1e-10 and reads the samples off its
    7th-order dense output; method "rk4" takes the grid's steps themselves
    with classic RK4, the reference the tests pin. With the default method,
    a scripted run whose speed is None or a number takes no steps: it is
    integrated exactly (_exact_flow, method "exact"), whatever dt; "rk4"
    steps it like any run.
    The exact path costs O(pieces + samples) plus the breakpoint grid, which
    _segments builds in a Python loop over every period up to t_max; at long
    horizons that loop is nearly the whole run (see the module docstring).

    meta records the method, accepted and rejected steps ("steps",
    "rejected"), right-hand-side evaluations ("rhs_evals"; on the exact
    path, the rows of the link or its antiderivative evaluated), the
    smallest and largest step, rtol (None without error control; all three
    None on the exact path) and "max_drift": the largest |sum x - 1| before
    a step's renormalization on the steppers, over the normalized samples
    on the exact path.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    _check_sample_every(sample_every)
    if method not in _TABLEAUS:
        raise ValueError(f"method must be 'dop853' or 'rk4', got {method!r}")
    x0 = np.asarray(x0, dtype=float)
    batch = x0.ndim == 2
    if batch:
        if opponent is not None:
            raise ValueError("a batch of initial states needs self-play (no opponent)")
        z0 = _batch_logs(x0, game.n_rows)
    pops, plays, label = _setup(
        rule, game, x0[0] if batch else x0, opponent,
        "speed belongs to the first population's rule in coupled runs")
    scripted = label == "scripted"
    bounds, steps = _segments(t_max, dt, opponent if scripted else None)
    counts = _sample_counts(int(steps.sum()), sample_every)
    times = np.append(bounds[0], _grid_times(bounds, steps, counts[1:]))
    if scripted and method == "dop853" and not isinstance(rule.speed, LinkFunction):
        with np.errstate(divide="ignore", invalid="ignore"):  # masked by np.where
            samples, max_drift, evals = _exact_flow(pops[0], opponent, rule.speed or 1.0,
                                                    t_max, times)
        stats = {"method": "exact", "steps": 0, "rejected": 0, "rhs_evals": evals,
                 "h_min": None, "h_max": None, "rtol": None}
    else:
        z = z0[:, pops[0].support] if batch else np.array([sum((p.z for p in pops), [])])
        field, slices = _log_field(pops, plays, rule.speed)
        with np.errstate(over="ignore"):
            out, stats = _solve(_TABLEAUS[method], field, slices, z, bounds, steps, times)
        max_drift = stats.pop("max_drift")
        samples = [(out if batch else out[:, 0])[..., sl] for sl in slices]
        stats.update(method=method, rtol=RTOL if _TABLEAUS[method].e is not None else None)
    meta = {"dynamics": "continuous", **stats, "members": len(z0) if batch else 1,
            "dt": dt, "t_max": t_max, "max_drift": max_drift,
            "sample_every": sample_every, "opponent": label,
            "rule": rule.label, "game": game.digest()}
    return _trajectory(pops, opponent, times, samples, meta)


def mean_payoff(game: Game, x, y=None) -> float:
    """Population-average payoff, against itself unless y is given."""
    x = np.asarray(x, dtype=float)
    return payoff_mixed(game, x, x if y is None else y)


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
        fh.writelines(line % tuple(row) for row in data.tolist())

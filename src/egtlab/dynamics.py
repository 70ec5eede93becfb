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

- method="dp5", the default: Dormand-Prince 5(4) (Dormand & Prince 1980)
  with PI step control at RTOL = ATOL = 1e-10. Each run has its own RMS
  error norm and the worst run sets the shared step. Samples come from the
  scheme's 4th-order dense output at the times of the fixed-step grid that
  dt and sample_every define, so dt sets the sample grid, not the step.
- method="rk4": the classic fourth-order scheme at fixed steps dt on that
  same grid, kept as the tests' reference.

Steps never cross a bound of _segments (the opponent script's breakpoints),
so a kink of the script never falls inside a step. Logs are renormalized
after every accepted step and the largest pre-renormalization drift is kept
in the meta.

Against a scripted opponent with no payoff-dependent speed, every growth
rate is a function of time alone, and the mean growth gbar is a shift common
to all coordinates that renormalization removes. One RK4 step then adds
Simpson's rule, h/6 * lam * (g(t0) + 4 g(t0 + h/2) + g(t0 + h)), up to that
shift. _scripted_flow sums these increments on the dt grid with NumPy in
blocks of _BLOCK steps and normalizes at the samples only; the results agree
with the RK4 stepper's to rounding (about 1e-13 in the logs).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .games import Game, payoff_mixed, validate_simplex
from .links import LinkFunction, array_link, eval_link, linear_link, scalar_link

_REPLICATOR = linear_link(1.0, 0.0)
# Steps per block of the closed-form scripted paths: enough to amortise the
# NumPy calls, small enough that a block's arrays stay well under a megabyte.
_BLOCK = 4096

# Relative and absolute tolerance of the adaptive stepper, per run and log
# coordinate. At 1e-8 the conserved quantity of a zero-sum coupled replicator
# pair (3 vs 4 strategies, ten time units) drifted by 1.8e-8. At 1e-10 the
# sample logs of the 4x4 constructions over t = 200 stay within 1.2e-8
# (hw-4x4, whose saddle loop amplifies errors) and 1.4e-9 (dual-4x4),
# relative, of SciPy's DOP853 at rtol 1e-12.
RTOL = ATOL = 1e-10
# PI step control (Hairer, Norsett & Wanner, Solving ODEs I, II.4; Gustafsson's
# exponents 0.7/5 and 0.4/5 for a 5(4) pair)
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 10.0
_ALPHA, _BETA = 0.14, 0.08


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
    entries) and weights b. An adaptive pair adds error weights e and a
    dense-output matrix p (coefficients of theta, ..., theta^4 per stage);
    both run over the stages plus the first-same-as-last stage, which is
    the right-hand side at the step's end."""

    c: tuple
    a: tuple
    b: np.ndarray
    e: np.ndarray | None = None
    p: np.ndarray | None = None


_RK4 = _Tableau(c=(0.0, 0.5, 0.5, 1.0),
                a=(None, np.array([0.5]), np.array([0.0, 0.5]), np.array([0.0, 0.0, 1.0])),
                b=np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6]))

# Dormand & Prince (1980); dense output of Shampine (1986), as in
# Hairer, Norsett & Wanner, Solving ODEs I, II.6
_DP5 = _Tableau(
    c=(0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0),
    a=(None,
       np.array([1 / 5]),
       np.array([3 / 40, 9 / 40]),
       np.array([44 / 45, -56 / 15, 32 / 9]),
       np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
       np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656])),
    b=np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
    # b minus the embedded 4th-order weights
    e=np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
                -1 / 40]),
    p=np.array([
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
         -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
         87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
         -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
         701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]]))

_TABLEAUS = {"dp5": _DP5, "rk4": _RK4}


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


def eval_schedule(schedule: Schedule, t) -> np.ndarray:
    """Opponent weights at time t, or one row per entry of an array of times.

    The arithmetic is that of the stepper's per-float evaluator, so the two
    agree bit for bit."""
    t = np.asarray(t, dtype=float)
    period, times, rows = schedule.period, schedule.times, schedule.values
    tau = t - period * np.floor(t / period)
    tau = np.where(tau >= period, 0.0, tau)
    k = np.maximum(np.searchsorted(times, tau, side="right"), 1) - 1
    ends = np.append(times[1:], period)
    w = (tau - times[k]) / (ends[k] - times[k])
    rise = np.roll(rows, -1, axis=0) - rows
    return rows[k] + w[..., None] * rise[k]


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
    support, sliced to the opponent columns they can meet (rows: the same as
    lists, for the float map); coordinates off the support stay exactly at
    -inf and are never evaluated. f is the link, link its float evaluator.
    """

    def __init__(self, z, payoff, cols, link: LinkFunction, where: str):
        self.n = z.size
        self.support = np.flatnonzero(z > -np.inf)
        self.z = z[self.support].tolist()
        self.payoffs = payoff[np.ix_(self.support, cols)]
        self.rows = self.payoffs.tolist()
        self.f = link
        self.link = scalar_link(link)
        self.where = where

    def name(self, k: int) -> str:
        return self.where.format(int(self.support[k]))

    def domain_error(self, k: int, t: float, step: int, member=None) -> IntegrationError:
        return IntegrationError(
            f"payoff left the link domain near t={t:g} ({self.name(k)})", t=t, step=step,
            member=member)

    def growth(self, x, y, t, step):
        """Payoffs against y, growth rates, and their mean under x."""
        u = [sum(map(mul, row, y)) for row in self.rows]
        g = list(map(self.link, u))
        gbar = sum(map(mul, x, g))
        if gbar != gbar:
            raise self.domain_error(next(k for k, gk in enumerate(g) if gk != gk), t, step)
        return u, g, gbar

    def log_states(self, samples) -> np.ndarray:
        """Full log-states from support logs, one row per sample (and run)."""
        samples = np.asarray(samples, dtype=float)
        out = np.full(samples.shape[:-1] + (self.n,), -np.inf)
        out[..., self.support] = samples
        return out


def _softmax(z):
    m = max(z)
    e = [math.exp(zi - m) for zi in z]
    s = sum(e)
    return [ei / s for ei in e]


def _renorm(z, t, step):
    """Project logs back onto the simplex; returns them with the mass drift."""
    try:
        s = sum(map(math.exp, z))
    except OverflowError:
        s = math.inf
    if not 0.0 < s < math.inf:
        raise IntegrationError(f"state became non-finite near t={t:g}", t=t, step=step)
    c = math.log(s)
    return [zi - c for zi in z], abs(s - 1.0)


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


def _script_payoffs(rows, schedule: Schedule, t) -> np.ndarray:
    """Payoffs of the payoff rows against the script at each time in t, one
    row per time; summed column by column in the order the stepper sums."""
    y = eval_schedule(schedule, t)
    u = y[:, :1] * rows[:, 0]
    for j in range(1, rows.shape[1]):
        u += y[:, j:j + 1] * rows[:, j]
    return u


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


def _accumulate(z0, total: int, sample_every: int, increments):
    """Running sums of per-step log increments, kept at the sample steps.

    increments(lo, hi) returns the increments of steps lo..hi-1, one row per
    step, and raises where a step fails. Each step's mean over the support
    is taken off before it is added: it plays the part of the stepper's mean
    growth and keeps the sums as small as the logs. Steps go in blocks of
    _BLOCK, so memory does not grow with the horizon. Samples land at the
    start, every sample_every-th step, and the last step; all but the first
    are normalized onto the simplex. Returns (sample step counts, logs at
    each sample, largest |sum x - 1| over the normalized samples).
    """
    counts = _sample_counts(total, sample_every)
    run = np.asarray(z0, dtype=float)
    kept = []
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        d = increments(lo, hi)
        d -= d.mean(axis=1, keepdims=True)
        d[0] += run
        np.cumsum(d, axis=0, out=d)
        kept.append(d[counts[np.searchsorted(counts, lo, side="right"):
                             np.searchsorted(counts, hi, side="right")] - lo - 1])
        run = d[-1]
    z = _normalize(np.concatenate(kept), [slice(None)])
    drift = float(np.abs(np.exp(z).sum(axis=1) - 1.0).max())
    return counts, np.vstack([z0, z]), drift


def _log_field(pops, plays, speed):
    """Right-hand side over a (B, N) log-state: the populations' support logs
    side by side, one row per run.

    field(t, z, t0, step) fails with an IntegrationError that reports t0,
    the start of the step being taken, and the step count: on a payoff
    outside a link's domain (first run, then strategy) or a speed factor
    that is not positive. Payoffs against mixtures, and mean payoffs, stay
    between the smallest and largest payoff of the rows (a script's rows sum
    to one within 1e-12, inside the links' domain pad), so the links are
    checked per call only where that range leaves their domain. Returns
    (field, slices of the populations).
    """
    ends = np.cumsum([len(pop.z) for pop in pops])
    slices = [slice(int(e) - len(pop.z), int(e)) for pop, e in zip(pops, ends)]
    mats = [pop.payoffs.T for pop in pops]
    hulls = [(float(pop.payoffs.min()), float(pop.payoffs.max())) for pop in pops]
    links = [array_link(pop.f, hull) for pop, hull in zip(pops, hulls)]
    speed_link = array_link(speed, hulls[0]) if isinstance(speed, LinkFunction) else None
    lam0 = speed if isinstance(speed, float) else None
    add, top = np.add.reduce, np.maximum.reduce

    def field(t, z, t0, step):
        xs = []
        for sl in slices:
            w = z[:, sl]
            e = np.exp(w - top(w, axis=1, keepdims=True))
            xs.append(e / add(e, axis=1, keepdims=True))
        parts, pays = [], []
        for pop, x, y, mat, f in zip(pops, xs, plays(t, xs), mats, links):
            u = np.dot(y, mat)
            g = f(u)
            gbar = add(x * g, axis=1, keepdims=True)
            if np.isnan(gbar).any():
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


def _solve(tab: _Tableau, field, slices, z0, bounds, steps, t_samples):
    """Explicit Runge-Kutta over a (B, N) log-state, segment by segment.

    Without error weights the tableau takes steps[k] equal steps over
    segment k; with them it takes adaptive steps under PI control, shared
    by the runs and clipped to the segment's end, and carries the
    first-same-as-last stage over. After each accepted step every
    population's logs are renormalized, and a sum of frequencies that is not
    positive and finite stops the run. t_samples[0] takes z0; every later
    sample time is a step's end or falls inside a step and is read off the
    dense output. Returns (logs at the samples, run stats with max_drift).
    """
    adaptive = tab.e is not None
    n_stages = len(tab.c)
    B, N = z0.shape
    K = np.empty((n_stages + adaptive, B, N))
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

    def attempt(t, h):
        """Fills the stages after the first; returns the new state."""
        for i in range(1, n_stages):
            K[i] = rhs(t + tab.c[i] * h, z + h * (tab.a[i] @ flat[:i]).reshape(B, N), t)
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
        last = int(np.searchsorted(t_samples, t_new, side="right"))
        if last > nxt:
            ts = t_samples[nxt:last]
            inside = int(np.searchsorted(ts, t_new))
            if inside:
                theta = (ts[:inside] - t) / h
                w = (theta[:, None] ** np.arange(1, 5)) @ tab.p.T
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
    err_prev = 1e-4
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
            K[n_stages] = rhs(t_new, z_new, t)
            scale = ATOL + RTOL * np.maximum(np.abs(z), np.abs(z_new))
            err = _rms(h * (tab.e @ flat).reshape(B, N) / scale)
            if not err <= 1.0:
                stats["rejected"] += 1
                rejected = True
                h *= max(_FAC_MIN, _SAFETY * err ** -0.2) if err < math.inf else _FAC_MIN
                continue
            accept(t, t_new, h, z_new)
            K[0] = K[n_stages]
            t = t_new
            fac = (_FAC_MAX if err == 0.0
                   else _SAFETY * err ** -_ALPHA * err_prev ** _BETA)
            h = max(h * min(1.0 if rejected else _FAC_MAX, max(_FAC_MIN, fac)),
                    h_free if t == b else 0.0)
            err_prev, rejected = max(err, 1e-4), False
    return out, stats


def _initial_step(rhs, t, z, f0, span: float) -> float:
    """First step size from the scaled sizes of the state, its derivative and
    its change over a trial Euler step (Hairer, Norsett & Wanner, II.4)."""
    scale = ATOL + RTOL * np.abs(z)
    d0, d1 = _rms(z / scale), _rms(f0 / scale)
    h0 = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h0 = min(h0, span)
    d2 = _rms((rhs(t + h0, z + h0 * f0, t) - f0) / scale) / h0
    top = max(d1, d2)
    h1 = (0.01 / top) ** 0.2 if top > 1e-15 else max(1e-6, 1e-3 * h0)
    return min(100.0 * h0, h1, span)


def _scripted_flow(pop, schedule: Schedule, speed: float | None, bounds, steps,
                   sample_every: int):
    """The RK4 run against a script with a state-free speed, in closed form
    (see the module docstring) on the same steps and samples.

    A payoff outside the link domain fails at the first step, then stage
    (t0, midpoint, end), then strategy where it happens, as on the stepper.
    Logs are exponentiated only after normalization, so a step too large for
    exp, which stops the stepper as "state became non-finite", does not stop
    this. Returns ([logs at each sample], max drift).
    """
    lam = speed if speed is not None else 1.0
    f = array_link(pop.f)
    a, b = bounds[:-1], bounds[1:]
    h = (b - a) / steps
    ends = np.cumsum(steps)

    def increments(lo, hi):
        j = np.arange(lo, hi)
        seg = np.searchsorted(ends, j, side="right")
        hs = h[seg]
        t0 = a[seg] + (j - (ends[seg] - steps[seg])) * hs
        stages = np.stack([t0, t0 + 0.5 * hs, t0 + hs], axis=1)
        g = f(_script_payoffs(pop.payoffs, schedule, stages.ravel())).reshape(hi - lo, 3, -1)
        bad = np.isnan(g)
        if bad.any():
            j, _, i = np.unravel_index(np.argmax(bad), bad.shape)
            raise pop.domain_error(int(i), float(t0[j]), lo + int(j), member=0)
        return (lam / 6.0 * hs)[:, None] * (g[:, 0] + 4.0 * g[:, 1] + g[:, 2])

    _, samples, max_drift = _accumulate(pop.z, int(ends[-1]), sample_every, increments)
    return [samples], max_drift


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
              sample_every: int = 100, method: str = "dp5") -> Trajectory:
    """Run the flow from x0 for t_max time units.

    opponent None plays the population against itself (square game);
    a Schedule scripts the column player; a Coupled instance evolves a second
    population by its own rule. In self-play x0 may be a (B, n) array of
    starts sharing one support: the B runs go in one call, log_states has
    shape (samples, B, n) and meta["members"] is B.

    dt sets the sample grid: the fixed-step grid of dt cut at the script's
    breakpoints, sampled at the start, every sample_every-th grid step and
    the end. method "dp5" (the default) steps adaptively under error control
    at RTOL = ATOL = 1e-10 and reads the samples off its dense output;
    method "rk4" takes the grid's steps themselves with classic RK4, the
    reference the tests pin. A scripted run whose speed is None or a number
    takes neither: it is the RK4 grid summed in closed form
    (_scripted_flow, method "simpson"), agreeing with the RK4 stepper to
    rounding.

    meta records the method, accepted and rejected steps ("steps",
    "rejected"), right-hand-side evaluations ("rhs_evals"), the smallest and
    largest step, rtol (None without error control) and "max_drift": the
    largest |sum x - 1| before a step's renormalization on the steppers,
    over the normalized samples in closed form.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    if method not in _TABLEAUS:
        raise ValueError(f"method must be 'dp5' or 'rk4', got {method!r}")
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
    if scripted and not isinstance(rule.speed, LinkFunction):
        samples, max_drift = _scripted_flow(pops[0], opponent, rule.speed, bounds, steps,
                                            sample_every)
        h = (bounds[1:] - bounds[:-1]) / steps
        stats = {"method": "simpson", "steps": int(steps.sum()), "rejected": 0,
                 "rhs_evals": 3 * int(steps.sum()), "h_min": float(h.min()),
                 "h_max": float(h.max()), "rtol": None}
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
    n = traj.log_states.shape[1]
    cols = ["t"] + [f"x{i + 1}" for i in range(n)]
    blocks = [traj.times[:, None], traj.states]
    if traj.opp_states is not None:
        cols += [f"y{j + 1}" for j in range(traj.opp_states.shape[1])]
        blocks.append(traj.opp_states)
    for name, series in (extras or {}).items():
        cols.append(name)
        blocks.append(np.asarray(series, dtype=float)[:, None])
    data = np.hstack(blocks)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

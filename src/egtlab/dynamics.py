"""Continuous-time selection dynamics driven by a link function.

The flow is x_i' = lam * x_i * (g_i - gbar) with g_i the link applied to the
expected payoff of strategy i and gbar the population mean growth rate. With
a linear link and unit speed this is the classical replicator flow.

Integration runs in log coordinates z_i = ln x_i with a fixed-step RK4
scheme on plain Python floats, over one population (playing itself or a
scripted opponent) or a coupled pair. Each population is restricted to its
support when the run starts, so support faces are exactly invariant and
frequencies near machine zero remain resolved. Logs are renormalized after
every step and the largest pre-renormalization drift is kept in the meta.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .games import Game, payoff_mixed, validate_simplex
from .links import LinkFunction, eval_link, linear_link, scalar_link

_REPLICATOR = linear_link(1.0, 0.0)


class IntegrationError(RuntimeError):
    """The flow could not be continued; carries the failing time and step."""

    def __init__(self, message, t=None, step=None):
        super().__init__(message)
        self.t = t
        self.step = step


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


def eval_schedule(schedule: Schedule, t: float) -> np.ndarray:
    return np.array(_schedule_fn(schedule)(float(t)))


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
    """Sampled run; log_states are authoritative, states derived on access."""

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

    z holds the logs on the support only and rows the payoff rows of the
    support, sliced to the opponent columns they can meet; coordinates off
    the support stay exactly at -inf and are never evaluated.
    """

    def __init__(self, z, payoff, cols, link: LinkFunction, where: str):
        self.n = z.size
        self.support = np.flatnonzero(z > -np.inf)
        self.z = z[self.support].tolist()
        self.rows = payoff[np.ix_(self.support, cols)].tolist()
        self.link = scalar_link(link)
        self.where = where

    def name(self, k: int) -> str:
        return self.where.format(int(self.support[k]))

    def growth(self, x, y, t, step):
        """Payoffs against y, growth rates, and their mean under x."""
        u = [sum(map(mul, row, y)) for row in self.rows]
        g = list(map(self.link, u))
        gbar = sum(map(mul, x, g))
        if gbar != gbar:
            for k, gk in enumerate(g):
                if gk != gk:
                    raise IntegrationError(
                        f"payoff left the link domain near t={t:g} ({self.name(k)})",
                        t=t, step=step)
        return u, g, gbar

    def log_states(self, samples) -> np.ndarray:
        out = np.full((len(samples), self.n), -np.inf)
        out[:, self.support] = samples
        return out


def _softmax(z):
    m = max(z)
    e = [math.exp(zi - m) for zi in z]
    s = sum(e)
    return [ei / s for ei in e]


def _renorm(z, t, step):
    """Project logs back onto the simplex; returns them with the mass drift."""
    s = sum(map(math.exp, z))
    if not 0.0 < s < math.inf:
        raise IntegrationError(f"state became non-finite near t={t:g}", t=t, step=step)
    c = math.log(s)
    return [zi - c for zi in z], abs(s - 1.0)


def _setup(rule: GrowthRule, game: Game, x0, opponent, opp_speed_error: str):
    """Validate the opponent and build the populations.

    Returns (populations, plays, script, label): plays maps the time and the
    populations' frequencies to what each population plays against, and
    script evaluates the opponent schedule of a scripted run (else None).
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
        return pops, lambda t, xs: xs[::-1], None, "coupled"
    if isinstance(opponent, Schedule):
        if opponent.n_strategies != m:
            raise ValueError(
                f"schedule rows have {opponent.n_strategies} entries, game has {m} columns")
        script = _schedule_fn(opponent)
        pop = _Population(z, game.payoff, np.arange(m), rule.effective_link, "strategy {}")
        return [pop], lambda t, xs: [script(t)], script, "scripted"
    if opponent is not None:
        raise TypeError(f"unsupported opponent {opponent!r}")
    if n != m:
        raise ValueError(f"self-play needs a square game, got {n}x{m}")
    pop = _Population(z, game.payoff, np.flatnonzero(z > -np.inf),
                      rule.effective_link, "strategy {}")
    return [pop], lambda t, xs: xs, None, "self"


def _trajectory(pops, script, times, samples, meta) -> Trajectory:
    """Trajectory from the sample times and the logs of each population."""
    logs = [pop.log_states([s[k] for s in samples]) for k, pop in enumerate(pops)]
    if len(pops) == 2:
        return Trajectory(np.array(times), logs[0], np.exp(logs[1]), logs[1], meta)
    opp = np.array([script(t) for t in times]) if script else None
    return Trajectory(np.array(times), logs[0], opp, None, meta)


def _flow(pops, plays, speed, bounds, steps, sample_every):
    """Fixed-step RK4 over one or two populations, segment by segment.

    Samples land at the start, every sample_every-th step, and the last step.
    Returns (sample times, logs per population at each sample, max drift).
    """
    speed_link = scalar_link(speed) if isinstance(speed, LinkFunction) else None
    const_speed = speed if isinstance(speed, float) else 1.0
    total = int(steps.sum())
    t0, step = float(bounds[0]), 0
    zs = [pop.z for pop in pops]
    times, samples, max_drift = [t0], [zs], 0.0

    def deriv(t, zs):
        # a failure at any stage reports the start t0 of the step being taken
        xs = [_softmax(z) for z in zs]
        rates = [pop.growth(x, y, t0, step) for pop, x, y in zip(pops, xs, plays(t, xs))]
        lam = const_speed
        if speed_link is not None:
            lam = speed_link(sum(map(mul, xs[0], rates[0][0])))
            if not 0.0 < lam < math.inf:
                raise IntegrationError(
                    f"speed factor not positive (or outside its table) near t={t0:g}",
                    t=t0, step=step)
        return [[lam * (gi - gbar) for gi in g] for _, g, gbar in rates]

    def shift(zs, c, ds):
        return [[zi + c * di for zi, di in zip(z, d)] for z, d in zip(zs, ds)]

    for a, b, ns in zip(bounds[:-1].tolist(), bounds[1:].tolist(), steps.tolist()):
        h = (b - a) / ns
        for k in range(ns):
            t0 = a + k * h
            k1 = deriv(t0, zs)
            k2 = deriv(t0 + 0.5 * h, shift(zs, 0.5 * h, k1))
            k3 = deriv(t0 + 0.5 * h, shift(zs, 0.5 * h, k2))
            k4 = deriv(t0 + h, shift(zs, h, k3))
            h6 = h / 6.0
            new = []
            for z, d1, d2, d3, d4 in zip(zs, k1, k2, k3, k4):
                z, drift = _renorm([zi + h6 * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
                                    for zi, e1, e2, e3, e4 in zip(z, d1, d2, d3, d4)],
                                   t0, step)
                new.append(z)
                max_drift = max(max_drift, drift)
            zs = new
            step += 1
            if step % sample_every == 0 or step == total:
                times.append(b if k == ns - 1 else a + (k + 1) * h)
                samples.append(zs)
    return times, samples, max_drift


def integrate(rule: GrowthRule, game: Game, x0,
              opponent: Schedule | Coupled | None = None,
              t_max: float = 200.0, dt: float = 1e-3,
              sample_every: int = 100) -> Trajectory:
    """Run the flow from x0 for t_max time units with fixed step dt.

    opponent None plays the population against itself (square game);
    a Schedule scripts the column player; a Coupled instance evolves a second
    population by its own rule. Samples are kept at the start, every
    sample_every-th accepted step, and the end.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    pops, plays, script, label = _setup(
        rule, game, x0, opponent,
        "speed belongs to the first population's rule in coupled runs")
    bounds, steps = _segments(t_max, dt, opponent if script else None)
    times, samples, max_drift = _flow(pops, plays, rule.speed, bounds, steps, sample_every)
    meta = {"dynamics": "continuous", "steps": int(steps.sum()), "dt": dt,
            "t_max": t_max, "max_drift": max_drift,
            "sample_every": sample_every, "opponent": label,
            "rule": rule.label, "game": game.digest()}
    return _trajectory(pops, script, times, samples, meta)


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

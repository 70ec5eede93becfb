"""Discrete-generation selection: the background-fitness ratio map.

One generation multiplies every frequency by (C_n + g_i) / (C_n + gbar),
where C_n is a background fitness schedule and g_i the linked payoff. The
iteration runs in log space via log1p, over one population (playing itself
or a scripted opponent) or a coupled pair, each restricted to its support
when the run starts. It tolerates backgrounds up to and including +inf,
where the map freezes in place, exactly.

Two paths compute the same generations:

- The stepper (_generations) runs self-play and coupled runs on plain
  Python floats: at one run a NumPy map costs more per generation, and no
  caller iterates a batch of these maps.
- Against a scripted opponent the growth rates depend on the generation
  alone, so ln(C_n + gbar) is a shift common to every coordinate that
  renormalization removes; _scripted_generations adds log1p((g_i - r_n) /
  (C_n + r_n)) with r_n = min_i g_i, never of a negative argument, and
  normalizes at the samples only, agreeing with the stepper to rounding.
  With a constant background and an integer period P up to _BLOCK,
  generation n meets the script exactly where generation n mod P does and
  repeats its increments, so the first period is evaluated once and folded
  as the exact flow folds its pieces (dynamics._fold): the logs after n
  generations are z0 + floor(n / P) S + prefix[n mod P]. Affine and
  geometric backgrounds, non-integer periods and periods over _BLOCK sum
  every generation with NumPy in blocks of _BLOCK.

Whether the background schedule's reciprocal sum diverges decides how much
cumulative selection pressure is available: affine schedules keep selecting
forever, geometric ones stall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .dynamics import (Coupled, GrowthRule, IntegrationError, Schedule, Trajectory,
                       _check_count, _fold, _normalize, _sample_counts, _setup,
                       _trajectory, eval_schedule)
from .games import Game
from .links import array_link, hull_inside, scalar_link

_KINDS = ("constant", "affine", "geometric")
# Generations per block of the scripted map: enough to amortise the NumPy
# calls, small enough that a block's arrays stay well under a megabyte.
_BLOCK = 4096


@dataclass(frozen=True)
class BackgroundFitness:
    """Background fitness by generation: constant, base + rate*n, or base*rate^n."""

    kind: str
    base: float
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown background kind {self.kind!r}")
        base = float(self.base)
        rate = float(self.rate)
        if not math.isfinite(base):
            raise ValueError("background base must be finite")
        if not math.isfinite(rate):
            raise ValueError("background rate must be finite")
        if self.kind == "geometric" and not (base > 0 and rate > 0):
            raise ValueError("geometric background needs positive base and ratio")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rate", rate)

    def value(self, n: int) -> float:
        """values() at the one generation n."""
        return float(self.values(np.asarray(n, dtype=float)))

    def values(self, n: np.ndarray) -> np.ndarray:
        """C_n at every generation in the float array n; geometric through
        logs, so huge horizons saturate to +inf instead of erroring."""
        if self.kind == "constant":
            return np.full(n.shape, self.base)
        if self.kind == "affine":
            return self.base + self.rate * n
        with np.errstate(over="ignore"):
            return np.exp(math.log(self.base) + n * math.log(self.rate))

    @property
    def divergent_sum(self) -> bool:
        """True when sum of 1/C_n diverges (selection never runs dry)."""
        if self.kind == "constant":
            return True
        if self.kind == "affine":
            return self.rate >= 0.0
        return self.rate <= 1.0


def constant_background(c: float) -> BackgroundFitness:
    return BackgroundFitness("constant", c)


def affine_background(base: float, slope: float) -> BackgroundFitness:
    return BackgroundFitness("affine", base, slope)


def geometric_background(base: float, ratio: float) -> BackgroundFitness:
    return BackgroundFitness("geometric", base, ratio)


def _generations(pops, background: BackgroundFitness, n_steps: int, sample_every: int):
    """The ratio map over one or two populations (self-play or a coupled
    pair) on plain Python floats. Each generation checks every population's
    payoffs (scanning for nan only where hull_inside fails), then every
    numerator C_n + g_i, then adds the log increments and renormalizes:
    exp(z_i) over their sum s are the next frequencies, and ln s comes off
    with the next increments or at a sample. Returns (sample times, logs per
    population at each sample, max drift)."""
    plan = [(p, pop.payoffs.tolist(), scalar_link(pop.f, pop.hull),
             not hull_inside(pop.f, pop.hull), opp)
            for p, (pop, opp) in enumerate(zip(pops, (0,) if len(pops) == 1 else (1, 0)))]
    log1p, exp, log = math.log1p, math.exp, math.log
    zs = [pop.z for pop in pops]
    es = [list(map(exp, z)) for z in zs]
    sums, logs = [sum(e) for e in es], [0.0] * len(pops)
    gs, gbars = [None] * len(pops), [0.0] * len(pops)
    counts = _sample_counts(n_steps, sample_every).tolist()
    samples, max_drift = [list(zs)], 0.0
    for k0, k1 in zip(counts, counts[1:]):
        backgrounds = background.values(np.arange(k0, k1, dtype=float)).tolist()
        for k, C in zip(range(k0, k1), backgrounds):
            for p, rows, link, checked, opp in plan:
                y, sy = es[opp], sums[opp]
                g = [link(sum(map(mul, row, y)) / sy) for row in rows]
                gbar = sum(map(mul, es[p], g)) / sums[p]
                if checked and gbar != gbar:
                    raise pops[p].domain_error([gi != gi for gi in g].index(True), float(k), k)
                gs[p], gbars[p] = g, gbar
            for pop, g in zip(pops, gs):
                if not C + min(g) > 0.0:
                    i = next(i for i, gi in enumerate(g) if not C + gi > 0.0)
                    raise IntegrationError(
                        f"background plus growth rate not positive at generation {k} "
                        f"({pop.name(i)})", t=float(k), step=k)
            for p, (z, g, gbar, c) in enumerate(zip(zs, gs, gbars, logs)):
                denom = C + gbar
                try:
                    z = [zi + (log1p((gi - gbar) / denom) - c) for zi, gi in zip(z, g)]
                except ValueError:
                    z = [zi + (_log_ratio(C, gi, gbar) - c) for zi, gi in zip(z, g)]
                try:
                    e = list(map(exp, z))
                    s = sum(e)
                except OverflowError:
                    s = math.inf
                if not 0.0 < s < math.inf:
                    raise IntegrationError(f"state became non-finite near t={k:g}",
                                           t=float(k), step=k)
                zs[p], es[p], sums[p], logs[p] = z, e, s, log(s)
                if abs(s - 1.0) > max_drift:
                    max_drift = abs(s - 1.0)
        samples.append([[zi - c for zi in z] for z, c in zip(zs, logs)])
    return [float(k) for k in counts], list(zip(*samples)), max_drift


def _log_ratio(C, gi, gbar):
    """ln((C + g_i) / (C + gbar)) where (g_i - gbar) / (C + gbar) rounds to
    -1 or below; the numerator C + g_i is known to be positive."""
    denom = C + gbar
    v = (gi - gbar) / denom
    return math.log1p(v) if v > -1.0 else math.log(C + gi) - math.log(denom)


def _scripted_generations(pop, schedule: Schedule, link, background: BackgroundFitness,
                          n_steps: int, sample_every: int):
    """The ratio map of _generations against a script, in closed form (see
    the module docstring) with the same samples. Each generation's
    increments lose their mean over the support, a common shift like the
    stepper's ln(C_n + gbar). A payoff outside the link domain fails before a
    numerator C_n + g_i that is not positive, generation by generation, as in
    _generations. With a constant background and an integer period P up to
    _BLOCK, generation n repeats generation n mod P exactly, so the first
    period is evaluated once and folded (dynamics._fold). Other runs sum
    blocks of _BLOCK generations, so memory does not grow with the horizon.
    Returns (sample times, [logs at each sample], max |sum x - 1| over them).
    """
    rows, f, period = pop.payoffs, array_link(link), schedule.period

    def increments(lo, hi):
        """Mean-free log increments of generations lo .. hi - 1, checked."""
        t = np.arange(lo, hi, dtype=float)
        # payoffs summed column by column, in the order the stepper sums
        y = eval_schedule(schedule, t)
        u = y[:, :1] * rows[:, 0]
        for j in range(1, rows.shape[1]):
            u += y[:, j:j + 1] * rows[:, j]
        g = f(u)
        C = background.values(t)[:, None]
        bad = ~(C + g > 0.0)
        if bad.any():
            k = lo + int(np.argmax(bad.any(axis=1)))
            nan = np.isnan(g[k - lo])
            if nan.any():
                raise pop.domain_error(int(np.argmax(nan)), float(k), k)
            raise IntegrationError(
                f"background plus growth rate not positive at generation {k} "
                f"({pop.name(int(np.argmax(bad[k - lo])))})", t=float(k), step=k)
        r = g.min(axis=1, keepdims=True)
        d = np.log1p((g - r) / (C + r))
        return d - d.mean(axis=1, keepdims=True)

    counts = _sample_counts(n_steps, sample_every)
    if background.kind == "constant" and period.is_integer() and period <= _BLOCK:
        P = int(period)
        z, drift = _fold(pop.z, increments(0, min(P, n_steps)), counts // P, counts % P)
        return counts.astype(float), [z], drift
    run, kept = np.asarray(pop.z, dtype=float), []
    for lo in range(0, n_steps, _BLOCK):
        hi = min(lo + _BLOCK, n_steps)
        d = increments(lo, hi)
        d[0] += run
        np.cumsum(d, axis=0, out=d)
        kept.append(d[counts[np.searchsorted(counts, lo, side="right"):
                             np.searchsorted(counts, hi, side="right")] - lo - 1])
        run = d[-1]
    z = _normalize(np.concatenate(kept), [slice(None)])
    drift = float(np.abs(np.exp(z).sum(axis=1) - 1.0).max())
    return counts.astype(float), [np.vstack([pop.z, z])], drift


def iterate(rule: GrowthRule | None, game: Game, x0,
            opponent: Schedule | Coupled | None = None,
            n_max: int = 10_000,
            background: BackgroundFitness = BackgroundFitness("constant", 0.0),
            sample_every: int = 100) -> Trajectory:
    """Run n_max generations of the ratio map from x0; n_max and
    sample_every are integers of at least 1.

    Same opponent conventions as the continuous integrator, with schedule
    time measured in generations. Speed factors make no sense here and are
    rejected.

    Every scripted run takes the closed form (_scripted_generations), which
    agrees with the stepper to rounding: a constant background with an
    integer period of at most _BLOCK generations folds one period's
    increments, whatever n_max; every other scripted run sums them block by
    block. There meta["max_drift"] is the largest |sum x - 1| over the
    normalized samples. Self-play and coupled runs take the stepper, where
    it is the largest drift before each generation's renormalization.
    """
    rule = rule or GrowthRule()
    if rule.speed is not None:
        raise ValueError("speed factors only apply to the continuous flow")
    n_steps = _check_count(n_max, "n_max")
    sample_every = _check_count(sample_every, "sample_every")
    pops, _, label = _setup(
        rule, game, x0, opponent, "speed factors only apply to the continuous flow")
    if label == "scripted":
        times, samples, max_drift = _scripted_generations(
            pops[0], opponent, rule.effective_link, background, n_steps, sample_every)
    else:
        times, samples, max_drift = _generations(pops, background, n_steps, sample_every)
    meta = {"dynamics": "discrete", "steps": n_steps, "background": background,
            "sample_every": sample_every, "max_drift": max_drift,
            "opponent": label, "rule": rule.label, "game": game.digest()}
    return _trajectory(pops, opponent, times, samples, meta)

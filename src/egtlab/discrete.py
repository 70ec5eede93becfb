"""Discrete-generation selection: the background-fitness ratio map.

One generation multiplies every frequency by (C_n + g_i) / (C_n + gbar),
where C_n is a background fitness schedule and g_i the linked payoff. The
iteration runs in log space, over one population (playing itself or a
scripted opponent) or a coupled pair, each restricted to its support when
the run starts. It tolerates backgrounds up to and including +inf, where
the map freezes in place, exactly.

In logs the mean term ln(C_n + gbar) is common to every strategy, and so is
ln(C_n + r_n) for any r_n; renormalization removes both. So every path adds
the one increment log1p((g_i - r_n) / (C_n + r_n)) with r_n = min_i g_i,
the value the numerator check C_n + g_i > 0 reads. Its argument is never
negative, so no ratio rounds to -1, and no mean growth rate is formed. It
overflows only where (C_n + g_i) / (C_n + r_n) exceeds the largest double,
and every path then stops with "state became non-finite" at the first
generation whose increment is not finite. Each path reports as max_drift
the largest |sum x - 1| over its normalized samples after the first
(dynamics._drift), as the exact flow does.

The map decides nothing the flow has decided. Each population's payoffs
read the state of the population dynamics._setup pairs it with
(_Population.meets: itself in self-play, the other one in a coupled pair).
Against a script they are the flow's per-piece table: ua[k] + w du[k], from
dynamics._piece_payoffs at the piece k and fraction w of
dynamics._script_piece, as the exact flow and the flow stepper read them.
Link values are links._formula's, per float (scalar_link) or per array
(array_link).

Two paths compute the same generations:

- The stepper (_generations) runs self-play and coupled runs on plain
  Python floats, renormalizing every generation: at one run a NumPy map
  costs more per generation, and no caller iterates a batch of these maps.
- Against a scripted opponent the growth rates depend on the generation
  alone, so _scripted_generations normalizes at the samples only,
  agreeing with the stepper to rounding. With an integer period P up to
  _BLOCK, generation n meets the script exactly where generation n mod P
  does, so the script and the link are evaluated on the first period
  only, whatever the background. A constant background repeats that
  period's increments, which are folded as the exact flow folds its pieces
  (dynamics._fold): the logs after n generations are z0 + floor(n / P) S +
  prefix[n mod P]. Affine and geometric backgrounds sum every generation's
  increments with NumPy in blocks of _BLOCK, reading the link values of
  generation n mod P; non-integer periods and periods over _BLOCK
  evaluate every generation.

Whether the sum of 1/C_n diverges decides how much cumulative selection
pressure is available. It diverges for a constant background, an affine one
of nonnegative slope and a geometric one of ratio at most 1, which keep
selecting forever; a geometric ratio above 1 makes it converge, and
selection stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .dynamics import (Coupled, GrowthRule, IntegrationError, Schedule, Trajectory,
                       _check_count, _drift, _fold, _normalize, _piece_payoffs,
                       _sample_counts, _script_piece, _setup, _trajectory)
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

    def values(self, n: np.ndarray) -> np.ndarray:
        """C_n at every generation in the float array n; geometric through
        logs, so huge horizons saturate to +inf instead of erroring."""
        if self.kind == "constant":
            return np.full(n.shape, self.base)
        if self.kind == "affine":
            return self.base + self.rate * n
        with np.errstate(over="ignore"):
            return np.exp(math.log(self.base) + n * math.log(self.rate))


def constant_background(c: float) -> BackgroundFitness:
    return BackgroundFitness("constant", c)


def affine_background(base: float, slope: float) -> BackgroundFitness:
    return BackgroundFitness("affine", base, slope)


def geometric_background(base: float, ratio: float) -> BackgroundFitness:
    return BackgroundFitness("geometric", base, ratio)


# a table link's values are np.float64 (links._formula): an overflow, or inf
# over an infinite background, is then a silent inf or nan, as with floats
@np.errstate(over="ignore", invalid="ignore")
def _generations(pops, background: BackgroundFitness, n_steps: int, sample_every: int):
    """The ratio map over one or two populations (self-play or a coupled
    pair) on plain Python floats. Each generation checks every population's
    payoffs (scanning for nan only where hull_inside fails), then every
    numerator C_n + g_i at once, through the smallest r over the populations,
    then adds the increments log1p((g_i - r) / (C_n + r)), r = min_i g_i of
    each population, and renormalizes: exp(z_i) over their sum s are the
    next frequencies, and ln s comes off with the next increments or at a
    sample. Returns (sample times, logs per population at each sample, max
    drift over the samples, dynamics._drift)."""
    plan = [(p, pop, pop.payoffs.tolist(), scalar_link(pop.f, pop.hull),
             not hull_inside(pop.f, pop.hull), pop.meets) for p, pop in enumerate(pops)]
    log1p, exp, log, isnan, inf = math.log1p, math.exp, math.log, math.isnan, math.inf
    zs = [pop.z for pop in pops]
    es = [list(map(exp, z)) for z in zs]
    sums, logs = [sum(e) for e in es], [0.0] * len(pops)
    ps, gs, rs = range(len(pops)), [None] * len(pops), [0.0] * len(pops)
    counts = _sample_counts(n_steps, sample_every).tolist()
    samples = [list(zs)]
    for k0, k1 in zip(counts, counts[1:]):
        backgrounds = background.values(np.arange(k0, k1, dtype=float)).tolist()
        for k, C in zip(range(k0, k1), backgrounds):
            for p, pop, rows, link, checked, opp in plan:
                y, sy = es[opp], sums[opp]
                g = [link(sum(map(mul, row, y)) / sy) for row in rows]
                if checked and any(map(isnan, g)):
                    raise pop.domain_error(list(map(isnan, g)).index(True), float(k), k)
                gs[p], rs[p] = g, min(g)
            if not C + min(rs) > 0.0:
                p = next(p for p in ps if not C + rs[p] > 0.0)
                raise pops[p].background_error(gs[p], C, k)
            for p in ps:
                g, r, c = gs[p], rs[p], logs[p]
                denom = C + r
                z = [zi + (log1p((gi - r) / denom) - c) for zi, gi in zip(zs[p], g)]
                try:
                    e = list(map(exp, z))
                    s = sum(e)
                except OverflowError:
                    s = inf
                if not 0.0 < s < inf:
                    raise IntegrationError(f"state became non-finite near t={k:g}",
                                           t=float(k), step=k)
                zs[p], es[p], sums[p], logs[p] = z, e, s, log(s)
        samples.append([[zi - c for zi in z] for z, c in zip(zs, logs)])
    samples = list(zip(*samples))
    return [float(k) for k in counts], samples, max(_drift(s[1:]) for s in samples)


def _scripted_generations(pop, schedule: Schedule, background: BackgroundFitness,
                          n_steps: int, sample_every: int):
    """The ratio map of _generations against a script, in closed form (see
    the module docstring) with the same samples. Each generation's
    increments, the stepper's, lose their mean over the support, a shift
    common to every coordinate. A payoff outside the link domain fails
    before a numerator C_n + g_i that is not positive, and that before an
    increment that is not finite, generation by generation, as in
    _generations. Generation n's payoffs are ua[k] + w du[k] of the per-piece
    table (dynamics._piece_payoffs) at the piece k and fraction w where
    generation n meets the script (dynamics._script_piece), and its growth
    rates pop.f of them through array_link. An integer period P up to _BLOCK
    has its link values evaluated on the first period only, a table the
    blocks index by n mod P; with a constant background that period is
    folded (dynamics._fold). Other runs sum blocks of _BLOCK generations, so
    memory does not grow with the horizon. Returns (sample times, [logs at
    each sample], max drift, _drift).
    """
    f, period = array_link(pop.f), schedule.period
    ua, ub = _piece_payoffs(pop, schedule)
    du = ub - ua

    def link_values(t):
        """Link values at the generations t, one row each."""
        _, k, w = _script_piece(schedule, t)
        return f(ua[k] + w[:, None] * du[k])

    P = int(period) if period.is_integer() and period <= _BLOCK else None
    table = link_values(np.arange(min(P, n_steps), dtype=float)) if P else None

    def increments(lo, hi):
        """Mean-free log increments of generations lo .. hi - 1, checked."""
        t = np.arange(lo, hi, dtype=float)
        g = link_values(t) if P is None else table[np.arange(lo, hi) % P]
        C = background.values(t)[:, None]
        bad = ~(C + g > 0.0)
        if bad.any():
            k = lo + int(np.argmax(bad.any(axis=1)))
            nan = np.isnan(g[k - lo])
            if nan.any():
                raise pop.domain_error(int(np.argmax(nan)), float(k), k)
            raise pop.background_error(g[k - lo], C[k - lo, 0], k)
        r = g.min(axis=1, keepdims=True)
        with np.errstate(over="ignore"):  # an increment of inf is refused below
            d = np.log1p((g - r) / (C + r))
        # d >= 0, so a generation's mean is inf exactly where an increment is
        mean = d.mean(axis=1, keepdims=True)
        if not mean.max() < math.inf:
            k = lo + int(np.argmax(mean[:, 0] == math.inf))
            raise IntegrationError(f"state became non-finite near t={k:g}", t=float(k), step=k)
        return d - mean

    counts = _sample_counts(n_steps, sample_every)
    if background.kind == "constant" and P:
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
    return counts.astype(float), [np.vstack([pop.z, z])], _drift(z)


def iterate(rule: GrowthRule, game: Game, x0,
            opponent: Schedule | Coupled | None = None,
            n_max: int = 10_000,
            background: BackgroundFitness = BackgroundFitness("constant", 0.0),
            sample_every: int = 100) -> Trajectory:
    """Run n_max generations of the ratio map from x0; n_max and
    sample_every are integers of at least 1.

    Same opponent conventions as the continuous integrator, with schedule
    time measured in generations. Speed factors make no sense here and are
    rejected (a Coupled opponent's rule takes none).

    Every run adds the same increment log1p((g_i - r_n) / (C_n + r_n)) per
    generation, r_n = min_i g_i (see the module docstring). Every scripted
    run takes the closed form (_scripted_generations), which agrees with
    the stepper to rounding: a constant background with an integer period
    of at most _BLOCK generations folds one period's increments, whatever
    n_max; every other scripted run sums them block by block. Self-play and
    coupled runs take the stepper. meta["max_drift"] is the largest
    |sum x - 1| over the normalized samples after the first
    (dynamics._drift), on either path.
    """
    if rule.speed is not None:
        raise ValueError("speed factors only apply to the continuous flow")
    n_steps = _check_count(n_max, "n_max")
    sample_every = _check_count(sample_every, "sample_every")
    pops, _, label = _setup(rule, game, x0, opponent)
    if label == "scripted":
        times, samples, max_drift = _scripted_generations(
            pops[0], opponent, background, n_steps, sample_every)
    else:
        times, samples, max_drift = _generations(pops, background, n_steps, sample_every)
    meta = {"dynamics": "discrete", "steps": n_steps, "background": background,
            "sample_every": sample_every, "max_drift": max_drift,
            "opponent": label, "rule": rule.label, "game": game.digest()}
    return _trajectory(pops, opponent, times, samples, meta)

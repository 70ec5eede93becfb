"""Discrete-generation selection: the background-fitness ratio map.

One generation multiplies every frequency by (C_n + g_i) / (C_n + gbar),
where C_n is a background fitness schedule and g_i the linked payoff. The
iteration runs in log space via log1p, over one population (playing itself
or a scripted opponent) or a coupled pair, each restricted to its support
when the run starts. It tolerates backgrounds up to and including +inf,
where the map freezes in place, exactly.

Two paths compute the same generations:

- The stepper (_generations) runs on plain Python floats and serves
  self-play and coupled runs.
- Against a scripted opponent the growth rates depend on the generation
  alone, so ln(C_n + gbar) is a shift common to every coordinate that
  renormalization removes. Any common reference r_n does instead:
  _scripted_generations adds log1p((g_i - r_n) / (C_n + r_n)) with
  r_n = min_i g_i, whose argument is never negative, sums with NumPy in
  blocks and normalizes at the samples only. The results agree with the
  stepper's to rounding.

Whether the background schedule's reciprocal sum diverges decides how much
cumulative selection pressure is available: affine schedules keep selecting
forever, geometric ones stall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (Coupled, GrowthRule, IntegrationError, Schedule,
                       Trajectory, _accumulate, _renorm, _script_payoffs, _setup,
                       _softmax, _trajectory)
from .games import Game, validate_simplex
from .links import array_link, eval_link

_KINDS = ("constant", "affine", "geometric")


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
        if self.kind == "geometric" and not (base > 0 and rate > 0):
            raise ValueError("geometric background needs positive base and ratio")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rate", rate)

    def value(self, n: int) -> float:
        if self.kind == "constant":
            return self.base
        if self.kind == "affine":
            return self.base + self.rate * n
        # geometric through logs so huge horizons saturate to +inf instead of erroring
        try:
            return math.exp(math.log(self.base) + n * math.log(self.rate))
        except OverflowError:
            return math.inf

    def values(self, n: np.ndarray) -> np.ndarray:
        """value() at every generation in the float array n."""
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


def step(rule: GrowthRule | None, game: Game, x, y=None,
         C: float = 0.0) -> np.ndarray:
    """One generation in plain frequency space (reference path, not the stepper)."""
    rule = rule or GrowthRule()
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    f = rule.effective_link
    u = game.payoff @ y
    g = np.array([eval_link(f, ui) if xi > 0 else 0.0 for ui, xi in zip(u, x)])
    C = float(C)
    for i in np.flatnonzero(x > 0):
        if C + g[i] <= 0.0:
            raise ValueError(
                f"background {C:g} plus growth rate {g[i]:g} is not positive "
                f"(strategy {int(i)})")
    gbar = float(x @ g)
    return x * (C + g) / (C + gbar)


def discrete_w_increment(rule: GrowthRule | None, game: Game, x, y, C: float,
                         p, q) -> float:
    """Exact one-generation change of w = sum (p_i - q_i) ln x_i under the map.

    Written as differences of log1p((g_i - gbar) / (C + gbar)), which stays
    finite and exact even when C saturates to +inf (the increment is then 0).
    """
    rule = rule or GrowthRule()
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    pw = validate_simplex(p, what="p").weights
    qw = validate_simplex(q, what="q").weights
    if pw.shape != (game.n_rows,) or qw.shape != (game.n_rows,):
        raise ValueError(f"p and q must have length {game.n_rows}")
    f = rule.effective_link
    u = game.payoff @ y
    g = np.array([eval_link(f, ui) for ui in u])
    gbar = float(x @ g)
    C = float(C)
    denom = C + gbar
    if not denom > 0.0:
        raise ValueError(f"background {C:g} plus mean growth {gbar:g} is not positive")
    total = 0.0
    for ci, gi in zip(pw - qw, g):
        if ci != 0.0:
            total += ci * math.log1p((gi - gbar) / denom)
    return total


def _generations(pops, plays, background: BackgroundFitness, n_steps: int,
                 sample_every: int):
    """The ratio map over one or two populations, generation by generation.

    Every numerator C_n + g_i is checked before any log1p. Samples land at
    the start, every sample_every-th generation, and the last one. Returns
    (sample times, logs per population at each sample, max drift).
    """
    zs = [pop.z for pop in pops]
    times, samples, max_drift = [0.0], [zs], 0.0
    for k in range(n_steps):
        t = float(k)
        xs = [_softmax(z) for z in zs]
        rates = [pop.growth(x, y, t, k) for pop, x, y in zip(pops, xs, plays(t, xs))]
        C = background.value(k)
        for pop, (_, g, _) in zip(pops, rates):
            if not C + min(g) > 0.0:
                i = next(i for i, gi in enumerate(g) if not C + gi > 0.0)
                raise IntegrationError(
                    f"background plus growth rate not positive at generation {k} "
                    f"({pop.name(i)})", t=t, step=k)
        new = []
        for z, (_, g, gbar) in zip(zs, rates):
            denom = C + gbar
            try:
                z = [zi + math.log1p((gi - gbar) / denom) for zi, gi in zip(z, g)]
            except ValueError:
                z = [zi + _log_ratio(C, gi, gbar) for zi, gi in zip(z, g)]
            z, drift = _renorm(z, t, k)
            new.append(z)
            max_drift = max(max_drift, drift)
        zs = new
        if (k + 1) % sample_every == 0 or k + 1 == n_steps:
            times.append(float(k + 1))
            samples.append(zs)
    return times, list(zip(*samples)), max_drift


def _log_ratio(C, gi, gbar):
    """ln((C + g_i) / (C + gbar)) where (g_i - gbar) / (C + gbar) rounds to
    -1 or below; the numerator C + g_i is known to be positive."""
    denom = C + gbar
    v = (gi - gbar) / denom
    return math.log1p(v) if v > -1.0 else math.log(C + gi) - math.log(denom)


def _scripted_generations(pop, schedule: Schedule, link, background: BackgroundFitness,
                          n_steps: int, sample_every: int):
    """The ratio map of _generations against a script, in closed form (see
    the module docstring) with the same samples.

    Generation by generation, a payoff outside the link domain fails before
    a numerator C_n + g_i that is not positive, as in _generations. Returns
    (sample times, [logs at each sample], max drift).
    """
    rows = np.array(pop.rows)
    f = array_link(link)

    def increments(lo, hi):
        t = np.arange(lo, hi, dtype=float)
        g = f(_script_payoffs(rows, schedule, t))
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
        return np.log1p((g - r) / (C + r))

    counts, samples, max_drift = _accumulate(pop.z, n_steps, sample_every, increments)
    return counts.astype(float), [samples], max_drift


def iterate(rule: GrowthRule | None, game: Game, x0,
            opponent: Schedule | Coupled | None = None,
            n_max: int = 10_000,
            background: BackgroundFitness = BackgroundFitness("constant", 0.0),
            sample_every: int = 100) -> Trajectory:
    """Run n_max generations of the ratio map from x0.

    Same opponent conventions as the continuous integrator, with schedule
    time measured in generations. Speed factors make no sense here and are
    rejected.

    Every scripted run takes the closed form (_scripted_generations), which
    agrees with the stepper to rounding; there meta["max_drift"] is the
    largest |sum x - 1| over the normalized samples. Self-play and coupled
    runs take the stepper, where it is the largest drift before each
    generation's renormalization.
    """
    rule = rule or GrowthRule()
    if rule.speed is not None:
        raise ValueError("speed factors only apply to the continuous flow")
    n_steps = int(n_max)
    if n_steps < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max!r}")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    pops, plays, label = _setup(
        rule, game, x0, opponent, "speed factors only apply to the continuous flow")
    if label == "scripted":
        times, samples, max_drift = _scripted_generations(
            pops[0], opponent, rule.effective_link, background, n_steps, sample_every)
    else:
        times, samples, max_drift = _generations(pops, plays, background, n_steps,
                                                 sample_every)
    meta = {"dynamics": "discrete", "steps": n_steps, "background": background,
            "sample_every": sample_every, "max_drift": max_drift,
            "opponent": label, "rule": rule.label, "game": game.digest()}
    return _trajectory(pops, opponent, times, samples, meta)

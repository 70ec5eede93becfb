"""Independent references for the tests, kept free of the package's LP code
and integrators (tests/test_imports.py checks what they import):

- mixture_grid and grid_margin: brute-force dominance margins on a grid
- grid_shape: a link's monotonicity and curvature from sampled differences
- planted_game: seeded games with a planted elimination chain
- bland_iterate: a plain simplex loop
- scripted_flow_logs: SciPy quadrature of a flow against a script
- sample_grid: the flow's step grid and sample times, by a loop over every
  period and then every breakpoint
- vector_field, step, discrete_w_increment and w_rate: the flow's right-hand
  side, one generation of the ratio map, the map's exact change of w and the
  flow's dw/dt, each in frequency space, one strategy at a time
"""

import itertools
import math

import numpy as np

from egtlab.dynamics import GrowthRule, IntegrationError
from egtlab.games import validate_simplex
from egtlab.links import LinkFunction, eval_link


def mixture_grid(n_strategies: int, max_denominator: int) -> np.ndarray:
    """All rational points of the simplex with denominator <= max_denominator."""
    rows = set()
    for d in range(1, max_denominator + 1):
        for cut in itertools.combinations(range(d + n_strategies - 1),
                                          n_strategies - 1):
            parts = np.diff((-1,) + cut + (d + n_strategies - 1,)) - 1
            rows.add(tuple(int(k) / d for k in parts))
    return np.array(sorted(rows), dtype=float)


def grid_margin(payoff: np.ndarray, q, grid: np.ndarray) -> float:
    """Best worst-column payoff gap over grid mixtures p against q."""
    gaps = grid @ payoff - np.asarray(q, dtype=float) @ payoff
    return float(np.max(np.min(gaps, axis=1)))


def grid_shape(f: LinkFunction, lo: float, hi: float):
    """(increasing, convex, concave) of f on [lo, hi], read off its first and
    second differences on 1001 uniform points, each allowed a slack of
    1e-9 max(1, max|f|) of the wrong sign; and whether that reading is
    clear: the least first difference sits at least 10 slacks from 0, and
    the least and greatest second differences either as far or within the
    values' rounding of 0, 16 eps max(1, max|f|)."""
    vals = eval_link(f, np.linspace(lo, hi, 1001))
    scale = max(1.0, float(np.abs(vals).max()))
    d1, d2 = np.diff(vals), np.diff(vals, 2)
    tol = 1e-9 * scale
    flags = (bool(d1.min() > -tol), bool(d2.min() >= -tol), bool(d2.max() <= tol))
    rounding = 16.0 * np.finfo(float).eps * scale
    clear = abs(d1.min()) >= 10.0 * tol and all(abs(v) >= 10.0 * tol or abs(v) <= rounding
                                                for v in (d2.min(), d2.max()))
    return flags, clear


def planted_game(rng, n: int, depth: int):
    """Uniform random n x n payoffs with a chain of `depth` strategies that
    iterated elimination (same matrix for both seats) removes one per round.

    Chain strategy k sits 0.05-0.15 below the half-half mixture of two fixed
    rows everywhere except at chain strategy k-1's column, where it earns 2,
    out of reach of every other row. Returns (payoffs, chain).
    """
    payoff = rng.uniform(0.0, 1.0, size=(n, n))
    picks = rng.permutation(n)
    chain, mix = [int(i) for i in picks[:depth]], picks[depth:depth + 2]
    for k, s in enumerate(chain):
        payoff[s] = 0.5 * (payoff[mix[0]] + payoff[mix[1]]) - rng.uniform(0.05, 0.15)
        if k:
            payoff[s, chain[k - 1]] = 2.0
    return payoff, chain


def bland_iterate(T, basis, maxiter: int, pivot_tol: float, pivots: list) -> None:
    """Plain reference for the simplex loop of egtlab.lp: Bland's rule on
    tableau T (constraint rows, then the reduced-cost row; rhs last), in
    place. Appends each pivot's (row, col) to pivots; raises RuntimeError
    when unbounded or after maxiter pivots."""
    for _ in range(maxiter):
        cols = np.flatnonzero(T[-1, :-1] > pivot_tol)
        if cols.size == 0:
            return
        row = _ratio_row(T, basis, cols[0], pivot_tol)
        if row < 0:
            raise RuntimeError("objective unbounded above")
        _pivot(T, basis, row, cols[0])
        pivots.append((row, int(cols[0])))
    raise RuntimeError(f"simplex did not terminate in {maxiter} iterations")


def _ratio_row(T, basis, col, pivot_tol):
    rows = np.flatnonzero(T[:-1, col] > pivot_tol)
    if rows.size == 0:
        return -1
    ratios = T[rows, -1] / T[rows, col]
    ties = rows[ratios <= ratios.min() + 1e-12]
    return int(ties[np.argmin(basis[ties])])


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])
    basis[row] = col


def scripted_flow_logs(link, speed, payoff, schedule, x0, times) -> np.ndarray:
    """Log-states at the sample times of a flow against a script with a
    constant speed, by SciPy's quad: z_i(t) = ln x0_i + speed * int_0^t
    f(u_i(s)) ds, normalized onto the simplex. Each integral is taken
    between consecutive breaks: the script's breakpoints, the times a payoff
    crosses a table link's knot, and the sample times. link is evaluated by
    eval_link; the script is interpolated here, with np.interp."""
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    period, starts, rows = schedule.period, schedule.times, schedule.values
    ends = np.append(starts[1:], period)
    knots = np.append(starts, period)
    breaks = list(starts)
    for k, (a, b) in enumerate(zip(starts, ends)):
        ua, ub = payoff @ rows[k], payoff @ rows[(k + 1) % len(rows)]
        for x in (link.knots_x if link.family == "table" else []):
            for w in (x - ua[ub != ua]) / (ub - ua)[ub != ua]:
                if 0.0 < w < 1.0:
                    breaks.append(a + w * (b - a))
    t_end = float(times[-1])
    cuts = sorted({c * period + s for c in range(int(t_end // period) + 1) for s in breaks
                   if c * period + s < t_end} | {float(t) for t in times})

    def rate(i, s):
        y = [np.interp(s % period, knots, np.append(rows[:, j], rows[0, j]))
             for j in range(rows.shape[1])]
        return eval_link(link, float(payoff[i] @ y))

    x0 = np.asarray(x0, dtype=float)
    support = np.flatnonzero(x0 > 0)
    steps = np.zeros((len(cuts), len(x0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
            for i in support:
                steps[j + 1, i] = quad(lambda s: rate(i, s), a, b, epsabs=1e-15,
                                       epsrel=1e-14, limit=200)[0]
    total = np.cumsum(steps, axis=0)[np.searchsorted(cuts, times)]
    z = np.full((len(times), len(x0)), -np.inf)
    z[:, support] = np.log(x0[support]) + speed * total[:, support]
    top = z.max(axis=1, keepdims=True)
    return z - (top + np.log(np.exp(z - top).sum(axis=1, keepdims=True)))


def sample_grid(t_max: float, dt: float, sample_every: int, schedule):
    """(bounds, steps, sample times) of the fixed-step grid of dt, built one
    period and then one breakpoint at a time: the script's breakpoints inside
    (0, t_max) in order, each kept if it lies more than 1e-12 max(1, t_max)
    past the last kept bound and before t_max. Segment k takes steps[k] equal
    steps; the samples are the start, every sample_every-th step and the
    last, a segment's last step ending exactly on its bound."""
    cuts, P = [], schedule.period
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
    total = int(steps.sum())
    counts = list(range(0, total + 1, sample_every))
    if counts[-1] != total:
        counts.append(total)
    times, ends, seg = [0.0], np.cumsum(steps), 0
    for c in counts[1:]:
        while ends[seg] < c:
            seg += 1
        a, b, ns = bounds[seg], bounds[seg + 1], steps[seg]
        k = c - (ends[seg] - ns) - 1
        times.append(b if k == ns - 1 else a + (k + 1) * ((b - a) / ns))
    return bounds, steps, np.array(times)


def vector_field(rule: GrowthRule, game, x, y=None) -> np.ndarray:
    """The flow's right-hand side lam x_i (f(u_i) - gbar) in frequency space,
    u = A y, against itself unless y is given."""
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


def step(rule: GrowthRule | None, game, x, y=None, C: float = 0.0) -> np.ndarray:
    """One generation of the ratio map x_i (C + g_i) / (C + gbar) in
    frequency space; a numerator C + g_i <= 0 raises ValueError."""
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


def _coeffs(p, q, n: int) -> np.ndarray:
    p = validate_simplex(p, what="p").weights
    q = validate_simplex(q, what="q").weights
    if p.shape != (n,) or q.shape != (n,):
        raise ValueError(f"p and q must have length {n}")
    return p - q


def discrete_w_increment(rule: GrowthRule | None, game, x, y, C: float, p, q) -> float:
    """Exact one-generation change of w = sum (p_i - q_i) ln x_i under the map.

    Written as differences of log1p((g_i - gbar) / (C + gbar)), which stays
    finite and exact even when C saturates to +inf (the increment is then 0).
    """
    rule = rule or GrowthRule()
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    c = _coeffs(p, q, game.n_rows)
    f = rule.effective_link
    u = game.payoff @ y
    g = np.array([eval_link(f, ui) for ui in u])
    gbar = float(x @ g)
    C = float(C)
    denom = C + gbar
    if not denom > 0.0:
        raise ValueError(f"background {C:g} plus mean growth {gbar:g} is not positive")
    total = 0.0
    for ci, gi in zip(c, g):
        if ci != 0.0:
            total += ci * math.log1p((gi - gbar) / denom)
    return total


def w_rate(rule: GrowthRule | None, game, x, p, q, y=None) -> float:
    """The flow's dw/dt at state x: the linked payoff of p minus that of q,
    times the speed factor."""
    rule = rule or GrowthRule()
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    c = _coeffs(p, q, game.n_rows)
    f = rule.effective_link
    u = game.payoff @ y
    rate = sum(ci * eval_link(f, ui) for ci, ui in zip(c, u) if ci != 0.0)
    lam = 1.0
    if isinstance(rule.speed, float):
        lam = rule.speed
    elif isinstance(rule.speed, LinkFunction):
        lam = eval_link(rule.speed, float(x @ u))
    return lam * rate

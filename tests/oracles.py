"""Independent references for the tests, kept free of the package's LP code
and integrators (tests/test_imports.py checks what they import):

- mixture_grid and grid_margin: brute-force dominance margins on a grid
- grid_shape: a link's monotonicity and curvature from sampled differences
- survival_eps_max: the 3x2 construction's largest midpoint shift, by a plain
  bisection
- wedge_start: one start of a dual 4x4 run, by a plain 200-step bisection
- random_link: a seeded link of a given family on a random domain
- planted_game: seeded games with a planted elimination chain
- column_lp: the column LP of a dominance query, built with np.zeros, np.eye
  and np.append
- bland_iterate: a plain simplex loop
- best_reply_gap: how far a row falls short of a best reply to a column
  mixture, in exact rationals
- exact_margin: a row mixture's worst-column advantage over a pure row, in
  exact rationals
- scripted_flow_logs: SciPy quadrature of a flow against a script
- script_at: a script's mixture over time, by np.interp
- sample_grid: the flow's step grid and sample times, by a loop over every
  period and then every breakpoint
- rk4_flow: classic fixed-step RK4 of the flow in log coordinates on that
  grid, against itself, a script or a coupled partner
- vector_field, step, discrete_w_increment and w_rate: the flow's right-hand
  side, one generation of the ratio map, the map's exact change of w and the
  flow's dw/dt, each in frequency space, one strategy at a time
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from egtlab.dynamics import GrowthRule, IntegrationError
from egtlab.games import validate_simplex
from egtlab.links import (FAMILIES, LinkFunction, discrete_effective_link, eval_link,
                          exp_link, linear_link, log_link, power_link, sqrt_link,
                          table_link)


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
    values' rounding of 0, 16 eps max(1, max|f|). The clear test also runs on
    every 10th and every 100th point: a second difference grows with the
    square of the spacing and rounding does not, so a second difference of 0
    reads as clear only where the curvature sits a factor 10^4 below the
    rounding floor of the 1001-point grid."""
    vals = eval_link(f, np.linspace(lo, hi, 1001))
    scale = max(1.0, float(np.abs(vals).max()))
    d1, d2 = np.diff(vals), np.diff(vals, 2)
    tol = 1e-9 * scale
    flags = (bool(d1.min() > -tol), bool(d2.min() >= -tol), bool(d2.max() <= tol))
    rounding = 16.0 * np.finfo(float).eps * scale

    def clear(v):
        d1, d2 = np.diff(v), np.diff(v, 2)
        return abs(d1.min()) >= 10.0 * tol and all(abs(x) >= 10.0 * tol or abs(x) <= rounding
                                                   for x in (d2.min(), d2.max()))

    return flags, all(clear(vals[::k]) for k in (1, 10, 100))


def survival_eps_max(f: LinkFunction, variant: str, a: float, b: float) -> float:
    """The largest shift of the 3x2 midpoint payoff (a + b)/2 that keeps the
    variant's curvature violation on [a, b]: a plain bisection, one link call
    per step, of at most 200 steps."""
    sign = 1.0 if variant == "nonconvex" else -1.0
    ends_mean = 0.5 * (eval_link(f, a) + eval_link(f, b))
    half = 0.5 * (b - a)
    if sign * (eval_link(f, 0.5 * (a + b) - sign * half) - ends_mean) > 0.0:
        eps_max = half
    else:
        e_lo, e_hi = 0.0, half
        for _ in range(200):
            mid = 0.5 * (e_lo + e_hi)
            if mid == e_lo or mid == e_hi:
                break
            if sign * (eval_link(f, 0.5 * (a + b) - sign * mid) - ends_mean) > 0.0:
                e_lo = mid
            else:
                e_hi = mid
        eps_max = e_lo
    return eps_max


def wedge_start(eps4: float, rng) -> np.ndarray:
    """A point of the wedge {x in S4 : x1 x2 x3 <= 0.01, x4 <= eps4} on its
    midline: core product 0.005 and x4 = eps4/2, the core's direction from
    the centre a Dirichlet draw, its product found by 200 halvings of one
    product each."""
    mass = 1.0 - 0.5 * eps4
    target = 0.5 * 0.01 / mass ** 3
    center = np.full(3, 1.0 / 3.0)
    while True:
        d = rng.dirichlet(np.ones(3)) - center
        low = d < 0.0
        if not low.any():
            continue
        lam_hi = 0.999999 * float(np.min(-center[low] / d[low]))
        if np.prod(center + lam_hi * d) >= target:
            continue
        lam_lo = 0.0
        for _ in range(200):
            lam = 0.5 * (lam_lo + lam_hi)
            if np.prod(center + lam * d) > target:
                lam_lo = lam
            else:
                lam_hi = lam
        p = center + 0.5 * (lam_lo + lam_hi) * d
        return np.concatenate([mass * p, [0.5 * eps4]])


# backgrounds C of the effective links ln(C + f) that random_link draws:
# negative, none, small, and large enough to flatten f below a grid's
# resolution
BACKGROUNDS = (-0.5, 0.0, 0.3, 1.0, 10.0, 1e3, 1e6)


def random_link(rng, family):
    """A link of the family on a random domain: lines, rates of both signs,
    integer exponents on domains across 0 (negative ones on either side of
    it), fractional ones on positive domains, rising, falling, mixed and
    straight knot tables, and ln(C + f) of any of those at a background of
    BACKGROUNDS where it is defined."""
    if family == "effective":
        while True:
            f = random_link(rng, rng.choice([g for g in FAMILIES if g != "effective"]))
            try:
                return discrete_effective_link(f, float(rng.choice(BACKGROUNDS)))
            except ValueError:  # C + f not positive somewhere
                pass
    lo = rng.uniform(-5.0, 5.0)
    hi = lo + rng.uniform(0.5, 10.0)
    positive = (abs(lo) + 0.1, abs(lo) + 0.1 + hi - lo)
    if family == "linear":
        return linear_link(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0), (lo, hi))
    if family == "exponential":
        return exp_link(rng.uniform(-2.0, 2.0), (lo, hi))
    if family == "logarithm":
        return log_link(positive)
    if family == "sqrt":
        return sqrt_link(positive)
    if family == "table":
        xs = np.sort(rng.uniform(lo, hi, rng.integers(3, 9)))
        if rng.uniform() < 0.3:
            return table_link(xs, rng.uniform(-3.0, 3.0) * xs + rng.uniform(-5.0, 5.0))
        return table_link(xs, np.cumsum(rng.uniform(-1.0, 2.0, xs.size)))
    if rng.uniform() < 0.5:
        return power_link(rng.uniform(-2.0, 3.0), positive)
    p = float(rng.choice([-3, -2, -1, 1, 2, 3, 4]))
    if p > 0.0:
        return power_link(p, (lo, hi))
    return power_link(p, positive if rng.uniform() < 0.5 else (-positive[1], -positive[0]))


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


def column_lp(gaps):
    """The column LP of egtlab.dominance._max_margin on gaps, built block by
    block: ((cost, A_eq, b_eq, basis), read), where read(x, value, pi) turns
    solve_max's answer into (margin, p, y). The gaps are divided by the
    power of two above max|gaps|; variables are y over the columns, t, and
    one slack per row, started from the pure column c that leaves q least
    behind (first of ties), with y_c eliminated through sum y = 1."""
    nr, nc = gaps.shape
    scale = math.ldexp(1.0, math.frexp(float(np.abs(gaps).max()))[1])
    g = gaps / scale
    worst = g.max(axis=0)
    c = int(np.argmin(worst))
    A_eq = np.zeros((nr + 1, nc + 1 + nr))
    A_eq[:nr, :nc] = g - g[:, c:c + 1]
    A_eq[:nr, nc] = 1.0
    A_eq[:nr, nc + 1:] = np.eye(nr)
    A_eq[nr, :nc] = 1.0
    b_eq = np.append(worst[c] - g[:, c], 1.0)
    cost = np.zeros(nc + 1 + nr)
    cost[nc] = 1.0
    basis = np.append(np.arange(nc + 1, nc + 1 + nr), c)

    def read(x, value, pi):
        return ((float(worst[c]) - value) * scale, np.maximum(pi[:nr], 0.0),
                np.maximum(x[:nc], 0.0))
    return (cost, A_eq, b_eq, basis), read


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


def best_reply_gap(payoff, k: int, y) -> Fraction:
    """(max_i payoff_i . y - payoff_k . y) / sum(y), exactly: the float
    entries of payoff and y are read as the rationals they are. No mixture
    of rows beats row k at every column by more than this gap."""
    y = [Fraction(float(w)) for w in y]
    if min(y) < 0 or sum(y) <= 0:
        raise ValueError("y must be a nonnegative, nonzero column mixture")
    v = [sum((Fraction(float(a)) * w for a, w in zip(row, y) if w), Fraction(0))
         for row in payoff]
    return (max(v) - v[k]) / sum(y)


def exact_margin(payoff, w, k: int, rows, cols) -> Fraction:
    """min over j in cols of sum_i w_i (payoff_ij - payoff_kj) / sum(w),
    exactly: the worst-column advantage of the row mixture w (over all of
    payoff's rows, zero off rows) over row k. The float entries of payoff
    and w are read as the rationals they are."""
    w = [Fraction(float(x)) for x in w]
    if min(w) < 0 or sum(w) <= 0 or any(w[i] for i in set(range(len(w))) - set(rows)):
        raise ValueError("w must be a nonnegative, nonzero mixture over rows")
    total = sum(w)
    return min(sum((w[i] * (Fraction(float(payoff[i][j])) - Fraction(float(payoff[k][j])))
                    for i in rows if w[i]), Fraction(0)) / total for j in cols)


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

    script = script_at(schedule)

    def rate(i, s):
        return eval_link(link, float(payoff[i] @ script(s)))

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


def script_at(schedule):
    """t -> the script's mixture at time t, interpolated column by column
    with np.interp over one period, the first row repeated at its end."""
    period, knots = schedule.period, np.append(schedule.times, schedule.period)
    cols = [np.append(col, col[0]) for col in schedule.values.T]
    return lambda t: np.array([np.interp(t % period, knots, col) for col in cols])


def sample_grid(t_max: float, dt: float, sample_every: int, schedule=None):
    """(bounds, steps, sample times) of the fixed-step grid of dt, built one
    period and then one breakpoint at a time: the script's breakpoints inside
    (0, t_max) in order, each kept if it lies more than 1e-12 max(1, t_max)
    past the last kept bound and before t_max (no script: no breakpoints).
    Segment k takes steps[k] equal steps; the samples are the start, every
    sample_every-th step and the last, a segment's last step ending exactly
    on its bound."""
    cuts, k = [], 0
    while schedule is not None and k * schedule.period < t_max:
        P = schedule.period
        for tb in ([0.0] if k else []) + list(schedule.times[1:]) + [P]:
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


def rk4_flow(rule: GrowthRule, game, x0, opponent=None, t_max: float = 1.0,
             dt: float = 1e-3, sample_every: int = 100):
    """Classic RK4 of the flow in log coordinates at the fixed steps of
    sample_grid, restricted to each population's support.

    The log-rate of strategy i is lam (f(u_i) - gbar), f taken by eval_link
    and u = A y against the opponent mixture y: the population itself
    (opponent None), a Schedule read by script_at, or a coupled partner
    given as a plain (game, rule, y0) whose payoffs are against this
    population and whose own link drives it. lam is 1, or the first rule's
    speed, a link over the mean payoff x . u, which in a coupled run times
    both populations. Each population's logs are renormalized
    after every step. Returns (sample times, logs at the samples, the
    partner's logs at the samples or None)."""
    coupled = isinstance(opponent, tuple)
    schedule = None if coupled else opponent
    script = None if schedule is None else script_at(schedule)
    bounds, steps, times = sample_grid(t_max, dt, sample_every, schedule)
    games, rules, starts = [game], [rule], [x0]
    if coupled:
        games.append(opponent[0])
        rules.append(opponent[1])
        starts.append(opponent[2])
    starts = [np.asarray(x, dtype=float) for x in starts]
    supports = [np.flatnonzero(x > 0) for x in starts]

    def rates(t, zs):
        xs = []
        for z, sup, start in zip(zs, supports, starts):
            e = np.exp(z - z.max())
            x = np.zeros(len(start))
            x[sup] = e / e.sum()
            xs.append(x)
        # a population meets the script, its partner or else itself
        ys = [script(t)] if script is not None else xs[::-1]
        out, us = [], []
        for own_game, own_rule, sup, x, y in zip(games, rules, supports, xs, ys):
            us.append(own_game.payoff[sup] @ y)
            g = eval_link(own_rule.effective_link, us[-1])
            out.append(g - x[sup] @ g)
        if rule.speed is None:
            return out
        lam = eval_link(rule.speed, float(xs[0][supports[0]] @ us[0]))
        return [lam * d for d in out]

    def shifted(zs, h, ds):
        return [z + h * d for z, d in zip(zs, ds)]

    zs = [np.log(x[sup]) for x, sup in zip(starts, supports)]
    samples, count, total = [zs], 0, int(steps.sum())
    for a, b, ns in zip(bounds[:-1].tolist(), bounds[1:].tolist(), steps.tolist()):
        h = (b - a) / ns
        for k in range(ns):
            t = a + k * h
            k1 = rates(t, zs)
            k2 = rates(t + 0.5 * h, shifted(zs, 0.5 * h, k1))
            k3 = rates(t + 0.5 * h, shifted(zs, 0.5 * h, k2))
            k4 = rates(t + h, shifted(zs, h, k3))
            zs = shifted(zs, h / 6.0, [d1 + 2.0 * d2 + 2.0 * d3 + d4
                                       for d1, d2, d3, d4 in zip(k1, k2, k3, k4)])
            zs = [z - (z.max() + np.log(np.exp(z - z.max()).sum())) for z in zs]
            count += 1
            if count % sample_every == 0 or count == total:
                samples.append(zs)
    logs = []
    for j, (x, sup) in enumerate(zip(starts, supports)):
        z = np.full((len(samples), len(x)), -np.inf)
        z[:, sup] = [s[j] for s in samples]
        logs.append(z)
    return times, logs[0], logs[1] if coupled else None


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
    if rule.speed is not None:
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
    if rule.speed is not None:
        lam = eval_link(rule.speed, float(x @ u))
    return lam * rate

"""Ready-made experiment constructions.

Each constructor here searches for game parameters that make a qualitative
phenomenon numerically robust: a strictly dominated pure strategy taking over
against a periodic opponent, a dominating pure strategy dying out, a
four-strategy cycle protecting a dominated strategy (the single-population
construction of Hofbauer and Weibull, 1996, and its mirror image for convex
links), and discrete-time background-fitness thresholds. A construction is a
frozen certificate that holds only its free parameters: (a, b, eps) for the
3x2 square wave, (a, b, c, beta, gamma) for the 4x4 cycles. It derives its
game, schedule and constants from them once, when built, and checks the
inequality system that makes the example work, so holding an instance is
proof the parameters are valid. The build_* functions only search for
parameters; other values construct a certificate directly. Both run one
coarse-to-fine grid search, which evaluates a link once per axis value (and
the 3x2 search once more per midpoint of a pair) and scores its grid in
blocks of bounded size.

The module also exposes the scenario catalog used by the command line: each
runner executes a fixed experiment protocol and returns a JSON-ready report
plus the primary trajectory. A protocol's starting states belong to it, not
to a construction: the dual 4x4 runs draw theirs from a wedge near the
core's face (_wedge_start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import (log_min_support, periodic_floor, taylor_sign_check,
                          verdict, w_series)
from .discrete import affine_background, constant_background, geometric_background, iterate
from .dominance import find_dominator, strict_margin
from .dynamics import GrowthRule, Schedule, integrate
from .games import Game, MixedStrategy, game_to_dict, pure, uniform, validate_simplex
from .links import (LinkFunction, _extremes, discrete_effective_link, eval_link, exp_link,
                    hull_inside, increasing_on, linear_link, power_link, rps_direction,
                    sqrt_link)

_VARIANTS_3X2 = ("nonconvex", "nonconcave")
_MIX_TB = validate_simplex([0.5, 0.0, 0.5])  # the half-half mixture of T and B
_VARIANTS_4X4 = ("hofbauer-weibull", "dual")

# Normalized band for a - (b+c)/2 in the dual cycle search; see build_rps4.
_DUAL_ROTATION_BAND = (0.03, 0.13)

# Most points _grid_search scores at once: it splits a pass's grid into
# blocks along its second axis, so the memory of a search stays bounded.
_GRID_BLOCK = 2 ** 14

# The catalog's sample grid: integrate's default spacing, sampled at every
# 100th point; it picks the samples the checks read, and the stepper sizes
# its own steps. A 3x2 survival run returns at most SURVIVAL_MAX_SAMPLES: its
# horizon is a few periods T, and T grows as 1/alpha, so on a near-linear
# link this grid would take billions of samples.
_DT, _SAMPLE_EVERY = 1e-3, 100
SURVIVAL_MAX_SAMPLES = 20_000


def _check(ok: bool, message: str):
    if not ok:
        raise ValueError(message)


def _grid_search(slack, lo: float, hi: float, dims: int, coarse: int, fine: int):
    """Argmax of slack over [lo, hi]^dims (dims >= 2) on coarse points per
    axis, then on fine points per axis within one coarse step of the winner,
    clipped to the box. slack gets sparse "ij" meshgrid axes, so a link applied
    to an axis runs once per axis value. Returns (point, slack there).

    Each pass scores its grid in blocks of at most _GRID_BLOCK points along
    the second axis, every other axis whole, so slack may read extremes over
    those other axes. Of the blocks' winners, the first in C order among the
    greatest wins, so point and slack are np.argmax's over the whole grid,
    ties and nan included."""
    h = (hi - lo) / (coarse - 1)
    bounds = [(lo, hi)] * dims
    for n in (coarse, fine):
        grids = [np.linspace(l, u, n) for l, u in bounds]
        width = max(1, _GRID_BLOCK // n ** (dims - 1))
        wins = []
        for j in range(0, n, width):
            block = [grids[0], grids[1][j:j + width], *grids[2:]]
            values = slack(*np.meshgrid(*block, indexing="ij", sparse=True))
            idx = np.unravel_index(int(np.argmax(values)), values.shape)
            wins.append(((idx[0], idx[1] + j, *idx[2:]), float(values[idx])))
        wins.sort()  # index tuples sort in C order
        at, best = wins[int(np.argmax([v for _, v in wins]))]
        point = [float(g[i]) for g, i in zip(grids, at)]
        bounds = [(max(lo, v - h), min(hi, v + h)) for v in point]
    return point, best


def _bisect(holds, lo: float, hi: float) -> float:
    """Bisection of [lo, hi] for the edge of holds, which is taken to hold at
    lo and not at hi: the last lo after 200 halvings, or once a midpoint
    rounds to an end (holds is then already known there, so no later step can
    move lo). holds maps an array of points to a bool array; each call gets
    the 15 midpoints the next four halvings could visit, in heap order (the
    halves of node k are nodes 2k+1 and 2k+2), and the four are walked on it."""
    for _ in range(50):
        mids, spans = [], [(lo, hi)]
        for k in range(15):
            lo_k, hi_k = spans[k]
            mids.append(0.5 * (lo_k + hi_k))
            spans += [(lo_k, mids[k]), (mids[k], hi_k)]
        held, k = holds(np.array(mids)), 0
        for _ in range(4):
            mid = mids[k]
            if mid == lo or mid == hi:
                return lo
            if held[k]:
                lo, k = mid, 2 * k + 2
            else:
                hi, k = mid, 2 * k + 1
    return lo


def _derive(con, **values):
    """Set a frozen certificate's derived fields."""
    for name, value in values.items():
        object.__setattr__(con, name, value)


@dataclass(frozen=True)
class SurvivalConstruction:
    """A 3x2 game plus periodic opponent schedule with a domination certificate.

    Rows are T, M, B against opponent columns L, R. M's payoff is the
    endpoint midpoint shifted by eps: downward for the nonconvex variant
    (pure M strictly dominated by the half-half mixture of T and B, margin
    eps, yet M takes over), upward for the nonconcave variant (M strictly
    dominates that mixture, yet M dies out). The game, the square-wave
    schedule and its constants follow from (a, b, eps): alpha is the
    growth-rate gap the shift leaves open, Cf bounds |f| on [a, b], and the
    half-period T is sized so the gap beats the switching losses.
    """

    link: LinkFunction
    variant: str
    a: float
    b: float
    eps: float
    game: Game = field(init=False, compare=False)
    schedule: Schedule = field(init=False, compare=False)
    alpha: float = field(init=False, compare=False)
    Cf: float = field(init=False, compare=False)
    T: int = field(init=False, compare=False)

    def __post_init__(self):
        _check(self.variant in _VARIANTS_3X2,
               f"unknown construction variant {self.variant!r}")
        f, a, b, eps = self.link, self.a, self.b, self.eps
        _check(a < b, f"need a < b, got a={a!r} b={b!r}")
        _check(0.0 < eps < 0.5 * (b - a),
               f"eps {eps!r} outside (0, (b-a)/2)")
        sign = 1.0 if self.variant == "nonconvex" else -1.0
        u_m = 0.5 * (a + b) - sign * eps
        alpha = sign * (eval_link(f, u_m) - 0.5 * (eval_link(f, a) + eval_link(f, b)))
        _check(alpha > 0.0, f"midpoint shift eps={eps!r} leaves no curvature gap")
        Cf = float(np.abs(eval_link(f, _extremes(f, a, b))).max())
        T = int(math.floor((2.0 * Cf + 1.0) / alpha + 1.0)) + 1
        _derive(self, alpha=alpha, Cf=Cf, T=T,
                game=Game([[b, a], [u_m, u_m], [a, b]]),
                schedule=Schedule(2.0 * T, [0.0, T - 1.0, float(T), 2.0 * T - 1.0],
                                  [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        rival = _MIX_TB if self.variant == "nonconvex" else pure(1, 3)
        margin = strict_margin(self.game, rival, self.dominated)
        _check(margin > 0.0, "domination certificate failed")
        _check(abs(margin - eps) <= 1e-9 * max(1.0, eps),
               "domination margin should equal eps")

    @property
    def period(self) -> float:
        return 2.0 * self.T

    @property
    def dominated(self) -> MixedStrategy:
        """The strategy predicted to be eliminated in a static environment:
        pure M (nonconvex) or the half-half mixture of T and B (nonconcave)."""
        return pure(1, 3) if self.variant == "nonconvex" else _MIX_TB


def build_survival(f: LinkFunction, variant: str) -> SurvivalConstruction:
    """Search (a, b) for the strongest curvature violation and construct on it.

    nonconvex wants f(midpoint) above the endpoint mean (impossible for convex
    f), nonconcave the reverse. _grid_search maximizes it over pairs a < b in
    f's domain on 201 then 201 points per axis; to search a smaller box,
    pass dataclasses.replace(f, domain=box). Each pass scores three blocks
    of at most 81 b values, evaluating f on the 201 a values, the block's b
    values and their midpoints. The largest midpoint shift that keeps the
    violation comes from a bisection that evaluates f on the 15 midpoints of
    four halvings at a time. Half of it is spent on the domination margin
    eps; the rest remains as the growth-rate gap alpha.
    """
    _check(variant in _VARIANTS_3X2, f"unknown construction variant {variant!r}")
    lo, hi = f.domain
    sign = 1.0 if variant == "nonconvex" else -1.0
    flag = "convexity" if variant == "nonconvex" else "concavity"

    def slack(a, b):
        gap = sign * (eval_link(f, 0.5 * (a + b)) - 0.5 * (eval_link(f, a) + eval_link(f, b)))
        gap[b <= a + 1e-9 * (hi - lo)] = -np.inf
        return gap

    (a, b), gap = _grid_search(slack, lo, hi, 2, 201, 201)
    scale = max(1.0, float(np.abs(eval_link(f, _extremes(f, lo, hi))).max()))
    if gap <= 1e-9 * scale:
        raise ValueError(
            f"no {flag} violation of the link on [{lo:g}, {hi:g}]; "
            "the construction is impossible there")

    # Largest midpoint shift that keeps the violation, by bisection on the gap.
    centre, ends_mean = 0.5 * (a + b), 0.5 * (eval_link(f, a) + eval_link(f, b))
    half = 0.5 * (b - a)

    def keeps(eps):
        return sign * (eval_link(f, centre - sign * eps) - ends_mean) > 0.0

    eps_max = half if keeps(half) else _bisect(keeps, 0.0, half)
    return SurvivalConstruction(f, variant, a, b, 0.5 * eps_max)


@dataclass(frozen=True)
class Rps4Construction:
    """A cyclic 3x3 core with payoffs (a, b, c) plus a fourth strategy.

    hofbauer-weibull: the fourth strategy earns a + beta against the core and
    gamma is what core strategies earn against it; it is strictly dominated
    by the uniform core mixture, and survives on the cycle for suitable
    concave links. dual: entries m - gamma and m + beta around the core mean
    m make the fourth strategy strictly dominate the uniform core mixture
    (margin at least min(beta, gamma)), and convex links eliminate it anyway.
    m and the game follow from (a, b, c, beta, gamma). A generation map's
    construction takes the exact ln(C + f), discrete_effective_link(f, C).
    """

    link: LinkFunction
    variant: str
    a: float
    b: float
    c: float
    beta: float
    gamma: float
    m: float = field(init=False, compare=False)
    game: Game = field(init=False, compare=False)

    def __post_init__(self):
        _check(self.variant in _VARIANTS_4X4,
               f"unknown construction variant {self.variant!r}")
        f, a, b, c = self.link, self.a, self.b, self.c
        beta, gamma = self.beta, self.gamma
        _check(c < a < b, f"cycle payoffs need c < a < b, got {a!r}, {b!r}, {c!r}")
        _check(beta > 0.0 and gamma > 0.0, "beta and gamma must be positive")
        m = (a + b + c) / 3.0
        core = [[a, c, b], [b, a, c], [c, b, a]]
        if self.variant == "hofbauer-weibull":
            _check(a < 0.5 * (b + c), "the core must cycle inward for linear growth")
            _check(m > a + beta, "mean payoff must exceed a + beta")
            rows = [r + [gamma] for r in core] + [[a + beta] * 3 + [0.0]]
            direction = "outward"
        else:
            _check(a > 0.5 * (b + c), "the core must cycle outward for linear growth")
            rows = [r + [m - gamma] for r in core] + [[m + beta] * 3 + [m]]
            direction = "inward"
        game = Game(rows)
        _derive(self, m=m, game=game)
        lo, hi = float(game.payoff.min()), float(game.payoff.max())
        _check(hull_inside(f, (lo, hi)),
               f"assembled payoffs span [{lo:g}, {hi:g}], "
               f"outside the link domain [{f.domain[0]:g}, {f.domain[1]:g}]")
        _check(increasing_on(f, lo, hi),
               f"link is not increasing on the assembled payoffs [{lo:g}, {hi:g}]")
        got = rps_direction(f, a, b, c)
        _check(got == direction,
               f"link turns the core {got}, construction needs {direction}")
        p = np.array([1.0, 1.0, 1.0, 0.0]) / 3.0
        if self.variant == "hofbauer-weibull":
            margin = strict_margin(game, p, pure(3, 4))
            _check(margin > 0.0, "fourth strategy is not strictly dominated")
        else:
            margin = strict_margin(game, pure(3, 4), p)
            _check(margin >= min(beta, gamma) * (1.0 - 1e-9),
                   "dominance margin fell below min(beta, gamma)")

    @property
    def core_game(self) -> Game:
        """The 3x3 cycle on its own."""
        return Game(self.game.payoff[:3, :3])


def build_rps4(f: LinkFunction, variant: str, search_box=None) -> Rps4Construction:
    """Search cycle payoffs whose linked growth rates disagree with the raw
    ones, and construct on them.

    The inequality system couples the linear cycle direction (through the raw
    payoffs) with the linked one (through f). _grid_search picks the triple
    in search_box (lo, hi), f's domain by default, with the largest worst
    normalized slack on 50 then 21 points per axis, evaluating f on the
    three axes only. The coarse pass scores nine blocks of six b values,
    each with the a and c axes whole, so the span of f that normalizes the
    slack is the whole grid's; the fine pass is one block.
    beta and gamma are 2% and 10% of the payoff spread, beta clamped to keep
    the fourth strategy dominated in the hofbauer-weibull variant. Other
    parameters construct an Rps4Construction directly.
    """
    _check(variant in _VARIANTS_4X4, f"unknown construction variant {variant!r}")
    lo, hi = search_box if search_box is not None else f.domain
    lo, hi = float(lo), float(hi)
    _check(lo < hi, f"empty search box [{lo!r}, {hi!r}]")
    want_outward = variant == "hofbauer-weibull"

    def slack(va, vb, vc):
        fa, fb, fc = eval_link(f, va), eval_link(f, vb), eval_link(f, vc)
        span = hi - lo
        f_span = max(abs(float(fa.max()) - float(fc.min())), 1e-30)
        order = np.minimum(va - vc, vb - va) / span
        linear = (0.5 * (vb + vc) - va) / span
        linked = (fa - 0.5 * (fb + fc)) / f_span
        if want_outward:
            return np.minimum(np.minimum(order, linear), linked)
        # The raw-payoff rotation must leave the center, but only weakly: the
        # stronger it is, the wider the attracting cycle and the deeper its
        # swings toward the boundary. Confining a - (b+c)/2 to a narrow band
        # keeps the cycle tight while the linked inequalities stay
        # slack-maximized.
        w_lo, w_hi = _DUAL_ROTATION_BAND
        half = 0.5 * (w_hi - w_lo)
        s_lo = (-linear - w_lo) / half
        s_hi = (w_hi + linear) / half
        return np.minimum(np.minimum(order, -linked), np.minimum(s_lo, s_hi))

    (a, b, c), best = _grid_search(slack, lo, hi, 3, 50, 21)
    if best <= 0.0:
        raise ValueError(
            f"no feasible cycle payoffs for variant {variant!r} on "
            f"[{lo:g}, {hi:g}]")
    spread = b - c
    beta = 0.02 * spread
    if want_outward:
        beta = min(beta, 0.5 * ((a + b + c) / 3.0 - a))
    return Rps4Construction(f, variant, a, b, c, beta, 0.1 * spread)


# The bound on the core product x1 x2 x3 of the wedge the dual runs start in
_RHO = 0.01


def _wedge_start(eps4: float, rng) -> np.ndarray:
    """One start of a dual run: an interior point of the wedge {x in S4 :
    x1 x2 x3 <= _RHO, x4 <= eps4}, on its midline, with core product _RHO/2
    and x4 = eps4/2. The core's direction from the centre is a Dirichlet
    draw, and a bisection along it finds the core product.

    The wedge is not forward invariant. At run_dual_4x4's defaults each of
    the ten runs leaves it by t = 1.9, as the core product climbs towards
    the core's attracting periodic orbit, where it peaks near 0.027, while
    x4 keeps falling (0.012 to 0.018 on leaving). Whether the fourth
    strategy dies is decided by its transversal exponent along that orbit,
    the period mean of f(m + beta) - gbar (see ROADMAP.md).
    """
    _check(0.0 < eps4 < 1.0, f"eps4 must be in (0, 1), got {eps4!r}")
    mass = 1.0 - 0.5 * eps4
    target = 0.5 * _RHO / mass ** 3
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


# ---------------------------------------------------------------------------
# Scenario runners. Each returns (report dict, primary trajectory); reports
# hold full-precision floats and a deterministic seed record.


def _link_desc(f: LinkFunction | None):
    if f is None:
        return "replicator"
    if f.family == "effective":
        return {"family": "effective", "background": f.params[0],
                "inner": _link_desc(f.inner)}
    return {"family": f.family, "params": list(f.params),
            "domain": [f.domain[0], f.domain[1]]}


def _tail(arr):
    """The last quarter of arr's rows, at least one."""
    return arr[-(len(arr) // 4 or 1):]


def _finish(report: dict, name: str, seed: int, link: LinkFunction | None) -> dict:
    """The report of scenario name, led by its name, seed and link and
    closed by ok: whether every check passed."""
    return {"scenario": name, "seed": seed, "link": _link_desc(link), **report,
            "ok": all(report["checks"].values())}


def run_discussion(link: LinkFunction | None = None, *, seed: int = 0,
                   t_max: float = 200.0):
    """Three-strategy game where a mixture loses to the third pure strategy."""
    game = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])
    q = np.array([0.5, 0.5, 0.0])
    dom = find_dominator(game, q, mode="mixed")
    traj = integrate(GrowthRule(link=link), game, [0.4, 0.4, 0.2], t_max=t_max, dt=_DT,
                     sample_every=_SAMPLE_EVERY)
    w = w_series(traj, pure(2, 3), q)
    growth = float(w[-1] - w[0])
    bound = dom.margin * t_max * (1.0 - 1e-3)
    final_min = float(np.exp(log_min_support(traj, q)[-1]))
    v = verdict(traj, q)
    report = {
        "game": game_to_dict(game),
        "lp_margin": dom.margin,
        "run": {"t_max": t_max, "dt": _DT, "method": traj.meta["method"],
                "w_growth": growth,
                "w_growth_bound": bound, "min_support_final": final_min},
        "verdicts": {"mixture": v.__dict__},
        "checks": {
            "mixture-strictly-dominated": dom.margin > 0.0,
            "w-grows-at-margin-rate": growth >= bound,
            "min-support-below-1e-8": final_min < 1e-8,
            "verdict-eliminated": v.status == "eliminated",
        },
    }
    return _finish(report, "discussion", seed, link), traj


def _survival_sample_every(schedule: Schedule, t_max: float) -> int:
    """The catalog's _SAMPLE_EVERY, made coarser where a run to t_max would
    return more than SURVIVAL_MAX_SAMPLES samples."""
    # points of the catalog's grid: at most one per _DT, plus one per cut
    points = (math.ceil(t_max / _DT) + 1
              + len(schedule.times) * math.ceil(t_max / schedule.period))
    return max(_SAMPLE_EVERY, math.ceil(points / (SURVIVAL_MAX_SAMPLES - 1)))


def run_survival_nonconvex(link: LinkFunction | None = None, *, seed: int = 0):
    """Square-wave opponent carries the dominated pure strategy to fixation."""
    f = link if link is not None else sqrt_link((1.0, 9.0))
    con = build_survival(f, "nonconvex")
    t_max = 12 * con.period
    traj = integrate(GrowthRule(link=f), con.game, uniform(3).weights,
                     opponent=con.schedule, t_max=t_max, dt=_DT,
                     sample_every=_survival_sample_every(con.schedule, t_max))
    x_m = float(traj.states[-1, 1])
    v = verdict(traj, con.dominated)
    report = {
        "construction": _survival_desc(con),
        "run": {"t_max": t_max, "dt": _DT, "method": traj.meta["method"],
                "x_M_final": x_m},
        "verdicts": {"M": v.__dict__},
        "checks": {
            "dominated-pure-takes-over": x_m > 0.99,
            "verdict-survived": v.status == "survived",
        },
    }
    return _finish(report, "survival-nonconvex", seed, f), traj


def run_survival_nonconcave(link: LinkFunction | None = None, *, seed: int = 0,
                            periods: int = 8):
    """Square-wave opponent preserves the mixture a pure strategy dominates."""
    f = link if link is not None else power_link(2.0, (-3.0, 3.0))
    con = build_survival(f, "nonconcave")
    t_max = periods * con.period
    traj = integrate(GrowthRule(link=f), con.game, uniform(3).weights,
                     opponent=con.schedule, t_max=t_max, dt=_DT,
                     sample_every=_survival_sample_every(con.schedule, t_max))
    x_m = float(traj.states[-1, 1])
    floor = periodic_floor(traj, (0, 2), con.period)
    prod = np.exp(traj.log_states[:, 0] + traj.log_states[:, 2])
    late_max = float(_tail(prod).max())
    v_m = verdict(traj, pure(1, 3))
    v_mix = verdict(traj, con.dominated)
    report = {
        "construction": _survival_desc(con),
        "run": {"t_max": t_max, "dt": _DT, "method": traj.meta["method"],
                "x_M_final": x_m, "product_floor": floor, "product_late_max": late_max},
        "verdicts": {"M": v_m.__dict__, "mixture": v_mix.__dict__},
        "checks": {
            "dominating-pure-dies": x_m < 1e-4,
            "dominated-mixture-floor-above-0.01": floor > 0.01,
            "late-max-in-quarter-band": 0.235 <= late_max <= 0.25,
            "verdict-M-eliminated": v_m.status == "eliminated",
            "verdict-mixture-survived": v_mix.status == "survived",
        },
    }
    return _finish(report, "survival-nonconcave", seed, f), traj


def _survival_desc(con: SurvivalConstruction) -> dict:
    return {"variant": con.variant, "a": con.a, "b": con.b, "eps": con.eps,
            "u_M": float(con.game.payoff[1, 0]), "alpha": con.alpha,
            "Cf": con.Cf, "T": con.T, "period": con.period}


def _rps4_desc(con: Rps4Construction) -> dict:
    return {"variant": con.variant, "a": con.a, "b": con.b, "c": con.c,
            "beta": con.beta, "gamma": con.gamma, "m": con.m,
            "payoff": con.game.payoff.tolist()}


def _rps4_runs(f: LinkFunction, con: Rps4Construction, starts: np.ndarray, judge,
               t_max: float):
    """All starts of a 4x4 construction in one batched self-play flow.

    starts holds the (n_seeds, 4) initial states, judge(traj) gives the
    per-seed records and whether the construction passed. While it does not,
    beta is halved and the construction rebuilt, at most 6 times, and run
    from the same starts. Returns (construction, halvings, batch trajectory,
    records).
    """
    rule = GrowthRule(link=f)
    halvings = 0
    while True:
        traj = integrate(rule, con.game, starts, t_max=t_max, dt=_DT,
                         sample_every=_SAMPLE_EVERY)
        runs, passed = judge(traj)
        if passed or halvings >= 6:
            return con, halvings, traj, runs
        halvings += 1
        con = replace(con, beta=con.beta / 2.0)


def run_hw_4x4(link: LinkFunction | None = None, *, seed: int = 0,
               t_max: float = 200.0, n_seeds: int = 10):
    """Dominated fourth strategy persists near the saddle loop.

    The attractor is a cycle through the rest points on the edges joining
    each core strategy to strategy 4, so initial conditions sit on those
    edges (x4 at 1%) pushed 1e-2 into the interior. The persistence claim
    is an open-set one, so 8 of 10 seeds must keep x4 up; beta is halved
    and the construction rebuilt when they do not.
    """
    f = link if link is not None else sqrt_link((0.0, 20.0))

    rng = np.random.default_rng(seed)
    x0 = np.full((n_seeds, 4), 0.01)
    for s, x in enumerate(x0):
        i = s % 3
        others = [j for j in range(3) if j != i]
        x[others] += rng.uniform(-0.002, 0.002, size=2)
        x[i] = 1.0 - float(x[others].sum()) - 0.01

    def judge(traj):
        low = np.exp(_tail(traj.log_states[:, :, 3]).min(axis=0))
        runs = [{"seed_index": s, "x4_last_quarter_min": float(v), "persists": bool(v > 1e-3)}
                for s, v in enumerate(low)]
        return runs, sum(r["persists"] for r in runs) >= 8

    con, halvings, traj, runs = _rps4_runs(
        f, build_rps4(f, "hofbauer-weibull", (0.01, 20.0)), x0, judge, t_max)
    dom = find_dominator(con.game, pure(3, 4).weights, mode="mixed")
    survivors = sum(r["persists"] for r in runs)
    report = {
        "construction": _rps4_desc(con),
        "beta_halvings": halvings,
        "lp_margin": dom.margin,
        "run": {"t_max": t_max, "dt": _DT, "method": traj.meta["method"], "seeds": runs,
                "survivors": survivors},
        "checks": {
            "fourth-strategy-certified-dominated": dom.margin > 0.0,
            "persists-on-at-least-8-seeds": survivors >= 8,
        },
    }
    return _finish(report, "hw-4x4", seed, f), traj.member(0)


def run_dual_4x4(link: LinkFunction | None = None, *, seed: int = 0,
                 t_max: float = 300.0, n_seeds: int = 10,
                 eps4: float = 0.04, taylor_samples: int = 200):
    """Dominating fourth strategy dies from starts in the wedge; the core cycle lives.

    The n_seeds starts come from _wedge_start, in the wedge x1 x2 x3 <=
    _RHO, x4 <= eps4 near the core's face. Every start must eliminate
    strategy 4 while the core product x1 x2 x3 stays above 1e-3 over the
    last quarter; the near-center drift check must fall on every sample.
    """
    f = link if link is not None else exp_link(1.0, (-2.0, 2.0))
    con = build_rps4(f, "dual")
    frac = taylor_sign_check(GrowthRule(link=f), con.core_game, radius=0.01,
                             samples=taylor_samples, seed=seed)

    rng = np.random.default_rng(seed)
    x0 = np.array([_wedge_start(eps4, rng) for _ in range(n_seeds)])

    def judge(traj):
        x4_final = traj.states[-1, :, 3]
        core_min = np.exp(_tail(traj.log_states[:, :, :3].sum(axis=2)).min(axis=0))
        runs = [{"seed_index": s, "x4_final": float(x4), "core_product_last_quarter_min":
                 float(low), "ok": bool(x4 < 1e-4 and low > 1e-3)}
                for s, (x4, low) in enumerate(zip(x4_final, core_min))]
        return runs, all(r["ok"] for r in runs)

    con, halvings, traj, runs = _rps4_runs(f, con, x0, judge, t_max)
    dom = find_dominator(con.game, np.array([1, 1, 1, 0]) / 3.0, mode="mixed")
    report = {
        "construction": _rps4_desc(con),
        "beta_halvings": halvings,
        "lp_margin": dom.margin,
        "taylor_negative_fraction": frac,
        "run": {"t_max": t_max, "dt": _DT, "method": traj.meta["method"], "rho": _RHO,
                "eps4": eps4, "seeds": runs},
        "checks": {
            "margin-at-least-min-beta-gamma":
                dom.margin >= min(con.beta, con.gamma) * (1.0 - 1e-9),
            "every-seed-eliminates-strategy-4": all(r["ok"] for r in runs),
            "near-center-drift-always-negative": frac == 1.0,
        },
    }
    return _finish(report, "dual-4x4", seed, f), traj.member(0)


def _generation_drift(con: SurvivalConstruction, f_rule: LinkFunction):
    """Exact per-generation change of ln x_M - mean of ln x_T, ln x_B, as a
    function of the constant background C, and the C_bar where it changes
    sign.

    Integer times always land on the square wave's corners, so with growth
    rates g = f_rule(payoff) each generation contributes
    ln(C + g_M) - [ln(C + g_T) + ln(C + g_B)] / 2. That is zero where
    (C + g_M)^2 = (C + g_T)(C + g_B), which is linear in C:
    C_bar = (g_T g_B - g_M^2) / (2 g_M - g_T - g_B), the drift positive below
    it and negative above. When 2 g_M >= g_T + g_B the drift stays positive
    for large C, and no background eliminates M. The three rates are
    evaluated once, here.
    """
    u_m = float(con.game.payoff[1, 0])
    gm, ga, gb = (float(eval_link(f_rule, v)) for v in (u_m, con.a, con.b))
    slope = 2.0 * gm - ga - gb
    if slope >= 0.0:
        raise ValueError("no finite background threshold on this game")
    return (lambda C: math.log(C + gm) - 0.5 * (math.log(C + ga) + math.log(C + gb)),
            (ga * gb - gm * gm) / slope)


def _background_setup(link: LinkFunction | None):
    """Rule link, its zero-background generation transform, the game built
    against that transform, and the shared starting point."""
    # Domain top near 15 keeps both schedule outcomes far from their bars:
    # the early-generation splits scale with the payoff spread, and a wide
    # box lets the square wave's first leg crush x_B before a fast schedule
    # freezes the map, dragging x_M's absolute value down with it.
    f_rule = link if link is not None else linear_link(1.0, 0.0, (1.0, 15.0))
    effective = discrete_effective_link(f_rule, 0.0)
    con = build_survival(effective, "nonconvex")
    return f_rule, effective, con, GrowthRule(link=f_rule), uniform(3).weights


def run_background_threshold(link: LinkFunction | None = None, *, seed: int = 0,
                             n_max: int | None = None, big_c: float = 1e6):
    """Background fitness decides the fate of the dominated strategy.

    The game is built against the generation map's effective growth
    transform at zero background, ln of the growth rate, whose concavity
    lets M survive; a large constant background flattens the transform
    enough to eliminate it. The report includes the background threshold
    where the exact per-generation drift changes sign, in closed form.
    """
    f_rule, effective, con, rule, x0 = _background_setup(link)
    drift, c_bar = _generation_drift(con, f_rule)
    t0 = iterate(rule, con.game, x0, opponent=con.schedule, n_max=10_000,
                 background=constant_background(0.0))
    v0 = verdict(t0, pure(1, 3))

    drift_big = drift(big_c)
    if drift_big >= 0.0:
        raise ValueError(f"background {big_c:g} does not flatten the map")
    if n_max is None:
        n_max = int(math.ceil((-math.log(1e-6) + 2.0) / -drift_big))
        n_max += -n_max % 100  # a whole number of iterate's sample steps
    t1 = iterate(rule, con.game, x0, opponent=con.schedule, n_max=n_max,
                 background=constant_background(big_c))
    v1 = verdict(t1, pure(1, 3))
    report = {
        "effective_link": _link_desc(effective),
        "construction": _survival_desc(con),
        "threshold": {"C_bar": c_bar,
                      "drift_at_zero": drift(0.0),
                      "drift_at_big": drift_big, "big_C": big_c,
                      "n_max_big": n_max},
        "verdicts": {"C0": v0.__dict__, "big": v1.__dict__},
        "checks": {
            "survives-without-background": v0.status == "survived",
            "eliminated-at-large-background": v1.status == "eliminated",
            "threshold-is-finite": math.isfinite(c_bar) and 0.0 < c_bar < big_c,
        },
    }
    return _finish(report, "background-threshold", seed, f_rule), t1


def run_background_schedules(link: LinkFunction | None = None, *, seed: int = 0,
                             n_max: int = 10_000):
    """Growing backgrounds: slow growth still eliminates, fast growth freezes.

    An affine schedule C_n = n + 1 has divergent sum of 1/C_n and drives the
    dominated strategy out; a geometric schedule C_n = 2^n makes the
    per-generation effects absolutely summable, so the state freezes and the
    strategy survives. The game is the same one background-threshold uses.
    """
    f_rule, effective, con, rule, x0 = _background_setup(link)
    q_m = pure(1, 3)
    mix = np.array([0.5, 0.0, 0.5])
    t_aff = iterate(rule, con.game, x0, opponent=con.schedule, n_max=n_max,
                    background=affine_background(1.0, 1.0))
    t_geo = iterate(rule, con.game, x0, opponent=con.schedule, n_max=n_max,
                    background=geometric_background(1.0, 2.0))
    v_aff = verdict(t_aff, q_m)
    v_geo = verdict(t_geo, q_m)
    min_aff = float(np.exp(log_min_support(t_aff, q_m)[-1]))
    w_geo = w_series(t_geo, q_m, mix)
    k = int(np.searchsorted(t_geo.times, n_max / 10.0))
    tail_move = abs(float(w_geo[-1] - w_geo[k]))
    report = {
        "effective_link": _link_desc(effective),
        "construction": _survival_desc(con),
        "run": {"n_max": n_max, "affine_min_support_final": min_aff,
                "geometric_w_tail_move": tail_move,
                "geometric_x_M_final": float(t_geo.states[-1, 1])},
        "verdicts": {"affine": v_aff.__dict__, "geometric": v_geo.__dict__},
        "checks": {
            "divergent-schedule-eliminates": v_aff.status == "eliminated",
            "affine-min-support-below-1e-4": min_aff < 1e-4,
            "geometric-schedule-preserves": v_geo.status == "survived",
            "geometric-w-tail-still": tail_move < 0.05,
        },
    }
    return _finish(report, "background-schedules", seed, f_rule), t_geo


SCENARIOS = {
    "discussion": run_discussion,
    "survival-nonconvex": run_survival_nonconvex,
    "survival-nonconcave": run_survival_nonconcave,
    "hw-4x4": run_hw_4x4,
    "dual-4x4": run_dual_4x4,
    "background-threshold": run_background_threshold,
    "background-schedules": run_background_schedules,
}

# Payoff interval handed to link parsing when a CLI spec has no domain suffix.
SCENARIO_INTERVALS = {
    "discussion": (0.0, 3.0),
    "survival-nonconvex": (1.0, 9.0),
    "survival-nonconcave": (-3.0, 3.0),
    "hw-4x4": (0.0, 20.0),
    "dual-4x4": (-2.0, 2.0),
    "background-threshold": (1.0, 15.0),
    "background-schedules": (1.0, 15.0),
}

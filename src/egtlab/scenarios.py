"""Ready-made experiment constructions.

Each constructor here searches for game parameters that make a qualitative
phenomenon numerically robust: a strictly dominated pure strategy taking over
against a periodic opponent, a dominating pure strategy dying out, a
four-strategy cycle protecting a dominated strategy (the single-population
construction of Hofbauer and Weibull, 1996, and its mirror image for convex
links), and discrete-time background-fitness thresholds. Constructors return
frozen certificate objects: the full inequality system that makes the example
work is re-checked at construction time, so holding an instance is proof the
parameters are valid.

The module also exposes the scenario catalog used by the command line: each
runner executes a fixed experiment protocol and returns a JSON-ready report
plus the primary trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import (log_min_support, periodic_floor, taylor_sign_check,
                          verdict, w_series)
from .discrete import affine_background, constant_background, geometric_background, iterate
from .dominance import find_dominator, strict_margin
from .dynamics import GrowthRule, Schedule, integrate
from .games import Game, game_to_dict, pure, uniform, validate_simplex
from .links import (LinkFunction, classify_link, discrete_effective_link,
                    domain_pad, eval_link, exp_link, linear_link, power_link,
                    rps_direction, sqrt_link)

_VARIANTS_3X2 = ("nonconvex", "nonconcave")
_VARIANTS_4X4 = ("hofbauer-weibull", "dual")

# Normalized band for a - (b+c)/2 in the dual cycle search; see build_rps4.
_DUAL_ROTATION_BAND = (0.03, 0.13)


def _check(ok: bool, message: str):
    if not ok:
        raise ValueError(message)


def _midpoint_gap(f: LinkFunction, a, b, sign: float):
    """sign * (f(midpoint) - mean of endpoint values); positive = violation."""
    return sign * (eval_link(f, 0.5 * (np.asarray(a) + np.asarray(b)))
                   - 0.5 * (eval_link(f, a) + eval_link(f, b)))


@dataclass(frozen=True)
class SurvivalConstruction:
    """A 3x2 game plus periodic opponent schedule with a domination certificate.

    Rows are T, M, B against opponent columns L, R. M's payoff is the
    endpoint midpoint shifted by eps: downward for the nonconvex variant
    (pure M strictly dominated by the half-half mixture of T and B, margin
    eps, yet M takes over), upward for the nonconcave variant (M strictly
    dominates that mixture, yet M dies out). alpha is the growth-rate gap
    the shift leaves open; Cf bounds |f| on [a, b]; the square-wave period
    2T is sized so the gap beats the switching losses.
    """

    game: Game
    link: LinkFunction
    a: float
    b: float
    eps: float
    variant: str
    schedule: Schedule
    T: int
    alpha: float
    Cf: float

    def __post_init__(self):
        _check(self.variant in _VARIANTS_3X2,
               f"unknown construction variant {self.variant!r}")
        a, b, eps = self.a, self.b, self.eps
        _check(a < b, f"need a < b, got a={a!r} b={b!r}")
        _check(0.0 < eps < 0.5 * (b - a),
               f"eps {eps!r} outside (0, (b-a)/2)")
        sign = 1.0 if self.variant == "nonconvex" else -1.0
        u_m = 0.5 * (a + b) - sign * eps
        want = np.array([[b, a], [u_m, u_m], [a, b]])
        _check(np.allclose(self.game.payoff, want, rtol=0.0, atol=1e-12),
               "payoff matrix does not match the (a, b, eps) parameters")
        gap = sign * (eval_link(self.link, u_m)
                      - 0.5 * (eval_link(self.link, a) + eval_link(self.link, b)))
        _check(gap > 0.0, f"midpoint shift eps={eps!r} leaves no curvature gap")
        _check(abs(gap - self.alpha) <= 1e-9 * max(1.0, abs(gap)),
               "stored alpha does not match the recomputed gap")
        _check(self.Cf > 0.0, "Cf must be a positive bound on |f|")
        _check(self.T > (2.0 * self.Cf + 1.0) / self.alpha + 1.0,
               "half-period T too short for the gap alpha")
        sched = self.schedule
        _check(sched.n_strategies == 2 and abs(sched.period - 2.0 * self.T) < 1e-9,
               "schedule period must be 2T over the two opponent columns")
        want_t = np.array([0.0, self.T - 1.0, self.T, 2.0 * self.T - 1.0])
        want_v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        _check(np.array_equal(sched.times, want_t)
               and np.array_equal(sched.values, want_v),
               "schedule is not the square wave with unit crossfades")
        mix = np.array([0.5, 0.0, 0.5])
        if self.variant == "nonconvex":
            margin = strict_margin(self.game, mix, pure(1, 3))
        else:
            margin = strict_margin(self.game, pure(1, 3), mix)
        _check(margin > 0.0, "domination certificate failed")
        _check(abs(margin - eps) <= 1e-9 * max(1.0, eps),
               "domination margin should equal eps")

    @property
    def period(self) -> float:
        return 2.0 * self.T

    @property
    def dominated(self):
        """The strategy predicted to be eliminated in a static environment."""
        return pure(1, 3) if self.variant == "nonconvex" else np.array([0.5, 0.0, 0.5])


def build_survival(f: LinkFunction, variant: str, search_box=None,
                   eps_frac: float = 0.5) -> SurvivalConstruction:
    """Search (a, b) for the strongest curvature violation and assemble the game.

    nonconvex wants f(midpoint) above the endpoint mean (impossible for convex
    f), nonconcave the reverse. eps_frac in (0, 1) sets how much of the
    violation slack is spent on the domination margin; the rest remains as
    the growth-rate gap alpha.
    """
    _check(variant in _VARIANTS_3X2, f"unknown construction variant {variant!r}")
    if not 0.0 < eps_frac < 1.0:
        raise ValueError(f"eps_frac must be in (0, 1), got {eps_frac!r}")
    lo, hi = search_box if search_box is not None else f.domain
    lo, hi = float(lo), float(hi)
    _check(lo < hi, f"empty search box [{lo!r}, {hi!r}]")
    sign = 1.0 if variant == "nonconvex" else -1.0
    flag = "convexity" if variant == "nonconvex" else "concavity"
    cls = classify_link(f, interval=(lo, hi))
    if (variant == "nonconvex" and cls.convex) or (variant == "nonconcave" and cls.concave):
        raise ValueError(
            f"no {flag} violation of the link on [{lo:g}, {hi:g}]; "
            "the construction is impossible there")

    def best_pair(alo, blo, ahi, bhi, n):
        ga = np.linspace(alo, ahi, n)
        gb = np.linspace(blo, bhi, n)
        aa, bb = np.meshgrid(ga, gb, indexing="ij")
        gap = _midpoint_gap(f, aa, bb, sign)
        gap[bb <= aa + 1e-9 * (hi - lo)] = -np.inf
        k = int(np.argmax(gap))
        return float(aa.flat[k]), float(bb.flat[k]), float(gap.flat[k])

    n = 201
    a, b, gap = best_pair(lo, lo, hi, hi, n)
    h = (hi - lo) / (n - 1)
    a, b, gap = best_pair(max(lo, a - h), max(lo, b - h),
                          min(hi, a + h), min(hi, b + h), n)
    scale = max(1.0, float(np.abs(eval_link(f, np.linspace(lo, hi, 257))).max()))
    if gap <= 1e-9 * scale:
        raise ValueError(
            f"no {flag} violation of the link on [{lo:g}, {hi:g}]; "
            "the construction is impossible there")

    # Largest midpoint shift that keeps the violation, by bisection on the gap.
    # Once mid rounds to e_lo or e_hi, the gap there is already known, so no
    # later step can move e_lo.
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
    eps = eps_frac * eps_max
    u_m = 0.5 * (a + b) - sign * eps
    alpha = sign * (eval_link(f, u_m) - ends_mean)
    _check(alpha > 0.0, "midpoint shift consumed the whole violation slack")
    Cf = float(np.abs(eval_link(f, np.linspace(a, b, 1001))).max())
    T = int(math.floor((2.0 * Cf + 1.0) / alpha + 1.0)) + 1
    game = Game([[b, a], [u_m, u_m], [a, b]], ("T", "M", "B"), ("L", "R"))
    schedule = Schedule(2.0 * T, [0.0, T - 1.0, float(T), 2.0 * T - 1.0],
                        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    return SurvivalConstruction(game, f, a, b, eps, variant, schedule, T, alpha, Cf)


@dataclass(frozen=True)
class Rps4Construction:
    """A cyclic 3x3 core with payoffs (a, b, c) plus a fourth strategy.

    hofbauer-weibull: the fourth strategy earns a + beta against the core and
    gamma is what core strategies earn against it; it is strictly dominated
    by the uniform core mixture, and survives on the cycle for suitable
    concave links. dual: entries m - gamma and m + beta around the core mean
    m make the fourth strategy strictly dominate the uniform core mixture
    (margin at least min(beta, gamma)), and convex links eliminate it anyway.
    A generation map's construction takes discrete_effective_link(f, C) as
    its link.
    """

    game: Game
    link: LinkFunction
    a: float
    b: float
    c: float
    beta: float
    gamma: float
    m: float
    variant: str

    def __post_init__(self):
        _check(self.variant in _VARIANTS_4X4,
               f"unknown construction variant {self.variant!r}")
        a, b, c = self.a, self.b, self.c
        beta, gamma, m = self.beta, self.gamma, self.m
        _check(c < a < b, f"cycle payoffs need c < a < b, got {a!r}, {b!r}, {c!r}")
        _check(beta > 0.0 and gamma > 0.0, "beta and gamma must be positive")
        _check(abs(m - (a + b + c) / 3.0) <= 1e-12 * max(1.0, abs(m)),
               "m must be the core payoff mean")
        core = np.array([[a, c, b], [b, a, c], [c, b, a]])
        want = np.zeros((4, 4))
        want[:3, :3] = core
        if self.variant == "hofbauer-weibull":
            _check(m > a + beta, "mean payoff must exceed a + beta")
            _check(a < 0.5 * (b + c), "the core must cycle inward for linear growth")
            want[:3, 3] = gamma
            want[3, :3] = a + beta
            direction = "outward"
        else:
            _check(a > 0.5 * (b + c), "the core must cycle outward for linear growth")
            want[:3, 3] = m - gamma
            want[3, :3] = m + beta
            want[3, 3] = m
            direction = "inward"
        _check(np.allclose(self.game.payoff, want, rtol=0.0, atol=1e-12),
               "payoff matrix does not match the stored parameters")
        got = rps_direction(self.link, a, b, c, mode="continuous-functional")
        _check(got == direction,
               f"link turns the core {got}, construction needs {direction}")
        p = np.array([1.0, 1.0, 1.0, 0.0]) / 3.0
        if self.variant == "hofbauer-weibull":
            margin = strict_margin(self.game, p, pure(3, 4))
            _check(margin > 0.0, "fourth strategy is not strictly dominated")
        else:
            margin = strict_margin(self.game, pure(3, 4), p)
            _check(margin >= min(beta, gamma) * (1.0 - 1e-9),
                   "dominance margin fell below min(beta, gamma)")

    @property
    def core_game(self) -> Game:
        """The 3x3 cycle on its own."""
        return named_game("rps-base", self.a, self.b, self.c)


def build_rps4(f: LinkFunction, variant: str, search_box=None, *, abc=None,
               beta: float | None = None,
               gamma: float | None = None) -> Rps4Construction:
    """Find cycle payoffs whose linked growth rates disagree with the raw ones.

    The inequality system couples the linear cycle direction (through the raw
    payoffs) with the linked one (through f); a coarse grid over the box
    picks the triple with the largest worst normalized slack, then a local
    pass refines it. abc skips the search. beta and gamma default to 2% and 10% of the payoff spread,
    beta clamped to keep the fourth strategy dominated in the
    hofbauer-weibull variant.
    """
    _check(variant in _VARIANTS_4X4, f"unknown construction variant {variant!r}")
    lo, hi = search_box if search_box is not None else f.domain
    lo, hi = float(lo), float(hi)
    _check(lo < hi, f"empty search box [{lo!r}, {hi!r}]")
    want_outward = variant == "hofbauer-weibull"

    if abc is None:
        def best_triple(bounds, n):
            grids = [np.linspace(l, h, n) for l, h in bounds]
            va, vb, vc = np.meshgrid(*grids, indexing="ij", sparse=True)
            fa, fb, fc = eval_link(f, va), eval_link(f, vb), eval_link(f, vc)
            span = hi - lo
            f_span = max(abs(float(fa.max()) - float(fc.min())), 1e-30)
            order = np.minimum(va - vc, vb - va) / span
            linear = (0.5 * (vb + vc) - va) / span
            linked = (fa - 0.5 * (fb + fc)) / f_span
            if want_outward:
                slack = np.minimum(np.minimum(order, linear), linked)
            else:
                # The raw-payoff rotation must leave the center, but only
                # weakly: the stronger it is, the wider the attracting cycle
                # and the deeper its swings toward the boundary. Confining
                # a - (b+c)/2 to a narrow band keeps the cycle tight while
                # the linked inequalities stay slack-maximized.
                w_lo, w_hi = _DUAL_ROTATION_BAND
                half = 0.5 * (w_hi - w_lo)
                s_lo = (-linear - w_lo) / half
                s_hi = (w_hi + linear) / half
                slack = np.minimum(np.minimum(order, -linked),
                                   np.minimum(s_lo, s_hi))
            k = int(np.argmax(slack))
            idx = np.unravel_index(k, slack.shape)
            return [float(g[i]) for g, i in zip(grids, idx)], float(slack.flat[k])

        (a, b, c), slack = best_triple([(lo, hi)] * 3, 50)
        h = (hi - lo) / 49.0
        bounds = [(max(lo, v - h), min(hi, v + h)) for v in (a, b, c)]
        (a, b, c), slack = best_triple(bounds, 21)
        if slack <= 0.0:
            raise ValueError(
                f"no feasible cycle payoffs for variant {variant!r} on "
                f"[{lo:g}, {hi:g}]")
    else:
        a, b, c = (float(v) for v in abc)

    spread = b - c
    m = (a + b + c) / 3.0
    if gamma is None:
        gamma = 0.1 * spread
    if beta is None:
        beta = 0.02 * spread
        if want_outward:
            beta = min(beta, 0.5 * (m - a))
    core = [[a, c, b], [b, a, c], [c, b, a]]
    if want_outward:
        rows = [r + [gamma] for r in core] + [[a + beta] * 3 + [0.0]]
    else:
        rows = [r + [m - gamma] for r in core] + [[m + beta] * 3 + [m]]
    entries = np.asarray(rows)
    pad = domain_pad(f)
    if entries.min() < f.domain[0] - pad or entries.max() > f.domain[1] + pad:
        raise ValueError(
            f"assembled payoffs span [{entries.min():g}, {entries.max():g}], "
            f"outside the link domain [{f.domain[0]:g}, {f.domain[1]:g}]")
    game = Game(rows)
    return Rps4Construction(game, f, a, b, c, beta, gamma, m, variant)


@dataclass(frozen=True)
class BasinK:
    """The wedge {x in S4 : x1 x2 x3 <= rho, x4 <= eps4}.

    Forward invariant for the dual construction once beta is small: inside
    it the fourth strategy only loses ground, while the core product stays
    trapped below rho.
    """

    rho: float
    eps4: float

    def contains(self, x) -> bool:
        xs = validate_simplex(x, what="state")
        if len(xs) != 4:
            raise ValueError("the region lives in the 4-strategy simplex")
        w = xs.weights
        return bool(float(w[0] * w[1] * w[2]) <= self.rho and float(w[3]) <= self.eps4)

    def sample(self, rng) -> np.ndarray:
        """One interior point with core product rho/2 and x4 = eps4/2."""
        mass = 1.0 - 0.5 * self.eps4
        target = 0.5 * self.rho / mass ** 3
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
            return np.concatenate([mass * p, [0.5 * self.eps4]])


def dual_basin_k(con: Rps4Construction, rho: float, eps4: float) -> BasinK:
    if con.variant != "dual":
        raise ValueError("the trapping region applies to the dual construction")
    if not 0.0 < rho < 1.0 / 27.0:
        raise ValueError(f"rho must be in (0, 1/27), got {rho!r}")
    if not 0.0 < eps4 < 1.0:
        raise ValueError(f"eps4 must be in (0, 1), got {eps4!r}")
    return BasinK(rho, eps4)


def named_game(name: str, *params: float) -> Game:
    """Catalog of small example games addressed by name; rps-base takes its
    three payoffs (a, b, c) as arguments."""
    if name == "discussion-3x3":
        if params:
            raise ValueError("discussion-3x3 takes no parameters")
        return Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])
    if name == "rps-base":
        if len(params) != 3:
            raise ValueError("rps-base needs exactly three payoffs (a, b, c)")
        a, b, c = params
        return Game([[a, c, b], [b, a, c], [c, b, a]])
    raise ValueError(f"unknown game name {name!r}")


# ---------------------------------------------------------------------------
# Scenario runners. Each returns (report dict, primary trajectory); reports
# hold full-precision floats and a deterministic seed record.


def _link_desc(f: LinkFunction | None):
    if f is None:
        return "replicator"
    return {"family": f.family, "params": list(f.params),
            "domain": [f.domain[0], f.domain[1]]}


def _tail(arr, frac=4):
    n = len(arr)
    return arr[-(n // frac or 1):]


def _finish(report: dict) -> dict:
    report["ok"] = all(report["checks"].values())
    return report


def run_discussion(link: LinkFunction | None = None, *, seed: int = 0,
                   t_max: float = 200.0, dt: float = 1e-3):
    """Three-strategy game where a mixture loses to the third pure strategy."""
    game = named_game("discussion-3x3")
    q = np.array([0.5, 0.5, 0.0])
    dom = find_dominator(game, q, mode="mixed")
    traj = integrate(GrowthRule(link=link), game, [0.4, 0.4, 0.2], t_max=t_max, dt=dt)
    w = w_series(traj, pure(2, 3), q)
    growth = float(w[-1] - w[0])
    bound = dom.margin * t_max * (1.0 - 1e-3)
    final_min = float(np.exp(log_min_support(traj, q)[-1]))
    v = verdict(traj, q)
    report = {
        "scenario": "discussion",
        "seed": seed,
        "link": _link_desc(link),
        "game": game_to_dict(game),
        "lp_margin": dom.margin,
        "run": {"t_max": t_max, "dt": dt, "method": traj.meta["method"],
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
    return _finish(report), traj


def run_survival_nonconvex(link: LinkFunction | None = None, *, seed: int = 0,
                           dt: float = 1e-3):
    """Square-wave opponent carries the dominated pure strategy to fixation."""
    f = link if link is not None else sqrt_link((1.0, 9.0))
    con = build_survival(f, "nonconvex")
    t_max = 12 * con.period
    traj = integrate(GrowthRule(link=f), con.game, uniform(3).weights,
                     opponent=con.schedule, t_max=t_max, dt=dt)
    x_m = float(traj.states[-1, 1])
    v = verdict(traj, pure(1, 3))
    report = {
        "scenario": "survival-nonconvex",
        "seed": seed,
        "link": _link_desc(f),
        "construction": _survival_desc(con),
        "run": {"t_max": t_max, "dt": dt, "method": traj.meta["method"],
                "x_M_final": x_m},
        "verdicts": {"M": v.__dict__},
        "checks": {
            "dominated-pure-takes-over": x_m > 0.99,
            "verdict-survived": v.status == "survived",
        },
    }
    return _finish(report), traj


def run_survival_nonconcave(link: LinkFunction | None = None, *, seed: int = 0,
                            dt: float = 1e-3, periods: int = 8):
    """Square-wave opponent preserves the mixture a pure strategy dominates."""
    f = link if link is not None else power_link(2.0, (-3.0, 3.0))
    con = build_survival(f, "nonconcave")
    t_max = periods * con.period
    traj = integrate(GrowthRule(link=f), con.game, uniform(3).weights,
                     opponent=con.schedule, t_max=t_max, dt=dt)
    x_m = float(traj.states[-1, 1])
    mix = np.array([0.5, 0.0, 0.5])
    floor = periodic_floor(traj, (0, 2), con.period)
    prod = np.exp(traj.log_states[:, 0] + traj.log_states[:, 2])
    late_max = float(_tail(prod).max())
    v_m = verdict(traj, pure(1, 3))
    v_mix = verdict(traj, mix)
    report = {
        "scenario": "survival-nonconcave",
        "seed": seed,
        "link": _link_desc(f),
        "construction": _survival_desc(con),
        "run": {"t_max": t_max, "dt": dt, "method": traj.meta["method"],
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
    return _finish(report), traj


def _survival_desc(con: SurvivalConstruction) -> dict:
    return {"variant": con.variant, "a": con.a, "b": con.b, "eps": con.eps,
            "u_M": float(con.game.payoff[1, 0]), "alpha": con.alpha,
            "Cf": con.Cf, "T": con.T, "period": con.period}


def _rps4_desc(con: Rps4Construction) -> dict:
    return {"variant": con.variant, "a": con.a, "b": con.b, "c": con.c,
            "beta": con.beta, "gamma": con.gamma, "m": con.m,
            "payoff": con.game.payoff.tolist()}


def _rps4_runs(f: LinkFunction, con: Rps4Construction, starts, judge,
               t_max: float, dt: float):
    """All starts of a 4x4 construction in one batched self-play flow.

    starts(con) gives the (n_seeds, 4) initial states, judge(traj) the
    per-seed records and whether the construction passed. While it does not,
    beta is halved and the construction rebuilt, at most 6 times. Returns
    (construction, halvings, batch trajectory, records).
    """
    rule = GrowthRule(link=f)
    halvings = 0
    while True:
        traj = integrate(rule, con.game, starts(con), t_max=t_max, dt=dt)
        runs, passed = judge(traj)
        if passed or halvings >= 6:
            return con, halvings, traj, runs
        halvings += 1
        con = build_rps4(f, con.variant, abc=(con.a, con.b, con.c),
                         beta=con.beta / 2.0, gamma=con.gamma)


def run_hw_4x4(link: LinkFunction | None = None, *, seed: int = 0,
               dt: float = 1e-3, t_max: float = 200.0, n_seeds: int = 10):
    """Dominated fourth strategy persists near the saddle loop.

    The attractor is a cycle through the rest points on the edges joining
    each core strategy to strategy 4, so initial conditions sit on those
    edges (x4 at 1%) pushed 1e-2 into the interior. The persistence claim
    is an open-set one, so 8 of 10 seeds must keep x4 up; beta is halved
    and the construction rebuilt when they do not.
    """
    f = link if link is not None else sqrt_link((0.0, 20.0))

    def starts(_):
        rng = np.random.default_rng(seed)
        x0 = np.full((n_seeds, 4), 0.01)
        for s, x in enumerate(x0):
            i = s % 3
            others = [j for j in range(3) if j != i]
            x[others] += rng.uniform(-0.002, 0.002, size=2)
            x[i] = 1.0 - float(x[others].sum()) - 0.01
        return x0

    def judge(traj):
        low = np.exp(_tail(traj.log_states[:, :, 3]).min(axis=0))
        runs = [{"seed_index": s, "x4_last_quarter_min": float(v), "persists": bool(v > 1e-3)}
                for s, v in enumerate(low)]
        return runs, sum(r["persists"] for r in runs) >= 8

    con, halvings, traj, runs = _rps4_runs(
        f, build_rps4(f, "hofbauer-weibull", (0.01, 20.0)), starts, judge, t_max, dt)
    dom = find_dominator(con.game, pure(3, 4).weights, mode="mixed")
    survivors = sum(r["persists"] for r in runs)
    report = {
        "scenario": "hw-4x4",
        "seed": seed,
        "link": _link_desc(f),
        "construction": _rps4_desc(con),
        "beta_halvings": halvings,
        "lp_margin": dom.margin,
        "run": {"t_max": t_max, "dt": dt, "method": traj.meta["method"], "seeds": runs,
                "survivors": survivors},
        "checks": {
            "fourth-strategy-certified-dominated": dom.margin > 0.0,
            "persists-on-at-least-8-seeds": survivors >= 8,
        },
    }
    return _finish(report), traj.member(0)


def run_dual_4x4(link: LinkFunction | None = None, *, seed: int = 0,
                 dt: float = 1e-3, t_max: float = 300.0, n_seeds: int = 10,
                 eps4: float = 0.04, taylor_samples: int = 200):
    """Dominating fourth strategy dies inside the wedge; the core cycle lives.

    Every sampled start must eliminate strategy 4 while the core product
    x1 x2 x3 stays above 1e-3 over the last quarter; the near-center drift
    check must fall on every sample.
    """
    f = link if link is not None else exp_link(1.0, (-2.0, 2.0))
    rho = 0.01
    con = build_rps4(f, "dual", (-2.0, 2.0))
    frac = taylor_sign_check(GrowthRule(link=f), con.core_game, radius=0.01,
                             samples=taylor_samples, seed=seed)

    def starts(con):
        basin = dual_basin_k(con, rho, eps4)
        rng = np.random.default_rng(seed)
        return np.array([basin.sample(rng) for _ in range(n_seeds)])

    def judge(traj):
        x4_final = traj.states[-1, :, 3]
        core_min = np.exp(_tail(traj.log_states[:, :, :3].sum(axis=2)).min(axis=0))
        runs = [{"seed_index": s, "x4_final": float(x4), "core_product_last_quarter_min":
                 float(low), "ok": bool(x4 < 1e-4 and low > 1e-3)}
                for s, (x4, low) in enumerate(zip(x4_final, core_min))]
        return runs, all(r["ok"] for r in runs)

    con, halvings, traj, runs = _rps4_runs(f, con, starts, judge, t_max, dt)
    dom = find_dominator(con.game, np.array([1, 1, 1, 0]) / 3.0, mode="mixed")
    report = {
        "scenario": "dual-4x4",
        "seed": seed,
        "link": _link_desc(f),
        "construction": _rps4_desc(con),
        "beta_halvings": halvings,
        "lp_margin": dom.margin,
        "taylor_negative_fraction": frac,
        "run": {"t_max": t_max, "dt": dt, "method": traj.meta["method"], "rho": rho,
                "eps4": eps4, "seeds": runs},
        "checks": {
            "margin-at-least-min-beta-gamma":
                dom.margin >= min(con.beta, con.gamma) * (1.0 - 1e-9),
            "every-seed-eliminates-strategy-4": all(r["ok"] for r in runs),
            "near-center-drift-always-negative": frac == 1.0,
        },
    }
    return _finish(report), traj.member(0)


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
        "scenario": "background-threshold",
        "seed": seed,
        "link": _link_desc(f_rule),
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
    return _finish(report), t1


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
        "scenario": "background-schedules",
        "seed": seed,
        "link": _link_desc(f_rule),
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
    return _finish(report), t_geo


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

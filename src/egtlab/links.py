"""Link functions: the payoff-to-growth-rate transforms.

A link turns expected payoffs into per-capita growth rates. Its shape on the
relevant payoff interval decides which selection regime the induced dynamics
falls into: convex links never let a pure strategy escape a dominating
mixture, concave links never let a mixture escape a dominating pure, and only
(affine) linear links protect every dominated mixture.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("linear", "power", "exponential", "logarithm", "sqrt", "table")


class DomainError(ValueError):
    """An argument left the interval a link is defined on."""


@dataclass(frozen=True, eq=False)
class LinkFunction:
    """One payoff-to-growth transform restricted to a payoff interval."""

    family: str
    params: tuple
    domain: tuple
    knots_x: np.ndarray | None = None
    knots_y: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown link family {self.family!r}")
        lo, hi = (float(self.domain[0]), float(self.domain[1]))
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise ValueError(f"domain must be a finite interval, got {self.domain!r}")
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if self.family == "table":
            xs = np.array(self.knots_x, dtype=float)
            ys = np.array(self.knots_y, dtype=float)
            if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
                raise ValueError("table link needs matching 1-d knot arrays of length >= 2")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("table knots must be strictly increasing")
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
                raise ValueError("table knots must be finite")
            xs.setflags(write=False)
            ys.setflags(write=False)
            object.__setattr__(self, "knots_x", xs)
            object.__setattr__(self, "knots_y", ys)
            if lo < xs[0] - 1e-12 or hi > xs[-1] + 1e-12:
                raise ValueError("table knots do not cover the stated domain")
        else:
            object.__setattr__(self, "knots_x", None)
            object.__setattr__(self, "knots_y", None)
        _validate_family(self)

    def __repr__(self) -> str:
        if self.family == "table":
            return f"LinkFunction(table, {self.knots_x.size} knots, domain={self.domain})"
        return f"LinkFunction({self.family}{list(self.params)}, domain={self.domain})"


def _validate_family(f: LinkFunction) -> None:
    lo, hi = f.domain
    if f.family == "linear":
        if len(f.params) != 2:
            raise ValueError("linear link takes params (slope, intercept)")
    elif f.family == "power":
        if len(f.params) != 1:
            raise ValueError("power link takes a single exponent")
        g = f.params[0]
        if not float(g).is_integer():
            if lo < 0:
                raise ValueError("fractional power needs a nonnegative domain")
            if g < 0 and lo <= 0:
                raise ValueError("negative power needs a strictly positive domain")
        elif g < 0 and lo <= 0 <= hi:
            raise ValueError("negative power undefined at zero")
    elif f.family == "exponential":
        if len(f.params) != 1:
            raise ValueError("exponential link takes a single rate")
    elif f.family == "logarithm":
        if f.params:
            raise ValueError("logarithm link takes no params")
        if lo <= 0:
            raise ValueError("logarithm needs a strictly positive domain")
    elif f.family == "sqrt":
        if f.params:
            raise ValueError("sqrt link takes no params")
        if lo < 0:
            raise ValueError("sqrt needs a nonnegative domain")
    # every family must stay finite on its interval
    grid = np.linspace(lo, hi, 129)
    vals = _eval_unchecked(f, grid)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"link is not finite everywhere on {f.domain}")


def _eval_unchecked(f: LinkFunction, u):
    u = np.asarray(u, dtype=float)
    if f.family == "linear":
        a, b = f.params
        return a * u + b
    if f.family == "power":
        return u ** f.params[0]
    if f.family == "exponential":
        return np.exp(f.params[0] * u)
    if f.family == "logarithm":
        return np.log(u)
    if f.family == "sqrt":
        return np.sqrt(u)
    return np.interp(u, f.knots_x, f.knots_y)


def domain_pad(f: LinkFunction) -> float:
    """Slack for rounding dust when payoffs graze the domain endpoints."""
    lo, hi = f.domain
    return 1e-12 * (1.0 + abs(lo) + abs(hi))


def eval_link(f: LinkFunction, u):
    """Evaluate the link, rejecting arguments outside its domain."""
    arr = np.asarray(u, dtype=float)
    lo, hi = f.domain
    pad = domain_pad(f)
    if np.any(arr < lo - pad) or np.any(arr > hi + pad):
        bad = arr[(arr < lo - pad) | (arr > hi + pad)].flat[0]
        raise DomainError(f"payoff {bad!r} outside link domain [{lo:g}, {hi:g}]")
    vals = _eval_unchecked(f, np.clip(arr, lo, hi))
    return float(vals) if np.isscalar(u) or arr.ndim == 0 else vals


def linear_link(slope: float = 1.0, intercept: float = 0.0,
                domain=(-1e6, 1e6)) -> LinkFunction:
    return LinkFunction("linear", (slope, intercept), domain)


def power_link(exponent: float, domain) -> LinkFunction:
    return LinkFunction("power", (exponent,), domain)


def exp_link(rate: float, domain) -> LinkFunction:
    return LinkFunction("exponential", (rate,), domain)


def log_link(domain) -> LinkFunction:
    return LinkFunction("logarithm", (), domain)


def sqrt_link(domain) -> LinkFunction:
    return LinkFunction("sqrt", (), domain)


def table_link(xs, ys) -> LinkFunction:
    xs = np.asarray(xs, dtype=float)
    return LinkFunction("table", (), (xs[0], xs[-1]), xs, ys)


def scalar_link(f: LinkFunction):
    """Per-float evaluator of f for the steppers: nan outside the padded
    domain, otherwise f at the argument clamped to the domain. Tables
    interpolate the way np.interp does."""
    lo, hi = f.domain
    pad = domain_pad(f)
    lo_pad, hi_pad = lo - pad, hi + pad
    if f.family == "table":
        xs, ys = f.knots_x.tolist(), f.knots_y.tolist()

        def fn(v):
            j = bisect.bisect_right(xs, v) - 1
            if j < 0:
                return ys[0]
            if j >= len(xs) - 1 or xs[j] == v:
                return ys[j]
            return (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (v - xs[j]) + ys[j]
    else:
        p = f.params
        fn = {"linear": lambda v: p[0] * v + p[1],
              "power": lambda v: v ** p[0],
              "exponential": lambda v: math.exp(p[0] * v),
              "logarithm": math.log,
              "sqrt": math.sqrt}[f.family]

    def evaluate(u):
        if not lo_pad <= u <= hi_pad:
            return math.nan
        return fn(lo if u < lo else hi if u > hi else u)

    return evaluate


def array_link(f: LinkFunction):
    """Array evaluator of f for the closed-form scripted paths: like
    scalar_link, nan outside the padded domain and f at the clamped
    argument inside it."""
    lo, hi = f.domain
    pad = domain_pad(f)

    def evaluate(u):
        vals = _eval_unchecked(f, np.clip(u, lo, hi))
        vals[~((u >= lo - pad) & (u <= hi + pad))] = np.nan
        return vals

    return evaluate


@dataclass(frozen=True)
class DynamicsClass:
    """Shape flags of a link on a payoff interval, plus the induced regime label."""

    increasing: bool
    convex: bool
    concave: bool
    linear: bool
    label: str
    second_diff_min: float
    second_diff_max: float


def classify_link(f: LinkFunction, grid_points: int = 1001, tol: float | None = None,
                  interval=None) -> DynamicsClass:
    """Sample the link on a uniform grid and read off monotonicity and curvature.

    tol is an absolute slack on the raw first/second differences; it defaults
    to 1e-9 times max(1, the sampled value scale).
    """
    if grid_points < 5:
        raise ValueError("classification needs at least 5 grid points")
    lo, hi = interval if interval is not None else f.domain
    if hi - lo < 1e-9:
        raise ValueError(f"interval [{lo!r}, {hi!r}] too small to classify on")
    grid = np.linspace(lo, hi, grid_points)
    vals = eval_link(f, grid)
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
    d1 = np.diff(vals)
    d2 = np.diff(d1)
    increasing = bool(np.all(d1 > -tol))
    convex = bool(np.all(d2 >= -tol))
    concave = bool(np.all(d2 <= tol))
    linear = convex and concave
    if not increasing:
        label = "non-monotonic"
    elif linear:
        label = "aggregate-monotonic"
    elif convex:
        label = "convex-monotonic"
    elif concave:
        label = "concave-monotonic"
    else:
        label = "monotonic"
    return DynamicsClass(increasing, convex, concave, linear, label,
                         float(d2.min()) if d2.size else 0.0,
                         float(d2.max()) if d2.size else 0.0)


def discrete_effective_link(f: LinkFunction, background: float,
                            grid_points: int = 1001) -> LinkFunction:
    """The per-generation growth transform ln(background + f(u)) as a table link.

    The discrete ratio map with background fitness C multiplies frequencies by
    (C + f(u)) / (C + mean), so its log-scale behaviour is governed by this
    composition rather than by f itself.
    """
    lo, hi = f.domain
    grid = np.linspace(lo, hi, grid_points)
    vals = background + eval_link(f, grid)
    if np.min(vals) <= 0.0:
        u_bad = grid[int(np.argmin(vals))]
        raise ValueError(
            f"background {background:g} leaves ln() undefined at payoff {u_bad:g}")
    return table_link(grid, np.log(vals))


DIRECTION_TOL = 1e-12


def rps_direction(f: LinkFunction | None, a: float, b: float, c: float,
                  mode: str = "replicator", background: float = 0.0) -> str:
    """Spiral direction near the three-strategy cycle with payoffs (a, b, c).

    The base game has rows (a, c, b), (b, a, c), (c, b, a) with c < a < b.
    'inward' means the boundary cycle repels (trajectories spiral toward the
    interior), 'outward' that it attracts. The test compares the own-match
    growth rate against the mean of the winning and losing rates:

    - replicator:            a      vs (b + c) / 2
    - continuous-functional: f(a)   vs [f(b) + f(c)] / 2
    - discrete-functional:   ln(background + f(.)) in place of f
    """
    if not c < a < b:
        raise ValueError(f"cycle payoffs need c < a < b, got a={a!r} b={b!r} c={c!r}")
    if mode == "replicator":
        delta = a - 0.5 * (b + c)
    elif mode in ("continuous-functional", "discrete-functional"):
        if f is None:
            raise ValueError(f"mode {mode!r} needs a link function")
        if mode == "discrete-functional":
            f = discrete_effective_link(f, background)
        fa, fb, fc = (eval_link(f, v) for v in (a, b, c))
        delta = fa - 0.5 * (fb + fc)
    else:
        raise ValueError(f"unknown direction mode {mode!r}")
    if abs(delta) <= DIRECTION_TOL:
        return "degenerate"
    return "outward" if delta > 0 else "inward"


def parse_link(spec: str, domain=None) -> LinkFunction:
    """Build a link from a CLI-style spec string such as 'linear:1,0' or 'exp:2'.

    domain supplies the payoff interval for families that need one; specs may
    also carry their own as a suffix '@lo,hi'.
    """
    spec = spec.strip()
    if "@" in spec:
        spec, _, dom = spec.partition("@")
        parts = dom.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad domain suffix in link spec {spec!r}")
        domain = (float(parts[0]), float(parts[1]))
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    args = [float(v) for v in arg.split(",")] if arg else []
    if name in ("linear", "lin"):
        if len(args) > 2:
            raise ValueError("linear link spec is 'linear:<slope>,<intercept>'")
        slope = args[0] if args else 1.0
        intercept = args[1] if len(args) > 1 else 0.0
        return linear_link(slope, intercept, domain or (-1e6, 1e6))
    if domain is None:
        raise ValueError(f"link {name!r} needs a payoff interval (use '@lo,hi' or --interval)")
    if name in ("power", "pow"):
        if len(args) != 1:
            raise ValueError("power link spec is 'power:<exponent>'")
        return power_link(args[0], domain)
    if name in ("exponential", "exp"):
        if len(args) != 1:
            raise ValueError("exponential link spec is 'exp:<rate>'")
        return exp_link(args[0], domain)
    if name in ("logarithm", "log", "ln"):
        return log_link(domain)
    if name == "sqrt":
        return sqrt_link(domain)
    raise ValueError(f"unknown link spec {spec!r}")

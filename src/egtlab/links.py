"""Link functions: the payoff-to-growth-rate transforms.

A link turns expected payoffs into per-capita growth rates. Its shape on the
relevant payoff interval decides which selection regime the induced dynamics
falls into: convex links never let a pure strategy escape a dominating
mixture, concave links never let a mixture escape a dominating pure, and only
(affine) linear links protect every dominated mixture. The generation map's
effective link ln(C + f) is a family of its own (discrete_effective_link).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The params each family takes, by name, in order; its keys are FAMILIES.
_PARAMS = {"linear": ("slope", "intercept"), "power": ("exponent",), "exponential": ("rate",),
           "logarithm": (), "sqrt": (), "table": (), "effective": ("background",)}
FAMILIES = tuple(_PARAMS)


class DomainError(ValueError):
    """An argument left the interval a link is defined on."""


@dataclass(frozen=True, eq=False)
class LinkFunction:
    """One payoff-to-growth transform restricted to a payoff interval. A
    table's data are its knots; an effective link's, ln(C + inner) with
    params (C,), its inner link."""

    family: str
    params: tuple
    domain: tuple
    knots_x: np.ndarray | None = None
    knots_y: np.ndarray | None = None
    inner: LinkFunction | None = None

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
        if (self.inner is not None) != (self.family == "effective"):
            raise ValueError("an effective link, and only it, takes an inner link")
        _validate_family(self)

    def __repr__(self) -> str:
        if self.family == "table":
            return f"LinkFunction(table, {self.knots_x.size} knots, domain={self.domain})"
        return f"LinkFunction({self.family}{list(self.params)}, domain={self.domain})"


def _validate_family(f: LinkFunction) -> None:
    """Refuse f unless its params are its family's and finite and its closed
    form is finite at _extremes. That one test also decides each family's
    domain: a family is undefined only below 0 (sqrt, positive fractional
    powers), at or below 0 (log, negative fractional powers) or at 0
    (negative integer powers), and where that region meets [lo, hi] it holds
    an end or the 0 _extremes adds for a power, where the formula is nan or
    +-inf. An effective link first needs C + inner > 0 on its domain."""
    lo, hi = f.domain
    names = _PARAMS[f.family]
    if len(f.params) != len(names):
        raise ValueError(f"{f.family} link takes {' and '.join(names) or 'no params'}, "
                         f"got params {list(f.params)}")
    if not all(math.isfinite(v) for v in f.params):
        raise ValueError(f"{f.family} link params must be finite, got {list(f.params)}")
    if f.family == "effective":
        g = f.inner
        if (not isinstance(g, LinkFunction) or g.family == "effective"
                or lo < g.domain[0] or hi > g.domain[1]):
            raise ValueError("effective link takes a background and an inner link of "
                             "another family whose domain covers its own")
        u = _extremes(g, lo, hi)
        vals = f.params[0] + _eval_unchecked(g, u)
        if vals.min() <= 0.0:
            raise ValueError(f"background {f.params[0]:g} leaves ln() undefined "
                             f"at payoff {u[int(np.argmin(vals))]:g}")
    # f is finite on its domain iff it is at its least and greatest values. A
    # nan, pole or overflow there is the error below, not a NumPy warning.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = _eval_unchecked(f, _extremes(f, lo, hi))
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"link is not finite everywhere on {f.domain}")


def _extremes(f: LinkFunction, lo: float, hi: float) -> np.ndarray:
    """Points of [lo, hi] among which f takes its least and greatest values
    there: the ends, a table's knots inside, and 0 for a power across it (each
    scalar family is monotone on either side of 0). ln is increasing, so an
    effective link's are its inner link's."""
    if f.family == "effective":
        return _extremes(f.inner, lo, hi)
    inside = (f.knots_x if f.family == "table"
              else np.array([0.0]) if f.family == "power" else np.empty(0))
    return np.concatenate(([lo], inside[(inside > lo) & (inside < hi)], [hi]))


def _eval_unchecked(f: LinkFunction, u):
    return _formula(f, np)(np.asarray(u, dtype=float))


def _formula(f: LinkFunction, xp):
    """f's closed form as one function, its family picked here, once: of a
    float array for xp = np, of a Python float for xp = math. An array's
    coefficients are 0-d arrays, which a ufunc takes as they are where it
    converts a Python float on every call; the power link's exponent stays a
    float, as NumPy's ** picks its fast cases by it. A table is read by
    np.interp on either, so a float gets an np.float64."""
    p = [np.array(v) for v in f.params] if xp is np else f.params
    if f.family == "linear":
        return lambda u: p[0] * u + p[1]
    if f.family == "power":
        return lambda u: u ** f.params[0]
    if f.family == "exponential":
        return lambda u: xp.exp(p[0] * u)
    if f.family == "effective":
        g = _formula(f.inner, xp)
        return lambda u: xp.log(p[0] + g(u))
    if f.family == "table":
        return lambda u: np.interp(u, f.knots_x, f.knots_y)
    return xp.log if f.family == "logarithm" else xp.sqrt


def _integral_unchecked(f: LinkFunction, a, b):
    """(F(b) - F(a), size) elementwise for arrays a, b in f's domain, F the
    antiderivative s u^2 / 2 + c u, u^(p+1) / (p+1) (log|u| at p = -1),
    exp(r u) / r (u at r = 0), u ln u - u or 2/3 u^(3/2) of each family; size
    sums |F|'s terms at a and b, which the rounding error scales with. A
    table's F is piecewise quadratic: its difference sums trapezoids between
    the knots from a to b, which cancel nothing, so its size is 0. An
    effective link, ln(C + f), has no antiderivative here."""
    if f.family == "table":
        xs, ys = f.knots_x, f.knots_y
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        j, k = (np.clip(np.searchsorted(xs, v, side="right") - 1, 0, xs.size - 2)
                for v in (lo, hi))
        flo, fhi = np.interp(lo, xs, ys), np.interp(hi, xs, ys)
        cum = np.append(0.0, np.cumsum(np.diff(xs) * (ys[:-1] + ys[1:]) / 2))
        span = np.where(j == k, (hi - lo) * (flo + fhi) / 2,
                        (xs[j + 1] - lo) * (flo + ys[j + 1]) / 2 + (cum[k] - cum[j + 1])
                        + (hi - xs[k]) * (ys[k] + fhi) / 2)
        return np.where(a <= b, span, -span), np.zeros(span.shape)
    p, q = f.params, (f.params or (0.0,))[0]
    terms = {"linear": lambda u: (0.5 * q * u * u, p[1] * u),
             "power": lambda u: ((np.log(np.abs(u)),) if q == -1
                                 else (u ** (q + 1) / (q + 1),)),
             "exponential": lambda u: (u,) if q == 0 else (np.exp(q * u) / q,),
             "logarithm": lambda u: (u * np.log(u), -u),
             "sqrt": lambda u: (2.0 / 3.0 * u * np.sqrt(u),)}[f.family]
    ta, tb = terms(a), terms(b)
    return sum(tb) - sum(ta), sum(np.abs(t) for t in ta + tb)


def domain_pad(f: LinkFunction) -> float:
    """Slack for rounding dust when payoffs graze the domain endpoints."""
    lo, hi = f.domain
    return 1e-12 * (1.0 + abs(lo) + abs(hi))


def eval_link(f: LinkFunction, u):
    """Evaluate the link, rejecting arguments outside its domain, nan too."""
    arr = np.asarray(u, dtype=float)
    lo, hi = f.domain
    pad = domain_pad(f)
    outside = ~((arr >= lo - pad) & (arr <= hi + pad))
    if outside.any():
        bad = arr[outside].flat[0]
        raise DomainError(f"payoff {float(bad)!r} outside link domain [{lo:g}, {hi:g}]")
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


def hull_inside(f: LinkFunction, hull) -> bool:
    """True when the interval hull = (lo, hi) lies in f's padded domain, so
    an argument in it is only clamped, never rejected. A payoff against a
    mixture lies in the hull of its row: its smallest to largest entry."""
    lo, hi = f.domain
    pad = domain_pad(f)
    return lo - pad <= hull[0] and hull[1] <= hi + pad


def _signs(f: LinkFunction, lo: float, hi: float, k: int):
    """The least and greatest sign of f's k-th derivative (k = 1 or 2) on
    (lo, hi), apart from isolated zeros. Each scalar family's has one sign,
    its coefficient's, but for u^p's p (p - 1).. u^(p - k), which flips
    where u < 0 for an odd p - k. A table reads the knot segments that meet
    (lo, hi): their rises (k = 1), or their steps in slope at the knots
    inside (k = 2), where a step within the knots' rounding, 8 eps max|y|
    over the smallest spacing, counts as 0. An effective link reads its
    inner link's (see _effective_curvature for k = 2)."""
    if f.family == "effective":
        return _signs(f.inner, lo, hi, 1) if k == 1 else _effective_curvature(f, lo, hi)
    if f.family == "table":
        xs, ys = f.knots_x, f.knots_y
        meets = (xs[:-1] < hi) & (xs[1:] > lo)
        d = np.diff(ys)[meets]
        if k == 2:
            d = np.diff(np.diff(ys) / np.diff(xs))[meets[:-1] & meets[1:]]
            rounding = 8 * np.finfo(float).eps * np.abs(ys).max() / np.diff(xs).min()
            d[np.abs(d) <= rounding] = 0.0
        return (np.sign(d).min(), np.sign(d).max()) if d.size else (0.0, 0.0)
    p = (f.params or (0.0,))[0]
    s = np.sign({"linear": (p, 0.0), "exponential": (p, abs(p)), "power": (p, p * (p - 1.0)),
                 "sqrt": (1.0, -1.0), "logarithm": (1.0, -1.0)}[f.family][k - 1])
    if f.family == "power" and lo < 0.0 and (p - k) % 2 == 1 and s:
        return (-1.0, 1.0) if hi > 0.0 else (-s, -s)
    return s, s


def _effective_curvature(f: LinkFunction, lo: float, hi: float):
    """The least and greatest sign on (lo, hi) of ln(C + g)'', that of
    g'' (C + g) - g'^2 as C + g > 0: r^2 C e^(r u) for exp(r u), and for u^p
    p u^(p-2) ((p - 1) C - u^p) between its roots 0 and +-|(p - 1) C|^(1/p).
    Linear, sqrt and log links and a table's segments never bend up, so the
    rest reads -g'^2 beside g'' (at a table's knots, its steps in slope)."""
    g, C = f.inner, f.params[0]
    if g.family == "exponential":
        s = np.sign(C) * abs(np.sign(g.params[0]))
        return s, s
    if g.family == "power":
        p = g.params[0]
        with np.errstate(over="ignore", divide="ignore"):
            r = np.abs((p - 1.0) * C) ** (1.0 / p) if p else 0.0
        cuts = np.unique(np.clip([lo, 0.0, r, -r, hi], lo, hi))
        u = 0.5 * (cuts[:-1] + cuts[1:])
        with np.errstate(over="ignore"):
            s = p * np.sign(u) ** (p - 2.0) * np.sign((p - 1.0) * C - u ** p)
        return s.min(), s.max()
    s = -max(abs(v) for v in _signs(g, lo, hi, 1))
    low, high = _signs(g, lo, hi, 2)
    return min(s, low), max(s, high)


def increasing_on(f: LinkFunction, lo: float, hi: float) -> bool:
    """True when f is strictly increasing on [lo, hi]: its derivative is
    positive on (lo, hi) apart from isolated zeros (see _signs)."""
    return bool(_signs(f, lo, hi, 1)[0] > 0)


def scalar_link(f: LinkFunction):
    """Per-float evaluator of f for the float map: f at the argument clamped
    to its domain. A run refuses a link whose padded domain misses the
    payoffs it can see (dynamics._setup), so the clamp takes off rounding
    dust only. The formula is _formula's, for Python floats; a table is read
    by np.interp, as on every path, and gives np.float64 values."""
    lo, hi = f.domain
    fn = _formula(f, math)
    return lambda u: fn(lo if u < lo else hi if u > hi else u)


def array_link(f: LinkFunction):
    """Array evaluator of f for the NumPy paths: like scalar_link, f at the
    argument clamped to its domain."""
    # 0-d, as _formula's coefficients
    low, high = np.array(f.domain[0]), np.array(f.domain[1])
    fn = _formula(f, np)
    return lambda u: fn(np.minimum(np.maximum(u, low), high))


@dataclass(frozen=True)
class DynamicsClass:
    """Shape flags of a link on a payoff interval, plus the induced regime label."""

    increasing: bool
    convex: bool
    concave: bool
    linear: bool
    label: str


def classify_link(f: LinkFunction, interval=None) -> DynamicsClass:
    """Monotonicity and curvature of f on interval (default: its domain),
    read exactly from its family (see _signs)."""
    lo, hi = interval if interval is not None else f.domain
    if not lo < hi:
        raise ValueError(f"interval [{lo!r}, {hi!r}] is empty, cannot classify on it")
    eval_link(f, [lo, hi])  # raises DomainError outside f's domain
    increasing = increasing_on(f, lo, hi)
    low, high = _signs(f, lo, hi, 2)
    convex, concave = bool(low >= 0), bool(high <= 0)
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
    return DynamicsClass(increasing, convex, concave, linear, label)


def discrete_effective_link(f: LinkFunction, background: float) -> LinkFunction:
    """The per-generation growth transform ln(background + f(u)), exactly.

    The discrete ratio map with background fitness C multiplies frequencies by
    (C + f(u)) / (C + mean), so its log-scale behaviour is governed by this
    composition rather than by f itself. Raises ValueError where C + f is
    not positive on f's domain.
    """
    return LinkFunction("effective", (background,), f.domain, inner=f)


DIRECTION_TOL = 1e-12


def rps_direction(f: LinkFunction | None, a: float, b: float, c: float) -> str:
    """Spiral direction near the three-strategy cycle with payoffs (a, b, c)
    under the growth rates f (the identity, the replicator's, when None).

    The base game has rows (a, c, b), (b, a, c), (c, b, a) with c < a < b.
    'inward' means the boundary cycle repels (trajectories spiral toward the
    interior), 'outward' that it attracts. The test compares the own-match
    growth rate f(a) against the mean [f(b) + f(c)] / 2 of the winning and
    losing rates; a gap within DIRECTION_TOL times the largest |rate| is a
    tie, at any payoff scale. A generation map with background C turns the
    cycle as its effective link does: pass discrete_effective_link(f, C).
    """
    if not (c < a < b and math.isfinite(c) and math.isfinite(b)):
        raise ValueError(f"cycle payoffs need finite c < a < b, got a={a!r} b={b!r} c={c!r}")
    fa, fb, fc = (a, b, c) if f is None else (eval_link(f, v) for v in (a, b, c))
    delta = fa - 0.5 * (fb + fc)
    if abs(delta) <= DIRECTION_TOL * max(abs(fa), abs(fb), abs(fc)):
        return "degenerate"
    return "outward" if delta > 0 else "inward"


# Names a spec may give each family by, and the values its trailing params
# take when left out; a table needs knots and is built apart.
_LINK_NAMES = {"linear": "linear", "lin": "linear", "power": "power", "pow": "power",
               "exponential": "exponential", "exp": "exponential", "logarithm": "logarithm",
               "log": "logarithm", "ln": "logarithm", "sqrt": "sqrt"}
_DEFAULT_PARAMS = {"linear": (1.0, 0.0), "exponential": (1.0,)}


def parse_link(spec: str, domain=None) -> LinkFunction:
    """Build a link from a CLI-style spec string such as 'linear:1,0' or 'exp:2'.

    The spec names a family (or an alias) and its params, the trailing ones
    defaulting to slope 1 and intercept 0 (linear) or rate 1 (exponential);
    LinkFunction refuses any other count. domain supplies the payoff interval;
    a spec may also carry its own as a suffix '@lo,hi'. A linear link without
    either gets (-1e6, 1e6); every other family needs one.
    """
    whole = spec.strip()

    def numbers(text, what):
        try:
            return tuple(float(v) for v in text.split(","))
        except ValueError:
            raise ValueError(f"bad {what} in link spec {whole!r}") from None

    spec, at, dom = whole.partition("@")
    if at:
        domain = numbers(dom, "domain suffix")
        if len(domain) != 2:
            raise ValueError(f"bad domain suffix in link spec {whole!r}")
    name, _, arg = spec.partition(":")
    family = _LINK_NAMES.get(name.strip().lower())
    if family is None:
        raise ValueError(f"unknown link family {name!r}")
    params = numbers(arg, "params") if arg else ()
    params += _DEFAULT_PARAMS.get(family, ())[len(params):]
    if domain is None and family != "linear":
        raise ValueError(f"link {name!r} needs a payoff interval (use '@lo,hi' or --interval)")
    return LinkFunction(family, params, domain or (-1e6, 1e6))

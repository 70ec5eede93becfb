"""Trajectory diagnostics.

The central object is the divergence coordinate between two mixtures p and q,

    w(x) = sum_i (p_i - q_i) ln x_i,

whose growth or decay along a run certifies which of the two is being
selected against. Everything here reads log-scale states directly, so
frequencies far below machine underflow remain measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import GrowthRule, Trajectory, _check_count, _is_index, _log_field, _setup
from .games import Game, validate_simplex


def _coeffs(p, q, n: int) -> np.ndarray:
    p = validate_simplex(p, what="p").weights
    q = validate_simplex(q, what="q").weights
    if p.shape != (n,) or q.shape != (n,):
        raise ValueError(f"p and q must have length {n}")
    return p - q


def w_series(traj: Trajectory, p, q) -> np.ndarray:
    """w along the samples. Coordinates with p_i = q_i never contribute, even
    at zero frequency; a zero frequency with a nonzero coefficient sends w to
    the appropriate infinity."""
    logs = traj.run_logs("w_series")
    c = _coeffs(p, q, logs.shape[1])
    mask = c != 0.0
    with np.errstate(invalid="ignore"):
        return logs[:, mask] @ c[mask]


def _weights(logs, q) -> np.ndarray:
    qw = validate_simplex(q, what="q").weights
    if qw.shape != (logs.shape[1],):
        raise ValueError(f"q must have length {logs.shape[1]}")
    return qw


def log_min_support(traj: Trajectory, q) -> np.ndarray:
    """ln of the smallest frequency on q's support, per sample."""
    logs = traj.run_logs("log_min_support")
    return logs[:, _weights(logs, q) > 0.0].min(axis=1)


def log_mixture_mass(traj: Trajectory, q) -> np.ndarray:
    """ln of the q-weighted geometric mean of frequencies, per sample.

    This drops below any bound exactly when some strategy in q's support
    dies, making it an equivalent elimination coordinate for the mixture.
    """
    logs = traj.run_logs("log_mixture_mass")
    qw = _weights(logs, q)
    mask = qw > 0.0
    return logs[:, mask] @ qw[mask]


def elimination_metrics(traj: Trajectory, q):
    """(min-support series, weighted-product series) for the mixture q.

    Both tend to zero together; the product is min^(largest weight)-bounded
    and smoother, the min is the quantity verdicts threshold on.
    """
    return (np.exp(log_min_support(traj, q)), np.exp(log_mixture_mass(traj, q)))


def least_squares_slope(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("slope needs two equal-length 1-d arrays, length >= 2")
    xm = x - x.mean()
    den = float(xm @ xm)
    if den == 0.0:
        raise ValueError("slope undefined: all abscissae equal")
    return float(xm @ (y - y.mean())) / den


@dataclass(frozen=True)
class Verdict:
    """Finite-horizon call on whether a mixture was selected out of the run."""

    status: str  # eliminated | survived | inconclusive
    metric_final: float
    metric_trend: float  # slope of ln(min support) per sample over the last third
    witness: str


def verdict(traj: Trajectory, q) -> Verdict:
    """Call a run by its min-support metric on q's support.

    eliminated: final metric below 1e-6 with the last-third trend still
    downward. survived: the whole last third stays at or above 1e-3.
    Anything else, or fewer than 10 samples, is inconclusive.
    """
    traj.run_logs("verdict")
    lm = log_min_support(traj, q)
    final = float(np.exp(lm[-1]))
    tail = lm[-(lm.size // 3 or 1):]
    if lm.size < 10:
        return Verdict("inconclusive", final, math.nan,
                       f"only {lm.size} samples")
    finite = np.isfinite(tail)
    if finite.sum() >= 2:
        trend = least_squares_slope(np.flatnonzero(finite), tail[finite])
    else:
        trend = -math.inf
    if final < 1e-6 and trend < 0.0:
        return Verdict("eliminated", final, trend, "min_support<1e-06")
    if float(np.exp(tail.min())) >= 1e-3:
        return Verdict("survived", final, trend, "min_support>=0.001 over last third")
    return Verdict("inconclusive", final, trend, "between thresholds")


def periodic_floor(traj: Trajectory, coords, period: float) -> float:
    """Minimum of x_i * x_j over the last complete drive period.

    Under a periodic opponent the infimum over all time of such a product is
    attained on one period once transients die out, so the last full period
    is the honest floor estimate. Needs at least 3 complete periods.
    """
    logs = traj.run_logs("periodic_floor")
    n = logs.shape[1]
    i, j = coords if np.shape(coords) == (2,) else (None, None)
    if not (_is_index(i, n) and _is_index(j, n)):
        raise ValueError(f"coords must be a pair of strategy indices in [0, {n}), got {coords!r}")
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be positive and finite, got {period!r}")
    t = traj.times
    tol = 1e-9 * max(1.0, period)
    n_complete = int(math.floor((t[-1] + tol) / period))
    if n_complete < 3:
        raise ValueError(f"need at least 3 complete periods, have {n_complete}")
    lo = (n_complete - 1) * period - tol
    hi = n_complete * period + tol
    window = (t >= lo) & (t <= hi)
    pair = logs[window][:, (i, j)].sum(axis=1)
    return float(np.exp(pair.min()))


def taylor_sign_check(rule: GrowthRule, game: Game,
                      radius: float = 0.01, samples: int = 200,
                      seed: int = 0) -> float:
    """Fraction of sampled near-center states where ln(x1 x2 x3) is falling.

    The game must be the 3x3 cycle with rows (a,c,b),(b,a,c),(c,b,a), c<a<b.
    Perturbations h with sum 0 and ||h|| <= radius are drawn around the
    barycenter; the drift sum_i xdot_i/x_i is the row sum of the log field
    of rule's flow (dynamics._log_field; GrowthRule() is the replicator's).
    The product peaks at the barycenter, so a fraction of 1.0 means the
    nearby flow spirals outward on essentially every draw, while an
    attracting center yields 0.0. Exact-zero drifts are not counted. A link
    or speed factor whose domain misses the cycle's payoffs is refused with
    a ValueError before the field is evaluated (dynamics._setup); a speed
    factor that is not positive raises the field's IntegrationError.
    """
    A = game.payoff
    if A.shape != (3, 3):
        raise ValueError("cycle direction check needs a 3x3 game")
    a, c, b = (float(A[0, 0]), float(A[0, 1]), float(A[0, 2]))
    want = np.array([[a, c, b], [b, a, c], [c, b, a]])
    if not np.array_equal(A, want):
        raise ValueError("payoff matrix is not the cyclic pattern (a,c,b)/(b,a,c)/(c,b,a)")
    if not c < a < b:
        raise ValueError(f"cycle payoffs need c < a < b, got a={a!r} b={b!r} c={c!r}")
    if not 0 < radius <= 0.05:
        raise ValueError("perturbation radius must be in (0, 0.05]")
    samples = _check_count(samples, "samples")
    rng = np.random.default_rng(seed)
    drifts, attempts = np.empty(0), 0
    while drifts.size < samples:
        if attempts >= 100 * samples:
            raise ValueError("drift vanishes on almost every sample; "
                             "the cycle is degenerate at this radius")
        hs = []
        while len(hs) < samples - drifts.size and attempts < 100 * samples:
            attempts += 1
            h = rng.normal(size=3)
            h -= h.mean()
            norm = float(np.linalg.norm(h))
            if norm != 0.0:
                hs.append(h * (radius * rng.uniform(0.1, 1.0) / norm))
        d = _drifts(rule, game, 1.0 / 3.0 + np.array(hs).reshape(-1, 3))
        drifts = np.concatenate([drifts, d[d != 0.0]])
    return int((drifts < 0.0).sum()) / samples


def _drifts(rule: GrowthRule, game: Game, X) -> np.ndarray:
    """sum_i xdot_i / x_i at each row of X (every x_i > 0): the row sums of
    the flow's own field over one self-play population, at log X. A row where
    the field fails raises its IntegrationError, whose member is that row."""
    pops, pays, _ = _setup(rule, game, np.full(game.n_rows, 1.0 / game.n_rows), None)
    field, _ = _log_field(pops, pays, rule.speed)
    return field(0.0, np.log(X), 0.0, 0).sum(axis=1)

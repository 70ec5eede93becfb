"""Checks of op outputs that do not reuse the code path being timed.

Each check raises Rejected with a reason when an output is wrong. The
references here are written from the mathematics, with NumPy only:

- against a scripted opponent the payoffs do not depend on the state, so
  the flow's log-state is z_i(0) + integral of f(u_i(s)) ds and the
  generation map's is z_i(0) + sum of log1p((g_i - r) / (C + r)), both up
  to a common normalisation;
- a zero-sum coupled replicator pair with an interior equilibrium (p*, q*)
  conserves p* . ln x + q* . ln y;
- a dominance certificate is re-checked against the payoff matrix, and LP
  margins are compared with SciPy's HiGHS when SciPy imports.
"""

from __future__ import annotations

import numpy as np

STRICT_TOL = 1e-9
MARGIN_TOL = 1e-7
# ln of the smallest frequency a CSV double holds at full precision
CSV_LOG_FLOOR = -700.0


class Rejected(Exception):
    """An op's output failed its check."""


def require(ok, message: str) -> None:
    if not ok:
        raise Rejected(message)


def normalized(z):
    """Log-states shifted so each row's frequencies sum to one."""
    z = np.asarray(z, dtype=float)
    top = z.max(axis=-1, keepdims=True)
    return z - (top + np.log(np.exp(z - top).sum(axis=-1, keepdims=True)))


def softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def read_csv(path):
    """(header, rows) of a trajectory CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# Scenario reports


def scenario_report(report: dict) -> None:
    """The scenario's own checks, all of them true."""
    checks = report.get("checks") if isinstance(report, dict) else None
    require(checks, "report carries no checks")
    missed = sorted(k for k, v in checks.items() if v is not True)
    require(not missed, f"scenario checks missed: {', '.join(missed)}")
    require(report.get("ok") is True, "report is not marked ok")


# ---------------------------------------------------------------------------
# Scripted opponents: closed forms


def script_values(period, times, values, t):
    """Periodic piecewise-linear script at times t, shape (len(t), m)."""
    tau = np.mod(np.asarray(t, dtype=float), period)
    knots = np.append(times, period)
    vals = np.vstack([values, values[:1]])
    return np.column_stack([np.interp(tau, knots, vals[:, j])
                            for j in range(vals.shape[1])])


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def scripted_flow_logs(link, payoff, period, times, values, z0, t_samples):
    """Normalised z(t) = z(0) + int_0^t f(A y(s)) ds at each sample time.

    Gauss-Legendre on every linear piece of the script, so the only error
    is the quadrature's on a smooth integrand.
    """
    knots = np.append(times, period)

    def piece(a, b):
        s = 0.5 * (b - a) * _GL_X + 0.5 * (a + b)
        u = script_values(period, times, values, s) @ payoff.T
        return 0.5 * (b - a) * (_GL_W @ link(u))

    whole = [piece(knots[k], knots[k + 1]) for k in range(len(knots) - 1)]
    one_period = np.sum(whole, axis=0)
    out = []
    for t in t_samples:
        cycles = np.floor(t / period)
        tau = t - cycles * period
        acc = cycles * one_period
        for k in range(len(knots) - 1):
            if tau >= knots[k + 1]:
                acc = acc + whole[k]
            elif tau > knots[k]:
                acc = acc + piece(knots[k], tau)
        out.append(z0 + acc)
    return normalized(np.array(out))


def scripted_map_logs(link, payoff, period, times, values, backgrounds, z0,
                      sample_gens):
    """Normalised generation-map log-states against a script, as a log1p sum.

    Generation k plays the script at time k against background C_k; the
    reference r_k = min_i g_i(k) is common to all strategies and cancels
    in the normalisation.
    """
    k = np.arange(len(backgrounds), dtype=float)
    g = link(script_values(period, times, values, k) @ payoff.T)
    r = g.min(axis=1, keepdims=True)
    inc = np.log1p((g - r) / (np.asarray(backgrounds)[:, None] + r))
    cum = np.vstack([np.zeros((1, g.shape[1])), np.cumsum(inc, axis=0)])
    return normalized(z0 + cum[np.asarray(sample_gens, dtype=int)])


def compare_logs(got, want, tol: float, what: str, floor: float = -np.inf) -> None:
    """Rejects normalised log-states further than tol, relative to their
    size, from the reference. Where the reference lies below `floor` (a
    frequency too small for a CSV double to hold at full precision), the
    output need only lie below floor + 1 as well."""
    got = normalized(got)
    require(got.shape == want.shape,
            f"{what}: {got.shape} samples, reference has {want.shape}")
    deep = want < floor
    require(np.all(got[deep] < floor + 1.0),
            f"{what}: a vanishing frequency is not vanishing in the output")
    err = np.where(deep, 0.0, np.abs(got - want) / np.maximum(1.0, np.abs(want)))
    worst = float(err.max())
    require(np.isfinite(worst) and worst <= tol,
            f"{what}: log-state off the reference by {worst:.3g} (tolerance {tol:g})")


# ---------------------------------------------------------------------------
# State-dependent references


def coupled_map_logs(link1, A, link2, B, background, z1, z2, n_max, sample_every):
    """Sequential two-population generation map at a constant background."""
    z1 = np.array(z1, dtype=float)
    z2 = np.array(z2, dtype=float)
    out1, out2 = [z1.copy()], [z2.copy()]
    for step in range(1, n_max + 1):
        x1, x2 = softmax(z1), softmax(z2)
        g1, g2 = link1(A @ x2), link2(B @ x1)
        m1, m2 = x1 @ g1, x2 @ g2
        z1 = normalized(z1 + np.log1p((g1 - m1) / (background + m1)))
        z2 = normalized(z2 + np.log1p((g2 - m2) / (background + m2)))
        if step % sample_every == 0 or step == n_max:
            out1.append(z1)
            out2.append(z2)
    return np.array(out1), np.array(out2)


def speed_flow_logs(link, speed, payoff, period, times, values, z0, t_samples,
                    h: float = 0.01):
    """Classic RK4, step about h, for a scripted flow whose speed factor is
    a function of the mean payoff x . u. Steps are cut at the script's
    breakpoints and at the sample times."""
    t_samples = np.asarray(t_samples, dtype=float)
    t_end = float(t_samples[-1])
    marks = [c * period + tb for c in range(int(t_end // period) + 1)
             for tb in list(times) + [period]]
    grid = np.unique(np.concatenate([[0.0], t_samples,
                                     [m for m in marks if 0.0 < m < t_end]]))

    def rhs(t, z):
        x = softmax(z)
        u = payoff @ script_values(period, times, values, [t])[0]
        g = link(u)
        return speed(x @ u) * (g - x @ g)

    z = np.array(z0, dtype=float)
    at = {0.0: normalized(z)}
    for a, b in zip(grid[:-1], grid[1:]):
        n = max(1, int(np.ceil((b - a) / h)))
        dt = (b - a) / n
        for k in range(n):
            t = a + k * dt
            k1 = rhs(t, z)
            k2 = rhs(t + 0.5 * dt, z + 0.5 * dt * k1)
            k3 = rhs(t + 0.5 * dt, z + 0.5 * dt * k2)
            k4 = rhs(t + dt, z + dt * k3)
            z = normalized(z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        at[float(b)] = z
    return np.array([at[float(t)] for t in t_samples])


def conserved_drift(p_star, q_star, X, Y) -> float:
    """Largest change of p* . ln x + q* . ln y along the samples."""
    H = np.log(X) @ p_star + np.log(Y) @ q_star
    return float(np.max(np.abs(H - H[0])))


# ---------------------------------------------------------------------------
# Dominance


def margin_of(payoff, p, q, cols) -> float:
    """Worst payoff advantage of p over q across the given columns."""
    return float(((np.asarray(p) - np.asarray(q)) @ payoff)[list(cols)].min())


def highs_margin(payoff, q, rows, cols):
    """Best dominator margin of q over `rows` against `cols` from SciPy's
    HiGHS, or None when SciPy does not import."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    rows, cols = list(rows), list(cols)
    sub = payoff[np.ix_(rows, cols)]
    uq = (np.asarray(q) @ payoff)[cols]
    nr = len(rows)
    # variables: p over rows, then the margin; maximise the margin
    c = np.zeros(nr + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-sub.T, np.ones((len(cols), 1))])
    a_eq = np.append(np.ones(nr), 0.0)[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=-uq, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * nr + [(None, None)], method="highs")
    require(res.status == 0, f"HiGHS could not solve the reference LP: {res.message}")
    return -float(res.fun)


def certificate(payoff, dominator, q, rows, cols, margin: float) -> None:
    """A claimed dominator is a mixture over `rows` that beats q by `margin`."""
    w = np.asarray(dominator, dtype=float)
    outside = np.delete(w, list(rows))
    require(np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-9,
            "dominator is not a mixture")
    require(np.all(np.abs(outside) <= 1e-12), "dominator leaves the allowed rows")
    realized = margin_of(payoff, w, q, cols)
    require(realized > STRICT_TOL, f"certificate margin {realized:.3g} is not positive")
    require(abs(realized - margin) <= MARGIN_TOL * max(1.0, abs(margin)),
            f"reported margin {margin!r} differs from the realized {realized!r}")


def dominance_query(payoff, q, rows, cols, dominated: bool, margin: float,
                    dominator) -> dict:
    """Certificate re-check plus, with SciPy, the optimal margin from HiGHS."""
    if dominated:
        require(dominator is not None, "dominated without a dominator")
        certificate(payoff, dominator, q, rows, cols, margin)
    else:
        require(margin <= STRICT_TOL, f"margin {margin!r} reported as not dominated")
    ref = highs_margin(payoff, q, rows, cols)
    if ref is not None:
        require(abs(ref - margin) <= MARGIN_TOL * max(1.0, abs(ref)),
                f"margin {margin!r} differs from HiGHS {ref!r}")
    return {"highs_checks": int(ref is not None)}


def _pure_dominated(payoff, i, rows, cols) -> bool:
    sub = payoff[np.ix_(list(rows), list(cols))]
    return bool(np.any(np.all(sub > payoff[i, list(cols)] + STRICT_TOL, axis=1)))


def elimination(payoff, opp_payoff, mode: str, rounds, removals) -> dict:
    """Iterated strict elimination: every removal certified against the
    previous round, every pure-dominated strategy removed in its round, and
    (mixed mode, with SciPy) no survivor dominated by a mixture.

    rounds is a list of (rows, cols); removals a list of
    (round, side, index, margin, dominator weights).
    """
    mats = {"row": payoff, "col": opp_payoff}
    n_rows, n_cols = payoff.shape
    require(tuple(rounds[0][0]) == tuple(range(n_rows))
            and tuple(rounds[0][1]) == tuple(range(n_cols)),
            "first round must hold every strategy")
    for k in range(1, len(rounds)):
        prev, now = rounds[k - 1], rounds[k]
        gone = {"row": set(), "col": set()}
        for r, side, i, margin, w in removals:
            if r != k:
                continue
            own, opp = (prev[0], prev[1]) if side == "row" else (prev[1], prev[0])
            require(i in own, f"round {k} removes {side} {i}, which was gone")
            if mode == "pure-by-pure":
                require(np.count_nonzero(np.asarray(w) > 0.0) == 1,
                        "pure-by-pure removal with a mixed dominator")
            e = np.zeros(len(w))
            e[i] = 1.0
            certificate(mats[side], w, e, own, opp, margin)
            gone[side].add(i)
        require(gone["row"] or gone["col"], f"round {k} removes nothing")
        require(tuple(now[0]) == tuple(i for i in prev[0] if i not in gone["row"])
                and tuple(now[1]) == tuple(j for j in prev[1] if j not in gone["col"]),
                f"round {k} sets do not match its removals")
        for side, own, opp in (("row", prev[0], prev[1]), ("col", prev[1], prev[0])):
            for i in own:
                if i not in gone[side]:
                    require(not _pure_dominated(mats[side], i, own, opp),
                            f"round {k} keeps {side} {i}, which a pure strategy dominates")
    rows, cols = rounds[-1]
    highs = 0
    for side, own, opp in (("row", rows, cols), ("col", cols, rows)):
        for i in own:
            require(not _pure_dominated(mats[side], i, own, opp),
                    f"survivor {side} {i} is dominated by a pure strategy")
            if mode == "pure-by-mixed":
                e = np.zeros(mats[side].shape[0])
                e[i] = 1.0
                ref = highs_margin(mats[side], e, own, opp)
                if ref is not None:
                    highs += 1
                    require(ref <= MARGIN_TOL,
                            f"survivor {side} {i} is dominated (HiGHS margin {ref:.3g})")
    return {"highs_checks": highs}


def reference_elimination(payoff):
    """Surviving (rows, cols) of iterated strict elimination by mixtures,
    the same matrix read from both seats, with HiGHS LPs; None without SciPy."""
    rows = list(range(payoff.shape[0]))
    cols = list(range(payoff.shape[1]))
    while True:
        gone = {}
        for side, own, opp in (("row", rows, cols), ("col", cols, rows)):
            gone[side] = []
            for i in own:
                ref = highs_margin(payoff, np.eye(payoff.shape[0])[i], own, opp)
                if ref is None:
                    return None
                if ref > STRICT_TOL:
                    gone[side].append(i)
        if not gone["row"] and not gone["col"]:
            return rows, cols
        rows = [i for i in rows if i not in gone["row"]]
        cols = [j for j in cols if j not in gone["col"]]


def rps4_game(payoff, variant: str) -> None:
    """Cyclic 3x3 core with c < a < b, and the fourth strategy dominated by
    (hofbauer-weibull) or dominating (dual) the uniform core mixture."""
    A = np.asarray(payoff, dtype=float)
    require(A.shape == (4, 4), "construction game is not 4x4")
    a, c, b = A[0, 0], A[0, 1], A[0, 2]
    require(np.array_equal(A[:3, :3], [[a, c, b], [b, a, c], [c, b, a]]) and c < a < b,
            "core is not the cycle (a,c,b)/(b,a,c)/(c,b,a) with c < a < b")
    core = np.array([1.0, 1.0, 1.0, 0.0]) / 3.0
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    p, q = (core, e4) if variant == "hofbauer-weibull" else (e4, core)
    require(margin_of(A, p, q, range(4)) > STRICT_TOL,
            f"fourth strategy does not satisfy the {variant} dominance")


def center_drift_share(link, core_payoff, radius: float, samples: int, seed: int) -> float:
    """Share of random states within `radius` of the barycenter where
    ln(x1 x2 x3) falls under the unit-speed flow."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(samples, 3))
    h -= h.mean(axis=1, keepdims=True)
    h *= (radius * rng.uniform(0.1, 1.0, size=(samples, 1))
          / np.linalg.norm(h, axis=1, keepdims=True))
    x = 1.0 / 3.0 + h
    g = link(x @ core_payoff.T)
    drift = g.sum(axis=1) - 3.0 * np.einsum("ij,ij->i", x, g)
    return float(np.mean(drift < 0.0))

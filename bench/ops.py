"""Seeded op lists for the benchmark workloads.

A workload is a fixed list of ops built from the workload seed. Each op makes
one call into egtlab's public API (the timed part) and carries a check from
verify.py that judges the output without reusing the code path being timed.
Ops are sized only through protocol parameters (t_max, n_seeds, periods,
big_c, n_max, game size), never through dt, so a change to the default step
control is measured the way users run it.

Import this module only after checkout.prepare().
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import verify
from egtlab import cli, diagnostics, discrete, dominance, dynamics, scenarios
from egtlab.games import Game
from egtlab.links import exp_link, linear_link, sqrt_link

WHY = {
    "selfplay": "opponent follows the state: multi-seed 4x4 ensembles, coupled pairs; "
                "stepping is nearly all the time, and no op has a state-independent script",
    "scripted": "periodic opponent scripts in both time models, where exact quadrature "
                "applies, beside one scripted run whose speed depends on the state",
    "dominance": "random games up to 30x30, some with planted elimination chains; "
                 "LP work only, no integration",
}


@dataclass(frozen=True)
class Op:
    """One call into egtlab and the check of its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict | None]


class CliFailed(RuntimeError):
    """An egtlab command line exited with a nonzero code."""


@dataclass(frozen=True)
class CliRun:
    """Output files of one egtlab command line that exited with code 0."""

    files: dict

    @property
    def bytes_written(self) -> int:
        return sum(Path(p).stat().st_size for p in self.files.values()
                   if Path(p).exists())


# Protocol sizes. "full" is what the benchmark measures; "tiny" keeps every
# op and its check but shortens horizons (and, where a check needs it, uses
# a faster link or a thinner start) for the benchmark's own tests.
SIZES = {
    "full": {
        "hw_t_max": 2.0, "hw_seeds": 8,
        "dual_t_max": 75.0, "dual_seeds": 2, "dual_eps4": 0.04, "taylor_samples": 200,
        "discussion_link": None, "discussion_t_max": 45.0,
        "pair_t_max": 10.0, "pair_sample_every": 10,
        "map_n_max": 10_000,
        "nonconvex_t_max": 61.0, "nonconcave_periods": 3, "big_c": 1e4,
        "affine_n_max": 20_000, "speed_t_max": 10.0,
        "games": ((4, 1), (8, 2), (12, 3), (16, 3), (20, 0), (30, 0)),
    },
    "tiny": {
        "hw_t_max": 0.2, "hw_seeds": 8,
        "dual_t_max": 10.0, "dual_seeds": 1, "dual_eps4": 4e-4, "taylor_samples": 20,
        "discussion_link": linear_link(8.0, 0.0, (0.0, 3.0)), "discussion_t_max": 7.0,
        "pair_t_max": 0.5, "pair_sample_every": 10,
        "map_n_max": 300,
        "nonconvex_t_max": 3.0, "nonconcave_periods": 3, "big_c": 1e3,
        "affine_n_max": 500, "speed_t_max": 0.5,
        "games": ((4, 1), (5, 2), (6, 2), (7, 2), (8, 0), (9, 0)),
    },
}


def build(workload: str, seed: int, workdir: Path, size: str = "full") -> list[Op]:
    """The op list of a workload; files the ops read or write go to workdir."""
    builders = {"selfplay": _selfplay, "scripted": _scripted, "dominance": _dominance}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(builders)}")
    rng = np.random.default_rng([seed, len(workload)])
    ops = builders[workload](rng, seed, Path(workdir), SIZES[size])
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise ValueError(f"op names repeat in {workload}: {names}")
    return ops


def _interior(rng, n):
    """A random interior mixture with every weight at least 0.05."""
    return 0.05 + (1.0 - 0.05 * n) * rng.dirichlet(np.ones(n))


def _cli(workdir: Path, name: str, args: list, config: dict | None = None,
         files: tuple = ("report",)):
    """An op body that runs `egtlab <args>` with outputs under workdir."""
    paths = {kind: workdir / f"{name}.{kind}.{'csv' if kind == 'traj' else 'json'}"
             for kind in files}
    argv = list(args) + ["--out", str(paths["report"])]
    if "traj" in paths:
        argv += ["--traj", str(paths["traj"])]
    if config is not None:
        cfg_path = workdir / f"{name}.config.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]

    def run():
        code = cli.main(argv)
        if code != 0:
            raise CliFailed(f"egtlab {args[0]} exited with code {code}")
        return CliRun(paths)
    return run


def _cli_report(out: CliRun) -> dict:
    return json.loads(Path(out.files["report"]).read_text())["raw"]


def _query(name: str, game, q) -> Op:
    """One find_dominator query over every row, against every column."""
    def check(res):
        return verify.dominance_query(game.payoff, q, range(game.n_rows),
                                      range(game.n_cols), res.dominated, res.margin,
                                      _weights(res.dominator))
    return Op(name, lambda: dominance.find_dominator(game, q, mode="mixed"), check)


def _weights(strategy):
    return None if strategy is None else strategy.weights


def _scenario(name: str, link=None, **params) -> Op:
    """A catalog protocol; the runner is looked up at call time, as the
    tracer patches module attributes."""
    runner = "run_" + name.replace("-", "_")
    return Op(name, lambda: getattr(scenarios, runner)(link, **params),
              lambda out: verify.scenario_report(out[0]))


# ---------------------------------------------------------------------------
# selfplay


def _selfplay(rng, seed, workdir, p):
    f_hw = sqrt_link((0.0, 20.0))
    f_dual = exp_link(1.0, (-2.0, 2.0))
    hw = scenarios.build_rps4(f_hw, "hofbauer-weibull", (0.01, 20.0))
    dual = scenarios.build_rps4(f_dual, "dual", (-2.0, 2.0))
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    core = np.array([1.0, 1.0, 1.0, 0.0]) / 3.0
    dual_core = dual.core_game
    rule_dual = dynamics.GrowthRule(link=f_dual)

    def taylor_check(frac):
        want = verify.center_drift_share(np.exp, dual_core.payoff, 0.01, 400, seed)
        verify.require(abs(frac - want) <= 0.1,
                       f"negative-drift share {frac!r}, reference {want!r}")

    ops = [
        Op("build_rps4-hofbauer-weibull",
           lambda: scenarios.build_rps4(f_hw, "hofbauer-weibull", (0.01, 20.0)),
           lambda con: verify.rps4_game(con.game.payoff, "hofbauer-weibull")),
        Op("build_rps4-dual",
           lambda: scenarios.build_rps4(f_dual, "dual", (-2.0, 2.0)),
           lambda con: verify.rps4_game(con.game.payoff, "dual")),
        _query("find_dominator-hofbauer-weibull", hw.game, e4),
        _query("find_dominator-dual", dual.game, core),
        Op("taylor_sign_check",
           lambda: diagnostics.taylor_sign_check(rule_dual, dual_core, radius=0.01,
                                                 samples=p["taylor_samples"], seed=seed),
           taylor_check),
        _scenario("hw-4x4", seed=seed,
                  t_max=p["hw_t_max"], n_seeds=p["hw_seeds"]),
        _scenario("dual-4x4", seed=seed, t_max=p["dual_t_max"],
                  n_seeds=p["dual_seeds"], eps4=p["dual_eps4"],
                  taylor_samples=p["taylor_samples"]),
        _scenario("discussion", p["discussion_link"],
                  seed=seed, t_max=p["discussion_t_max"]),
        _coupled_pair(rng, seed, workdir, p),
        _coupled_map(rng, seed, workdir, p),
    ]
    return ops


def _coupled_pair(rng, seed, workdir, p) -> Op:
    """Zero-sum replicator pair (3 vs 4 strategies) with an interior
    equilibrium, dense samples and a trajectory CSV with target columns."""
    n, m = 3, 4
    p_star, q_star = _interior(rng, n), _interior(rng, m)
    M = rng.normal(size=(n, m))
    A = (np.eye(n) - np.outer(np.ones(n), p_star)) @ M @ (np.eye(m) - np.outer(q_star, np.ones(m)))
    A += 5.0
    B = 5.0 - A.T
    target_q = np.eye(n)[0]
    config = {
        "game": {"payoff": A.tolist()}, "mode": "continuous",
        "rule": {"kind": "replicator"}, "x0": _interior(rng, n).tolist(),
        "opponent": {"mode": "coupled", "game": {"payoff": B.tolist()},
                     "rule": {"kind": "replicator"}, "y0": _interior(rng, m).tolist()},
        "integrator": {"t_max": p["pair_t_max"], "sample_every": p["pair_sample_every"]},
        "targets": [{"p": p_star.tolist(), "q": target_q.tolist()}],
    }
    run = _cli(workdir, "coupled-pair", ["simulate", "--seed", str(seed)], config,
               ("report", "traj"))

    def check(out):
        report = _cli_report(out)
        header, data = verify.read_csv(out.files["traj"])
        want = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(m)]
        verify.require(header[:n + m + 1] == want and "w" in header,
                       f"unexpected CSV columns {header}")
        verify.require(report["n_samples"] == len(data), "report and CSV disagree on samples")
        verify.require(abs(data[-1, 0] - p["pair_t_max"]) <= 1e-9, "run stops short of t_max")
        X, Y = data[:, 1:n + 1], data[:, n + 1:n + m + 1]
        drift = verify.conserved_drift(p_star, q_star, X, Y)
        verify.require(drift <= 1e-8, f"zero-sum invariant drifts by {drift:.3g}")
        w = np.log(X) @ (p_star - target_q)
        verify.require(np.allclose(data[:, header.index("w")], w, rtol=1e-9, atol=1e-9),
                       "CSV w column does not match the states")
    return Op("simulate-coupled-pair", run, check)


def _coupled_map(rng, seed, workdir, p) -> Op:
    """Coupled generation map, sqrt links, constant background; population
    one has a strictly dominant strategy, so the run converges."""
    n, m, C = 3, 4, 20.0
    A = rng.uniform(1.0, 8.0, size=(n, m))
    A[0] = A[1:].max(axis=0) + 1.0
    B = rng.uniform(1.0, 9.0, size=(m, n))
    x0, y0 = _interior(rng, n), _interior(rng, m)
    n_max, every = p["map_n_max"], 100
    config = {
        "game": {"payoff": A.tolist()}, "mode": "discrete",
        "rule": {"kind": "payoff-functional", "link": "sqrt"}, "x0": x0.tolist(),
        "opponent": {"mode": "coupled", "game": {"payoff": B.tolist()},
                     "rule": {"kind": "payoff-functional", "link": "sqrt"},
                     "y0": y0.tolist()},
        "background": {"kind": "constant", "c0": C},
        "integrator": {"n_max": n_max, "sample_every": every},
    }
    run = _cli(workdir, "coupled-map", ["simulate", "--seed", str(seed)], config,
               ("report", "traj"))

    def check(out):
        report = _cli_report(out)
        _, data = verify.read_csv(out.files["traj"])
        verify.require(report["n_samples"] == len(data), "report and CSV disagree on samples")
        z1, z2 = verify.coupled_map_logs(np.sqrt, A, np.sqrt, B, C, np.log(x0),
                                         np.log(y0), n_max, every)
        with np.errstate(divide="ignore"):
            x, y = np.log(data[:, 1:n + 1]), np.log(data[:, n + 1:])
        verify.compare_logs(x, z1, 1e-9, "population one", verify.CSV_LOG_FLOOR)
        verify.compare_logs(y, z2, 1e-9, "population two", verify.CSV_LOG_FLOOR)
    return Op("simulate-coupled-map", run, check)


# ---------------------------------------------------------------------------
# scripted


def _scripted(rng, seed, workdir, p):
    f = sqrt_link((1.0, 9.0))
    con = scenarios.build_survival(f, "nonconvex")
    sched = con.schedule
    rule = dynamics.GrowthRule(link=f)
    x_flow, x_map = _interior(rng, 3), _interior(rng, 3)
    # The full horizon crosses the script's crossfade at T - 1 .. T (T = 59).
    t_flow = p["nonconvex_t_max"]
    n_map = p["affine_n_max"]
    bg = discrete.affine_background(1.0, 0.05)

    def flow_check(traj):
        want = verify.scripted_flow_logs(np.sqrt, con.game.payoff, sched.period,
                                         sched.times, sched.values, np.log(x_flow),
                                         traj.times)
        verify.require(abs(traj.times[-1] - t_flow) <= 1e-9, "run stops short of t_max")
        verify.compare_logs(traj.log_states, want, 1e-7, "scripted flow")

    def map_check(traj):
        gens = np.rint(traj.times).astype(int)
        verify.require(gens[-1] == n_map, "run stops short of n_max")
        want = verify.scripted_map_logs(np.sqrt, con.game.payoff, sched.period,
                                        sched.times, sched.values,
                                        1.0 + 0.05 * np.arange(n_map), np.log(x_map), gens)
        verify.compare_logs(traj.log_states, want, 1e-9, "scripted generation map")

    return [
        Op("survival-nonconvex-flow",
           lambda: dynamics.integrate(rule, con.game, x_flow, opponent=sched, t_max=t_flow),
           flow_check),
        _scenario("survival-nonconcave", seed=seed,
                  periods=p["nonconcave_periods"]),
        _scenario("background-threshold", seed=seed,
                  big_c=p["big_c"]),
        _scenario("background-schedules", seed=seed),
        Op("generation-map-affine",
           lambda: discrete.iterate(rule, con.game, x_map, opponent=sched, n_max=n_map,
                                    background=bg),
           map_check),
        _scripted_speed(rng, seed, workdir, p),
    ]


def _scripted_speed(rng, seed, workdir, p) -> Op:
    """Scripted opponent with a speed factor linear in the mean payoff: the
    one scripted case that stays state dependent."""
    A = rng.uniform(1.0, 9.0, size=(3, 2))
    period = 4.0
    times = np.array([0.0, 1.0, 2.0, 3.0])
    values = rng.dirichlet(np.ones(2), size=4)
    x0 = _interior(rng, 3)
    t_max = p["speed_t_max"]
    config = {
        "game": {"payoff": A.tolist()}, "mode": "continuous", "x0": x0.tolist(),
        "rule": {"kind": "payoff-functional", "link": "sqrt",
                 "speed": {"xs": [0.0, 10.0], "ys": [0.5, 1.5]}},
        "opponent": {"mode": "scripted",
                     "schedule": {"period": period, "times": times.tolist(),
                                  "values": values.tolist()}},
        "integrator": {"t_max": t_max, "sample_every": 100},
    }
    run = _cli(workdir, "scripted-speed", ["simulate", "--seed", str(seed)], config,
               ("report", "traj"))

    def check(out):
        report = _cli_report(out)
        _, data = verify.read_csv(out.files["traj"])
        verify.require(report["n_samples"] == len(data), "report and CSV disagree on samples")
        verify.require(abs(data[-1, 0] - t_max) <= 1e-9, "run stops short of t_max")
        want = verify.speed_flow_logs(np.sqrt, lambda v: 0.5 + 0.1 * v, A, period, times,
                                      values, np.log(x0), data[:, 0])
        with np.errstate(divide="ignore"):
            x = np.log(data[:, 1:4])
        verify.compare_logs(x, want, 1e-7, "scripted flow with speed", verify.CSV_LOG_FLOOR)
    return Op("simulate-scripted-speed", run, check)


# ---------------------------------------------------------------------------
# dominance


def planted_game(rng, n: int, depth: int):
    """Random n x n payoffs with a chain of `depth` strategies that iterated
    elimination (same matrix for both seats) removes one per round.

    Chain strategy k sits delta below the half-half mixture of two fixed
    rows everywhere except at chain strategy k-1's column, where it earns
    2, out of reach of every other row; so it becomes dominated only in the
    round after k-1 leaves. Returns (payoffs, chain).
    """
    A = rng.uniform(0.0, 1.0, size=(n, n))
    picks = rng.permutation(n)
    chain, mix = [int(i) for i in picks[:depth]], [int(i) for i in picks[depth:depth + 2]]
    for k, s in enumerate(chain):
        A[s] = 0.5 * (A[mix[0]] + A[mix[1]]) - rng.uniform(0.05, 0.15)
        if k:
            A[s, chain[k - 1]] = 2.0
    return A, chain


# The hand-written simplex fails now and then on random games of 16x16 and
# up (LpError: a certificate mismatch or a false "unbounded"), a few tenths
# of a percent of queries. Drawn per seed, such failures would come and go
# between runs; so the payoffs come from one fixed stream for every seed and
# the defect shows the same way in every run. The seed draws the query
# mixtures.
GAME_STREAM = (0, 9)


def _dominance(rng, seed, workdir, p):
    game_rng = np.random.default_rng(GAME_STREAM)
    games = []
    for n, depth in p["games"]:
        A, chain = planted_game(game_rng, n, depth)
        games.append((Game(A), chain))
    ops = []

    def eliminate(game, mode):
        def check(trace):
            verify.require(trace.mode == mode, "trace reports another mode")
            removals = [(k, side, i, res.margin, res.dominator.weights)
                        for k, side, i, res in trace.removals]
            return verify.elimination(game.payoff, game.payoff, mode, trace.rounds, removals)
        return Op(f"iterate_elimination-{mode}-{game.n_rows}",
                  lambda: dominance.iterate_elimination(game, mode=mode), check)

    for game, _ in games:
        ops.append(eliminate(game, "pure-by-mixed"))
    for game, _ in games[1::2]:
        ops.append(eliminate(game, "pure-by-pure"))

    (g3, chain3), (g4, chain4), (g5, _) = games[2], games[3], games[4]
    for game, q in ((g3, _mixture(rng, g3.n_rows, 3)), (g4, np.eye(g4.n_rows)[chain4[0]]),
                    (g5, _mixture(rng, g5.n_rows, 3))):
        ops.append(_query(f"find_dominator-{game.n_rows}", game, q))

    def after_elimination(game, q):
        def check(res):
            ref = verify.reference_elimination(game.payoff)
            if ref is None:
                return {"highs_checks": 0}
            rows, cols = ref
            return verify.dominance_query(game.payoff, q, rows, cols, res.dominated,
                                          res.margin, _weights(res.dominator))
        return Op(f"is_mixed_iteratively_dominated-{game.n_rows}",
                  lambda: dominance.is_mixed_iteratively_dominated(game, None, q), check)

    q_chain = np.zeros(g3.n_rows)
    q_chain[chain3[-2:]] = 0.5
    ops.append(after_elimination(g3, q_chain))
    ops.append(after_elimination(g4, _mixture(rng, g4.n_rows, 2)))

    for game, _ in (games[3], games[4]):
        path = workdir / f"game-{game.n_rows}.json"
        path.write_text(json.dumps({"payoff": game.payoff.tolist()}))
        ops.append(_cli_elimination(workdir, game, path, seed))
    return ops


def _mixture(rng, n: int, k: int) -> np.ndarray:
    q = np.zeros(n)
    q[rng.choice(n, size=k, replace=False)] = rng.dirichlet(np.ones(k))
    return q


def _cli_elimination(workdir, game, path, seed) -> Op:
    name = f"dominance-iterate-{game.n_rows}"
    run = _cli(workdir, name, ["dominance", "--iterate", "--game", str(path),
                               "--seed", str(seed)])

    def check(out):
        report = _cli_report(out)
        rounds = [(tuple(r["rows"]), tuple(r["cols"])) for r in report["rounds"]]
        removals = [(r["round"], r["side"], r["index"], r["margin"], np.array(r["dominator"]))
                    for r in report["removals"]]
        verify.require(report["mode"] == "pure-by-mixed", "report names another mode")
        return verify.elimination(game.payoff, game.payoff, "pure-by-mixed", rounds, removals)
    return Op(f"cli-{name}", run, check)

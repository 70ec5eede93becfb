"""Command-line front end.

Subcommands: simulate (config-driven run with verdict targets), dominance
(one query or full iterated elimination), classify (shape flags of a link),
rps-direction (cycle orientation test), scenario (catalog experiments).

Exit codes: 0 success, 1 configuration or feasibility error, 2 numerical
failure, 3 a scenario ran but missed an expected outcome. All outputs are
deterministic for a fixed config and seed: JSON is emitted with sorted keys,
display values rounded to 6 significant digits and the untouched numbers
kept under the "raw" key; CSV uses full-precision floats.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .diagnostics import elimination_metrics, verdict, w_series
from .discrete import (BackgroundFitness, affine_background, constant_background,
                       geometric_background, iterate)
from .dominance import find_dominator, iterate_elimination
from .dynamics import Coupled, GrowthRule, Schedule, integrate, write_trajectory_csv
from .games import Game, game_from_dict, load_game
from .links import (classify_link, discrete_effective_link, make_link, parse_link,
                    rps_direction, table_link)
from .scenarios import SCENARIO_INTERVALS, SCENARIOS


def _fail(message: str):
    raise ValueError(message)


def _req(d, key, path: str):
    if not isinstance(d, dict):
        _fail(f"config field {path} must be an object")
    if key not in d:
        _fail(f"config field {path}.{key} is missing")
    return d[key]


def _section(entry, path: str):
    """An optional config section: None when absent, else a JSON object."""
    if entry is not None and not isinstance(entry, dict):
        _fail(f"config field {path} must be an object")
    return entry


def _floats(text: str, what: str, count: int | None = None) -> list:
    try:
        values = [float(v) for v in str(text).split(",")]
    except ValueError:
        _fail(f"{what} must be comma-separated numbers, got {text!r}")
    if count is not None and len(values) != count:
        _fail(f"{what} takes {count} comma-separated numbers, got {len(values)} in {text!r}")
    return values


# ---------------------------------------------------------------------------
# Config assembly


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        _fail(f"unreadable config: {e}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        _fail(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        _fail("config must be a JSON object")
    return cfg


def _parse_game(entry, path: str) -> Game:
    if isinstance(entry, str):
        try:
            return load_game(entry)
        except OSError as e:
            _fail(f"{path}: unreadable game file: {e}")
    if isinstance(entry, dict):
        return game_from_dict(entry)
    _fail(f"config field {path} must be a game object or a file path")


def _payoff_hull(game: Game):
    lo = float(game.payoff.min())
    hi = float(game.payoff.max())
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _parse_link_cfg(entry, game: Game, path: str):
    hull = _payoff_hull(game)
    if entry is None:
        _fail(f"config field {path} is missing")
    if isinstance(entry, str):
        return parse_link(entry, domain=hull)
    family = str(_req(entry, "family", path))
    if family == "table":
        return table_link(_req(entry, "xs", path), _req(entry, "ys", path))
    domain = tuple(entry["domain"]) if "domain" in entry else hull
    try:
        return make_link(family, entry.get("params") or (), domain)
    except ValueError as e:
        _fail(f"config field {path}: {e}")


def _parse_rule(entry, game: Game, path: str) -> GrowthRule:
    if _section(entry, path) is None:
        return GrowthRule()
    kind = entry.get("kind", "replicator")
    if kind == "replicator":
        link = None
    elif kind == "payoff-functional":
        link = _parse_link_cfg(entry.get("link"), game, f"{path}.link")
    else:
        _fail(f"config field {path}.kind must be 'replicator' or "
              f"'payoff-functional', got {kind!r}")
    speed = entry.get("speed")
    if isinstance(speed, dict):
        speed = table_link(_req(speed, "xs", f"{path}.speed"),
                           _req(speed, "ys", f"{path}.speed"))
    try:
        return GrowthRule(link=link, speed=speed)
    except TypeError as e:
        _fail(f"config field {path}.speed: {e}")


def _parse_opponent(entry, game: Game):
    if entry is None:
        return None
    if isinstance(entry, str):
        entry = {"mode": entry}
    mode = _section(entry, "opponent").get("mode", "self-play")
    if mode == "self-play":
        return None
    if mode == "scripted":
        sc = _req(entry, "schedule", "opponent")
        return Schedule(float(_req(sc, "period", "opponent.schedule")),
                        _req(sc, "times", "opponent.schedule"),
                        _req(sc, "values", "opponent.schedule"))
    if mode == "coupled":
        opp_game = _parse_game(_req(entry, "game", "opponent"), "opponent.game")
        opp_rule = _parse_rule(entry.get("rule"), opp_game, "opponent.rule")
        return Coupled(opp_game, opp_rule, _req(entry, "y0", "opponent"))
    _fail(f"config field opponent.mode names an unknown mode {mode!r}")


def _parse_background(entry) -> BackgroundFitness:
    if _section(entry, "background") is None:
        return constant_background(0.0)
    kind = entry.get("kind", "constant")
    if kind == "constant":
        return constant_background(float(entry.get("c0", entry.get("c", 0.0))))
    if kind == "affine":
        return affine_background(float(_req(entry, "c0", "background")),
                                 float(_req(entry, "c1", "background")))
    if kind == "geometric":
        ratio = entry.get("ratio", entry.get("c1"))
        if ratio is None:
            _fail("config field background.ratio is missing")
        return geometric_background(float(_req(entry, "c0", "background")),
                                    float(ratio))
    _fail(f"config field background.kind names an unknown kind {kind!r}")


def _parse_targets(entries, game: Game):
    targets = []
    for k, entry in enumerate(entries or []):
        p = np.asarray(_req(entry, "p", f"targets[{k}]"), dtype=float)
        q = np.asarray(_req(entry, "q", f"targets[{k}]"), dtype=float)
        for name, vec in (("p", p), ("q", q)):
            if vec.shape != (game.n_rows,):
                _fail(f"config field targets[{k}].{name} needs "
                      f"{game.n_rows} weights, got {vec.size}")
        targets.append((p, q))
    return targets


# ---------------------------------------------------------------------------
# Output


def _round6(node):
    if isinstance(node, bool):
        return node
    if isinstance(node, float):
        return float(f"{node:.6g}")
    if isinstance(node, dict):
        return {k: _round6(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round6(v) for v in node]
    return node


def _emit_report(report: dict, out_path) -> None:
    doc = _round6(report)
    doc["raw"] = report
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    game = _parse_game(_req(cfg, "game", "config"), "game")
    mode = cfg.get("mode", "continuous")
    if mode not in ("continuous", "discrete"):
        _fail(f"config field mode must be 'continuous' or 'discrete', got {mode!r}")
    rule = _parse_rule(cfg.get("rule"), game, "rule")
    opponent = _parse_opponent(cfg.get("opponent"), game)
    x0 = cfg.get("x0")
    if x0 is None:
        x0 = np.full(game.n_rows, 1.0 / game.n_rows)
    targets = _parse_targets(cfg.get("targets"), game)

    integ = _section(cfg.get("integrator"), "integrator") or {}
    output = _section(cfg.get("output"), "output") or {}
    sample_every = integ.get("sample_every", 100)
    if isinstance(sample_every, float) and sample_every.is_integer():
        sample_every = int(sample_every)
    if mode == "continuous":
        t_max = args.t_max if args.t_max is not None else float(integ.get("t_max", 200.0))
        dt = args.dt if args.dt is not None else float(integ.get("dt", 1e-3))
        traj = integrate(rule, game, x0, opponent=opponent, t_max=t_max,
                         dt=dt, sample_every=sample_every)
        run = {"t_max": t_max, "dt": dt, "method": traj.meta["method"]}
    else:
        n_max = args.n_max if args.n_max is not None else int(integ.get("n_max", 10_000))
        background = _parse_background(cfg.get("background"))
        traj = iterate(rule, game, x0, opponent=opponent, n_max=n_max,
                       background=background, sample_every=sample_every)
        run = {"n_max": n_max,
               "background": {"kind": background.kind, "base": background.base,
                              "rate": background.rate}}

    target_reports = []
    for p, q in targets:
        v = verdict(traj, q)
        w = w_series(traj, p, q)
        target_reports.append({
            "p": [float(v_) for v_ in p], "q": [float(v_) for v_ in q],
            "verdict": v.__dict__,
            "w_initial": float(w[0]), "w_final": float(w[-1]),
        })
    report = {
        "mode": mode,
        "seed": args.seed,
        "game": {"digest": game.digest(), "n_rows": game.n_rows,
                 "n_cols": game.n_cols},
        "run": run,
        "n_samples": len(traj),
        "t_final": float(traj.times[-1]),
        "targets": target_reports,
    }

    traj_path = args.traj or output.get("traj")
    if traj_path:
        extras = None
        if targets:
            p, q = targets[0]
            min_support, product = elimination_metrics(traj, q)
            extras = {"w": w_series(traj, p, q), "min_support": min_support,
                      "product": product}
        write_trajectory_csv(traj, traj_path, extras)
    _emit_report(report, args.out or output.get("report"))
    return 0


def cmd_dominance(args) -> int:
    if args.iterate and args.q is not None:
        _fail("--q and --iterate cannot be combined: --iterate eliminates pure "
              "strategies and tests no mixture")
    game = _parse_game(args.game, "--game")
    mode = args.mode or "mixed"
    if args.iterate:
        trace = iterate_elimination(
            game, mode="pure-by-pure" if mode == "pure" else "pure-by-mixed")
        report = {
            "mode": trace.mode,
            "rounds": [{"rows": list(r), "cols": list(c)}
                       for r, c in trace.rounds],
            "removals": [{"round": k, "side": side, "index": i,
                          "margin": res.margin,
                          "dominator": [float(v) for v in res.dominator.weights]}
                         for k, side, i, res in trace.removals],
            "surviving_rows": list(trace.surviving_rows),
            "surviving_cols": list(trace.surviving_cols),
        }
    else:
        if args.q is None:
            _fail("dominance needs --q or --iterate")
        q = _floats(args.q, "--q")
        res = find_dominator(game, q, mode=mode)
        report = {
            "q": q,
            "mode": mode,
            "dominated": res.dominated,
            "degenerate": res.degenerate,
            "margin": res.margin,
            "dominator": ([float(v) for v in res.dominator.weights]
                          if res.dominator is not None else None),
        }
    _emit_report(report, args.out)
    return 0


def cmd_classify(args) -> int:
    interval = None
    if args.interval:
        interval = tuple(_floats(args.interval, "--interval", 2))
    f = parse_link(args.link, domain=interval)
    if args.discrete_C is not None:
        f = discrete_effective_link(f, args.discrete_C)
    cls = classify_link(f, interval=interval)
    report = {"link": args.link, "interval": list(f.domain),
              "discrete_C": args.discrete_C}
    report.update(cls.__dict__)
    _emit_report(report, args.out)
    return 0


def cmd_rps_direction(args) -> int:
    a, b, c = _floats(args.abc, "--abc", 3)
    mode = {"replicator": "replicator",
            "continuous": "continuous-functional",
            "discrete": "discrete-functional"}[args.mode]
    f = None
    if args.link:
        f = parse_link(args.link, domain=(min(a, b, c), max(a, b, c)))
    background = args.discrete_C if args.discrete_C is not None else 0.0
    direction = rps_direction(f, a, b, c, mode=mode, background=background)
    report = {"a": a, "b": b, "c": c, "mode": mode, "link": args.link,
              "background": background, "direction": direction}
    _emit_report(report, args.out)
    return 0


def cmd_scenario(args) -> int:
    runner = SCENARIOS.get(args.name)
    if runner is None:
        _fail(f"unknown scenario {args.name!r}; choices: "
              f"{', '.join(sorted(SCENARIOS))}")
    link = None
    if args.link:
        link = parse_link(args.link, domain=SCENARIO_INTERVALS[args.name])
    accepted = inspect.signature(runner).parameters
    kwargs = {"seed": args.seed}
    for attr, flag in (("t_max", "--t-max"), ("dt", "--dt"), ("n_max", "--n-max")):
        value = getattr(args, attr)
        if value is not None:
            if attr not in accepted:
                _fail(f"scenario {args.name!r} does not take {flag}")
            kwargs[attr] = value
    report, traj = runner(link, **kwargs)
    if args.traj:
        write_trajectory_csv(traj, args.traj)
    _emit_report(report, args.out)
    return 0 if report["ok"] else 3


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; here that code means a numerical
    failure, so bad flags exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--out", help="report JSON path (default: stdout)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed recorded in the report and used for sampling")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing reads it
    and never changes it, and each parse_args call fills a new namespace."""
    parser = _Parser(prog="egtlab",
                     description="Selection dynamics under monotone growth-rate transforms.")
    subs = parser.add_subparsers(dest="command", metavar="command")

    sim = subs.add_parser("simulate", help="run a config-driven simulation")
    sim.add_argument("--config", required=True, help="run config JSON path")
    sim.add_argument("--traj", help="trajectory CSV path")
    sim.add_argument("--t-max", dest="t_max", type=float)
    sim.add_argument("--dt", type=float)
    sim.add_argument("--n-max", dest="n_max", type=int)
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    dom = subs.add_parser("dominance", help="strict dominance queries")
    dom.add_argument("--game", required=True, help="game JSON path")
    dom.add_argument("--q", help="mixture to test, comma-separated weights")
    dom.add_argument("--mode", choices=("pure", "mixed"))
    dom.add_argument("--iterate", action="store_true",
                     help="iterated elimination instead of a single query")
    _add_common(dom)
    dom.set_defaults(func=cmd_dominance)

    cls = subs.add_parser("classify", help="shape flags of a link function")
    cls.add_argument("--link", required=True, help="link spec, e.g. sqrt or exp:1")
    cls.add_argument("--interval", help="payoff interval lo,hi")
    cls.add_argument("--discrete-C", dest="discrete_C", type=float,
                     help="classify ln(C + f) instead of f")
    _add_common(cls)
    cls.set_defaults(func=cmd_classify)

    rps = subs.add_parser("rps-direction", help="cycle orientation for payoffs a,b,c")
    rps.add_argument("--abc", required=True, help="cycle payoffs a,b,c")
    rps.add_argument("--link", help="link spec (functional modes)")
    rps.add_argument("--mode", choices=("replicator", "continuous", "discrete"),
                     default="replicator")
    rps.add_argument("--discrete-C", dest="discrete_C", type=float,
                     help="background fitness for discrete mode")
    _add_common(rps)
    rps.set_defaults(func=cmd_rps_direction)

    sce = subs.add_parser("scenario", help="run a catalog experiment")
    sce.add_argument("name", help=", ".join(sorted(SCENARIOS)))
    sce.add_argument("--link", help="link spec override")
    sce.add_argument("--traj", help="primary trajectory CSV path")
    sce.add_argument("--t-max", dest="t_max", type=float)
    sce.add_argument("--dt", type=float)
    sce.add_argument("--n-max", dest="n_max", type=int)
    _add_common(sce)
    sce.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return int(args.func(args))
    except (ValueError, KeyError, TypeError, AttributeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

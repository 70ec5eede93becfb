"""Command-line front end.

Subcommands: simulate (config-driven run with verdict targets), dominance
(one query or full iterated elimination), classify (shape flags of a link),
rps-direction (cycle orientation under the replicator, a --link's flow, or
with --discrete-C its generation map), scenario (catalog experiments).

simulate reads one JSON object; each field takes one form, and any other
field exits 1. A field left out takes its default; null is no value, and
exits 1 as any other wrong form does:
  game        a game's JSON form {"payoff": rows, ...} (see games) or the path of a
              file holding one; required
  mode        "continuous" (the default) or "discrete"
  rule        {"kind": "replicator"} (the default) or {"kind": "payoff-functional",
              "link": L}; a continuous run without a coupled opponent reads a speed,
              so there each also takes an optional "speed": T
  x0          one weight per strategy; the default is the uniform mixture
  opponent    left out for self-play, {"mode": "scripted", "schedule": {"period": P,
              "times": [...], "values": [[...], ...]}} or {"mode": "coupled",
              "game": G, "rule": R, "y0": [...]}, rule optional and taking no speed
  background  discrete mode only: {"kind": "constant", "c0": C} (c0 defaults to 0),
              {"kind": "affine", "c0": C, "c1": D} or {"kind": "geometric", "c0": C,
              "ratio": Q}; the default is iterate's, C = 0
  targets     a list of {"p": [...], "q": [...]}, one weight per strategy each
  integrator  {"t_max", "dt", "sample_every"} (continuous) or {"n_max",
              "sample_every"} (discrete), each optional, with the defaults of
              integrate and iterate; --t-max, --dt and --n-max override them
A link L is a spec string such as "sqrt" or "exp:2", on the game's payoff
hull unless it ends in "@lo,hi", or a knot table T = {"xs": [...], "ys": [...]};
a speed is a knot table over mean payoff. Numbers are finite JSON numbers,
never booleans or strings; t_max, dt, a period and a geometric background's
c0 and ratio are positive. The report goes to --out (default: stdout) and
the trajectory CSV to --traj.

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
from .dynamics import (Coupled, GrowthRule, Schedule, _check_count, integrate,
                       write_trajectory_csv)
from .games import Game, game_from_dict, json_floats, load_game
from .links import (classify_link, discrete_effective_link, parse_link, rps_direction,
                    table_link)
from .scenarios import SCENARIO_INTERVALS, SCENARIOS


def _fail(message: str):
    raise ValueError(message)


def _field(path: str, key: str) -> str:
    """The name of field key of the object at path ("" at the top level)."""
    return f"{path}.{key}" if path else key


def _object(entry, path: str) -> dict:
    """entry, refused unless it is a JSON object; null is no object."""
    if not isinstance(entry, dict):
        _fail(f"config field {path} must be an object")
    return entry


def _req(d, key, path: str):
    if key not in _object(d, path):
        _fail(f"config field {_field(path, key)} is missing")
    return d[key]


def _known(entry, path: str, keys) -> dict:
    """entry, refusing any key outside keys, which simulate would otherwise
    ignore; path names the object ("" at the top level)."""
    for key in _object(entry, path):
        if key not in keys:
            _fail(f"config field {_field(path, key)} is unknown; "
                  f"{path or 'the config'} takes {', '.join(keys)}")
    return entry


def _choice(value, field: str, choices, note: str = ""):
    """value, refused unless it is one of the strings choices; a list or an
    object is compared, never hashed."""
    choices = tuple(choices)
    if value not in choices:
        names = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"
        _fail(f"config field {field} must be {names}, got {value!r}{note}")
    return value


def _number(d, key, path: str, default: float | None = None, positive: bool = False) -> float:
    """The JSON number d[key] of the object at path, as a finite float, and
    above 0 if positive; a required field unless a default is given."""
    value = _req(d, key, path) if default is None else d.get(key, default)
    name = f"config field {_field(path, key)}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{name} must be a number, got {value!r}")
    value = float(json_floats(value, name))
    if not np.isfinite(value):
        _fail(f"{name} must be finite, got {value!r}")
    if positive and not value > 0.0:
        _fail(f"{name} must be positive, got {value!r}")
    return value


def _numbers(d, key, path: str) -> np.ndarray:
    """The required JSON number array d[key] of the object at path, as floats."""
    return json_floats(_req(d, key, path), f"config field {_field(path, key)}")


def _weights(d, key, path: str, n: int) -> np.ndarray:
    """The mixture d[key] of the object at path: n numbers, one per strategy.
    A simulate report describes one run, so a batch of starts is refused."""
    w = _numbers(d, key, path)
    if w.shape != (n,):
        _fail(f"config field {_field(path, key)} needs {n} weights, one per strategy, "
              f"got shape {w.shape}")
    return w


def _count(d, key, path: str) -> int:
    """The JSON count d[key] of the object at path, a whole number of at
    least 1; a whole float such as 100.0 becomes an int."""
    value = d[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _check_count(value, f"config field {_field(path, key)}")


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

# The fields simulate reads, per object; any other field is refused. The
# top level takes "background" in discrete mode only.
_TOP_KEYS = ("game", "mode", "rule", "opponent", "x0", "targets", "integrator")
_INTEGRATOR_KEYS = {"continuous": ("t_max", "dt", "sample_every"),
                    "discrete": ("n_max", "sample_every")}
_OPPONENT_KEYS = {"scripted": ("mode", "schedule"), "coupled": ("mode", "game", "rule", "y0")}
_BACKGROUND_KEYS = {"constant": ("kind", "c0"), "affine": ("kind", "c0", "c1"),
                    "geometric": ("kind", "c0", "ratio")}
_SELF_PLAY = "; leave out opponent for self-play"


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
    if not isinstance(entry, (str, dict)):
        _fail(f"config field {path} must be a game object or a file path")
    try:
        return load_game(entry) if isinstance(entry, str) else game_from_dict(entry)
    except OSError as e:
        _fail(f"{path}: unreadable game file: {e}")
    except ValueError as e:
        _fail(f"{path}: {e}")


def _table(entry, path: str):
    """A knot table {xs, ys}: a rule's link or speed."""
    if not isinstance(entry, dict):
        _fail(f"config field {path} must be a knot table {{xs, ys}}, got {entry!r}")
    _known(entry, path, ("xs", "ys"))
    return table_link(_numbers(entry, "xs", path), _numbers(entry, "ys", path))


def _parse_link(entry, game: Game, path: str):
    """A rule's link: a spec string, on the game's payoff hull unless it
    carries '@lo,hi', or a knot table."""
    if isinstance(entry, dict):
        return _table(entry, path)
    if not isinstance(entry, str):
        _fail(f"config field {path} must be a link spec or a knot table, got {entry!r}")
    lo, hi = float(game.payoff.min()), float(game.payoff.max())
    try:
        return parse_link(entry, domain=(lo, hi) if hi > lo else (lo - 0.5, hi + 0.5))
    except ValueError as e:
        _fail(f"config field {path}: {e}")


def _parse_rule(entry, game: Game, path: str, speed: bool) -> GrowthRule:
    """A rule; speed says whether its run reads a speed, which the rule then
    may hold as a knot table."""
    kind = _choice(_object(entry, path).get("kind", "replicator"), f"{path}.kind",
                   ("replicator", "payoff-functional"))
    link = (None if kind == "replicator"
            else _parse_link(_req(entry, "link", path), game, f"{path}.link"))
    _known(entry, path, ("kind",) + ("link",) * (link is not None) + ("speed",) * speed)
    return GrowthRule(link, _table(entry["speed"], f"{path}.speed") if "speed" in entry else None)


def _parse_opponent(entry):
    """The script or the second population that the opponent's mode names."""
    if not isinstance(entry, dict):
        _fail(f"config field opponent must be an object, got {entry!r}{_SELF_PLAY}")
    mode = _choice(entry.get("mode"), "opponent.mode", _OPPONENT_KEYS, _SELF_PLAY)
    _known(entry, "opponent", _OPPONENT_KEYS[mode])
    if mode == "scripted":
        sc = _req(entry, "schedule", "opponent")
        _known(sc, "opponent.schedule", ("period", "times", "values"))
        return Schedule(_number(sc, "period", "opponent.schedule", positive=True),
                        _numbers(sc, "times", "opponent.schedule"),
                        _numbers(sc, "values", "opponent.schedule"))
    opp_game = _parse_game(_req(entry, "game", "opponent"), "opponent.game")
    opp_rule = _parse_rule(entry.get("rule", {}), opp_game, "opponent.rule", speed=False)
    return Coupled(opp_game, opp_rule, _weights(entry, "y0", "opponent", opp_game.n_rows))


def _parse_background(entry) -> BackgroundFitness:
    kind = _choice(_object(entry, "background").get("kind", "constant"), "background.kind",
                   _BACKGROUND_KEYS)
    _known(entry, "background", _BACKGROUND_KEYS[kind])
    if kind == "constant":
        return constant_background(_number(entry, "c0", "background", 0.0))
    base = _number(entry, "c0", "background", positive=kind == "geometric")
    if kind == "affine":
        return affine_background(base, _number(entry, "c1", "background"))
    return geometric_background(base, _number(entry, "ratio", "background", positive=True))


def _parse_targets(entries, game: Game):
    if not isinstance(entries, list):
        _fail("config field targets must be a list")
    targets = []
    for k, entry in enumerate(entries):
        path = f"targets[{k}]"
        targets.append((_weights(entry, "p", path, game.n_rows),
                        _weights(entry, "q", path, game.n_rows)))
        _known(entry, path, ("p", "q"))
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
    game = _parse_game(_req(cfg, "game", ""), "game")
    mode = _choice(cfg.get("mode", "continuous"), "mode", _INTEGRATOR_KEYS)
    _known(cfg, "", _TOP_KEYS + (("background",) if mode == "discrete" else ()))
    flags = {attr: getattr(args, attr) for attr in ("t_max", "dt", "n_max")
             if getattr(args, attr) is not None}
    for attr in flags:
        if attr not in _INTEGRATOR_KEYS[mode]:
            _fail(f"simulate in {mode} mode does not take --{attr.replace('_', '-')}")
    opponent = _parse_opponent(cfg["opponent"]) if "opponent" in cfg else None
    rule = _parse_rule(cfg.get("rule", {}), game, "rule",
                       speed=mode == "continuous" and not isinstance(opponent, Coupled))
    x0 = (_weights(cfg, "x0", "", game.n_rows) if "x0" in cfg
          else np.full(game.n_rows, 1.0 / game.n_rows))
    targets = _parse_targets(cfg.get("targets", []), game)

    # only the values given reach the run: integrate and iterate state the defaults
    integ = _known(cfg.get("integrator", {}), "integrator", _INTEGRATOR_KEYS[mode])
    given = {key: (_number(integ, key, "integrator", positive=True) if key in ("t_max", "dt")
                   else _count(integ, key, "integrator")) for key in integ} | flags
    if mode == "continuous":
        traj = integrate(rule, game, x0, opponent=opponent, **given)
        run = {key: traj.meta[key] for key in ("t_max", "dt", "method")}
    else:
        if "background" in cfg:
            given["background"] = _parse_background(cfg["background"])
        traj = iterate(rule, game, x0, opponent=opponent, **given)
        background = traj.meta["background"]
        run = {"n_max": traj.meta["steps"],
               "background": {"kind": background.kind, "base": background.base,
                              "rate": background.rate}}

    ws = [w_series(traj, p, q) for p, q in targets]
    target_reports = [{
        "p": [float(v_) for v_ in p], "q": [float(v_) for v_ in q],
        "verdict": verdict(traj, q).__dict__,
        "w_initial": float(w[0]), "w_final": float(w[-1]),
    } for (p, q), w in zip(targets, ws)]
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

    if args.traj:
        extras = None
        if targets:
            p, q = targets[0]
            min_support, product = elimination_metrics(traj, q)
            extras = {"w": ws[0], "min_support": min_support,
                      "product": product}
        write_trajectory_csv(traj, args.traj, extras)
    _emit_report(report, args.out)
    return 0


def cmd_dominance(args) -> int:
    if args.iterate and args.q is not None:
        _fail("--q and --iterate cannot be combined: --iterate eliminates pure "
              "strategies and tests no mixture")
    game = _parse_game(args.game, "--game")
    mode = args.mode or "mixed"
    if args.iterate:
        if game.n_rows != game.n_cols:
            _fail("--iterate reads the game as one population, whose two seats share "
                  "the matrix, so it needs a square game; "
                  f"got {game.n_rows}x{game.n_cols}")
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
    C = args.discrete_C
    if C is not None and not args.link:
        _fail("--discrete-C needs --link")
    f = parse_link(args.link, domain=(min(a, b, c), max(a, b, c))) if args.link else None
    mode = "replicator" if f is None else "continuous-functional"
    if C is not None:
        f, mode = discrete_effective_link(f, C), "discrete-functional"
    direction = rps_direction(f, a, b, c)
    report = {"a": a, "b": b, "c": c, "mode": mode, "link": args.link,
              "background": 0.0 if C is None else C, "direction": direction}
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
    for attr, flag in (("t_max", "--t-max"), ("n_max", "--n-max")):
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


def _add_common(sub, seed_help: str):
    sub.add_argument("--out", help="report JSON path (default: stdout)")
    sub.add_argument("--seed", type=int, default=0, help=seed_help)


# Only scenario draws random numbers; every subcommand takes --seed.
_SEED_IGNORED = "ignored: this subcommand draws no random numbers"


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
    _add_common(sim, "recorded in the report; the run draws no random numbers")
    sim.set_defaults(func=cmd_simulate)

    dom = subs.add_parser("dominance", help="strict dominance queries")
    dom.add_argument("--game", required=True, help="game JSON path")
    dom.add_argument("--q", help="mixture to test, comma-separated weights")
    dom.add_argument("--mode", choices=("pure", "mixed"))
    dom.add_argument("--iterate", action="store_true",
                     help="iterated elimination instead of a single query")
    _add_common(dom, _SEED_IGNORED)
    dom.set_defaults(func=cmd_dominance)

    cls = subs.add_parser("classify", help="shape flags of a link function")
    cls.add_argument("--link", required=True, help="link spec, e.g. sqrt or exp:1")
    cls.add_argument("--interval", help="payoff interval lo,hi")
    cls.add_argument("--discrete-C", dest="discrete_C", type=float,
                     help="classify ln(C + f) instead of f")
    _add_common(cls, _SEED_IGNORED)
    cls.set_defaults(func=cmd_classify)

    rps = subs.add_parser("rps-direction", help="cycle orientation for payoffs a,b,c")
    rps.add_argument("--abc", required=True, help="cycle payoffs a,b,c")
    rps.add_argument("--link", help="link spec f (default: the replicator)")
    rps.add_argument("--discrete-C", dest="discrete_C", type=float,
                     help="background C: test the generation map's ln(C + f), not the flow")
    _add_common(rps, _SEED_IGNORED)
    rps.set_defaults(func=cmd_rps_direction)

    sce = subs.add_parser("scenario", help="run a catalog experiment")
    sce.add_argument("name", help=", ".join(sorted(SCENARIOS)))
    sce.add_argument("--link", help="link spec override")
    sce.add_argument("--traj", help="primary trajectory CSV path")
    sce.add_argument("--t-max", dest="t_max", type=float)
    sce.add_argument("--n-max", dest="n_max", type=int)
    _add_common(sce, "recorded in the report; seeds the random starts and "
                     "samples of hw-4x4 and dual-4x4")
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

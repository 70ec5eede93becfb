"""Spans around egtlab's public functions, kept in memory, and the per-layer
metrics computed from them.

Modules import names directly (`from .dynamics import integrate`), so each
function is patched in every module that looks it up by that name. A span
records (layer, name, start, end, parent, info); a layer's self time is its
spans' durations minus the parts their child spans cover. The benchmark
opens one root span per op, so the layers' self times plus the root spans'
self time (bench.self_s) add up to the traced wall time. Span times are
wall times and include the speed probe's ticks (run.py), about 2%.

Import this module only after checkout.prepare().
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

from egtlab.links import LinkFunction

PROTOCOLS = ("run_hw_4x4", "run_dual_4x4")
DIAGNOSTICS = ("verdict", "w_series", "log_min_support", "periodic_floor",
               "taylor_sign_check", "elimination_metrics")
SCENARIO_FUNCS = ("run_discussion", "run_survival_nonconvex", "run_survival_nonconcave",
                  "run_hw_4x4", "run_dual_4x4", "run_background_threshold",
                  "run_background_schedules", "build_survival", "build_rps4",
                  "dual_basin_k")

# (layer, function, modules that look the function up by name)
PATCHES = (
    [("dynamics", "integrate", ("dynamics", "scenarios", "cli")),
     ("discrete", "iterate", ("discrete", "scenarios", "cli")),
     ("lp", "solve_max", ("dominance",)),
     ("dominance", "find_dominator", ("dominance", "scenarios", "cli")),
     ("dominance", "strict_margin", ("dominance", "scenarios")),
     ("dominance", "iterate_elimination", ("dominance", "cli")),
     ("dominance", "is_mixed_iteratively_dominated", ("dominance",)),
     ("cli", "main", ("cli",))]
    + [("scenarios", name, ("scenarios",)) for name in SCENARIO_FUNCS]
    + [("diagnostics", name, ("diagnostics", "scenarios", "cli")) for name in DIAGNOSTICS]
)

# name -> (unit, better); the order is the report's order
PER_LAYER = {
    "dynamics.us_per_model_time": ("us", "lower"),
    "dynamics.us_per_step": ("us", "lower"),
    "dynamics.steps": ("count", "lower"),
    "dynamics.members_per_call": ("count", "higher"),
    "dynamics.samples": ("count", "lower"),
    "dynamics.self_s": ("s", "lower"),
    "dynamics.scripted_share": ("ratio", "higher"),
    "dynamics.batchable_share": ("ratio", "higher"),
    "discrete.us_per_generation": ("us", "lower"),
    "discrete.generations": ("count", "lower"),
    "discrete.self_s": ("s", "lower"),
    "discrete.scripted_share": ("ratio", "higher"),
    "lp.calls": ("count", "lower"),
    "lp.ms_per_call": ("ms", "lower"),
    "lp.self_s": ("s", "lower"),
    "dominance.queries": ("count", "lower"),
    "dominance.ms_per_query": ("ms", "lower"),
    "dominance.queries_per_game": ("count", "lower"),
    "dominance.rounds_per_game": ("count", "lower"),
    "dominance.dominated_share": ("ratio", "higher"),
    "dominance.self_s": ("s", "lower"),
    "scenarios.self_s": ("s", "lower"),
    "scenarios.rebuilds": ("count", "lower"),
    "scenarios.useful_member_share": ("ratio", "higher"),
    "diagnostics.self_s": ("s", "lower"),
    "diagnostics.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.mb_per_s": ("MB/s", "higher"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _info(name, args, kwargs, out):
    """The counts a span keeps, read from the call and its result."""
    if name == "integrate":
        rule = args[0] if args else kwargs["rule"]
        meta = out.meta
        return {"steps": meta["steps"], "model_time": meta["t_max"],
                # every call integrates one run today; an ensemble API may say otherwise
                "members": meta.get("members", 1), "samples": len(out),
                "scripted": (meta["opponent"] == "scripted"
                             and not isinstance(rule.speed, LinkFunction)),
                "game": meta["game"]}
    if name == "iterate":
        return {"generations": out.meta["steps"],
                "scripted": out.meta["opponent"] == "scripted"}
    if name == "find_dominator":
        return {"dominated": out.dominated}
    if name == "iterate_elimination":
        return {"rounds": len(out.rounds)}
    if name in PROTOCOLS:
        return {"rebuilds": out[0]["beta_halvings"], "members": len(out[0]["run"]["seeds"])}
    return None


class Tracer:
    """Collects spans while installed; single-threaded."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[5] = _info(name, args, kwargs, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for layer, name, modules in PATCHES:
            for mod_name in modules:
                mod = importlib.import_module(f"egtlab.{mod_name}")
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(layer, name, fn))

    def uninstall(self):
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    @contextmanager
    def op(self, name):
        """Root span of one op."""
        span = ["bench", name, time.perf_counter(), 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()


def _ratio(num, den):
    """num / den, or 0 when nothing was measured."""
    return num / den if den else 0.0


# Metrics that add up over the run; reported per pass over the op list.
EXTENSIVE = ("dynamics.steps", "dynamics.samples", "dynamics.self_s", "discrete.generations",
             "discrete.self_s", "lp.calls", "lp.self_s", "dominance.queries",
             "dominance.self_s", "scenarios.self_s", "scenarios.rebuilds",
             "diagnostics.self_s", "diagnostics.calls", "cli.self_s", "cli.bytes_written",
             "bench.self_s", "trace.wall_s")


def layer_metrics(spans, passes: int, cli_bytes: int, overhead_share: float) -> dict:
    """Per-layer metrics (name -> value) from the spans of `passes` traced
    passes over the op list; counts and times are per pass."""
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            covered[s[4]] += dur[i]
    self_s = Counter()
    for i, s in enumerate(spans):
        self_s[s[0]] += dur[i] - covered[i]

    # nearest enclosing elimination and protocol span of every span
    in_game, in_protocol = [-1] * len(spans), [-1] * len(spans)
    for i, s in enumerate(spans):
        parent = s[4]
        if parent >= 0:
            in_game[i] = parent if spans[parent][1] == "iterate_elimination" else in_game[parent]
            in_protocol[i] = parent if spans[parent][1] in PROTOCOLS else in_protocol[parent]

    def named(*names):
        """Spans of these functions that returned (a call that raised keeps no info)."""
        return [(i, s) for i, s in enumerate(spans) if s[1] in names and s[5] is not None]

    flows = named("integrate")
    model_time = sum(s[5]["model_time"] for _, s in flows)
    members = sum(s[5]["members"] for _, s in flows)
    member_time = sum(s[5]["model_time"] * s[5]["members"] for _, s in flows)
    steps = sum(s[5]["steps"] for _, s in flows)
    siblings = Counter((s[4], s[5]["game"]) for _, s in flows)
    batchable = sum(s[5]["model_time"] for _, s in flows if siblings[(s[4], s[5]["game"])] > 1)
    scripted_time = sum(s[5]["model_time"] for _, s in flows if s[5]["scripted"])

    maps = named("iterate")
    generations = sum(s[5]["generations"] for _, s in maps)
    scripted_gens = sum(s[5]["generations"] for _, s in maps if s[5]["scripted"])

    queries = named("find_dominator")
    games = named("iterate_elimination")
    protocols = named(*PROTOCOLS)
    protocol_flows = sum(1 for i, _ in flows if in_protocol[i] >= 0)
    lp_calls = sum(1 for s in spans if s[1] == "solve_max")
    diag_calls = sum(1 for s in spans
                     if s[0] == "diagnostics" and (s[4] < 0 or spans[s[4]][0] != "diagnostics"))
    wall = sum(dur[i] for i, s in enumerate(spans) if s[4] < 0)

    values = {
        "dynamics.us_per_model_time": 1e6 * _ratio(self_s["dynamics"], member_time),
        "dynamics.us_per_step": 1e6 * _ratio(self_s["dynamics"], steps),
        "dynamics.steps": steps,
        "dynamics.members_per_call": _ratio(members, len(flows)),
        "dynamics.samples": sum(s[5]["samples"] for _, s in flows),
        "dynamics.self_s": self_s["dynamics"],
        "dynamics.scripted_share": _ratio(scripted_time, model_time),
        "dynamics.batchable_share": _ratio(batchable, model_time),
        "discrete.us_per_generation": 1e6 * _ratio(self_s["discrete"], generations),
        "discrete.generations": generations,
        "discrete.self_s": self_s["discrete"],
        "discrete.scripted_share": _ratio(scripted_gens, generations),
        "lp.calls": lp_calls,
        "lp.ms_per_call": 1e3 * _ratio(self_s["lp"], lp_calls),
        "lp.self_s": self_s["lp"],
        "dominance.queries": len(queries),
        "dominance.ms_per_query": 1e3 * _ratio(sum(dur[i] for i, _ in queries), len(queries)),
        "dominance.queries_per_game": _ratio(sum(1 for i, _ in queries if in_game[i] >= 0),
                                             len(games)),
        "dominance.rounds_per_game": _ratio(sum(s[5]["rounds"] for _, s in games), len(games)),
        "dominance.dominated_share": _ratio(sum(s[5]["dominated"] for _, s in queries),
                                            len(queries)),
        "dominance.self_s": self_s["dominance"],
        "scenarios.self_s": self_s["scenarios"],
        "scenarios.rebuilds": sum(s[5]["rebuilds"] for _, s in protocols),
        "scenarios.useful_member_share": _ratio(sum(s[5]["members"] for _, s in protocols),
                                                protocol_flows),
        "diagnostics.self_s": self_s["diagnostics"],
        "diagnostics.calls": diag_calls,
        "cli.self_s": self_s["cli"],
        "cli.bytes_written": cli_bytes,
        "cli.mb_per_s": 1e-6 * _ratio(cli_bytes, self_s["cli"]),
        "bench.self_s": self_s["bench"],
        "trace.wall_s": wall,
        "trace.overhead_share": overhead_share,
    }
    for name in EXTENSIVE:
        values[name] /= passes
    return values

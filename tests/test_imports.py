"""egtlab does not load SciPy or numpy.polynomial. SciPy is a test oracle
only: importing scipy.integrate beside egtlab.scenarios takes 0.85 s instead
of 0.25 s and 79 MB instead of 34 MB (Python 3.11, SciPy 1.17). The exact
scripted flow's Gauss-Legendre nodes are literals for the same reason.

The oracles in tests/oracles.py stay independent of the code they check:
they may use egtlab's links and games, and the rule and error types of
egtlab.dynamics, but none of its integrators or private helpers.

The names egtlab exports, the parameters of its functions and dataclasses,
and each subcommand's command-line options are pinned: a parameter or a flag
that no caller sets does not come back unnoticed. Every export, and every
public method and property of an exported class, is read by the package or
the benchmark, or says why it stays. No source line of the package runs past
99 characters."""

import argparse
import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import egtlab
from egtlab import cli


def test_egtlab_does_not_import_scipy():
    code = ("import sys, egtlab, egtlab.cli, egtlab.scenarios; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    src = str(Path(egtlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


# module -> the names the oracles may import from it (None: any public name)
ORACLE_IMPORTS = {"egtlab.links": None, "egtlab.games": None,
                  "egtlab.dynamics": {"GrowthRule", "IntegrationError"}}


def test_oracles_import_no_integrator_code():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    imported = [(module, name) for module, name in imported
                if module.split(".")[0] == "egtlab"]
    assert imported, "the oracles import nothing from egtlab"
    for module, name in imported:
        assert module in ORACLE_IMPORTS and name is not None, f"import {module}"
        allowed = ORACLE_IMPORTS[module]
        assert not name.startswith("_") and name != "*", f"from {module} import {name}"
        assert allowed is None or name in allowed, f"from {module} import {name}"


# exported name -> parameter names of a function or a dataclass, or None
SURFACE = {
    "BackgroundFitness": ("kind", "base", "rate"),
    "Coupled": ("game", "rule", "y0"),
    "DomainError": None,
    "DominanceResult": ("dominated", "margin", "dominator", "degenerate"),
    "DynamicsClass": ("increasing", "convex", "concave", "linear", "label"),
    "EliminationTrace": ("mode", "rounds", "removals"),
    "Game": ("payoff",),
    "GrowthRule": ("link", "speed"),
    "IntegrationError": None,
    "LinkFunction": ("family", "params", "domain", "knots_x", "knots_y", "inner"),
    "LpError": None,
    "MixedStrategy": ("weights",),
    "Rps4Construction": ("link", "variant", "a", "b", "c", "beta", "gamma"),
    "SCENARIOS": None,
    "Schedule": ("period", "times", "values"),
    "SimplexError": None,
    "SurvivalConstruction": ("link", "variant", "a", "b", "eps"),
    "Trajectory": ("times", "log_states", "opp_states", "opp_log_states", "meta"),
    "Verdict": ("status", "metric_final", "metric_trend", "witness"),
    "affine_background": ("base", "slope"),
    "as_strategy": ("values",),
    "build_rps4": ("f", "variant", "search_box"),
    "build_survival": ("f", "variant"),
    "classify_link": ("f", "interval"),
    "constant_background": ("c",),
    "discrete_effective_link": ("f", "background"),
    "elimination_metrics": ("traj", "q"),
    "eval_link": ("f", "u"),
    "eval_schedule": ("schedule", "t"),
    "exp_link": ("rate", "domain"),
    "find_dominator": ("game", "q", "restrict_rows", "restrict_cols", "mode"),
    "game_from_dict": ("d",),
    "game_to_dict": ("game",),
    "geometric_background": ("base", "ratio"),
    "integrate": ("rule", "game", "x0", "opponent", "t_max", "dt", "sample_every"),
    "is_mixed_iteratively_dominated": ("game", "opponent_game", "q"),
    "iterate": ("rule", "game", "x0", "opponent", "n_max", "background", "sample_every"),
    "iterate_elimination": ("game", "mode", "opponent_game"),
    "least_squares_slope": ("x", "y"),
    "linear_link": ("slope", "intercept", "domain"),
    "load_game": ("path",),
    "log_link": ("domain",),
    "log_min_support": ("traj", "q"),
    "log_mixture_mass": ("traj", "q"),
    "parse_link": ("spec", "domain"),
    "periodic_floor": ("traj", "coords", "period"),
    "power_link": ("exponent", "domain"),
    "pure": ("i", "n"),
    "rps_direction": ("f", "a", "b", "c"),
    "solve_max": ("c", "A", "b", "basis"),
    "sqrt_link": ("domain",),
    "strict_margin": ("game", "p", "q"),
    "table_link": ("xs", "ys"),
    "taylor_sign_check": ("rule", "game", "radius", "samples", "seed"),
    "uniform": ("n",),
    "validate_simplex": ("values", "what"),
    "verdict": ("traj", "q"),
    "w_series": ("traj", "p", "q"),
    "write_trajectory_csv": ("traj", "path", "extras"),
}


def test_the_public_surface_is_pinned():
    exported = {name: value for name, value in vars(egtlab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exported) == sorted(SURFACE)
    for name, value in exported.items():
        pinned = inspect.isfunction(value) or dataclasses.is_dataclass(value)
        params = tuple(inspect.signature(value).parameters) if pinned else None
        assert params == SURFACE[name], name


# subcommand -> its option strings, and its positional arguments by name, in
# the order the parser takes them; a removed flag such as simulate's --t-max,
# --dt and --n-max (a second form of its integrator fields) stays removed
CLI_SURFACE = {
    "simulate": ("-h", "--help", "--config", "--traj", "--out", "--seed"),
    "dominance": ("-h", "--help", "--game", "--q", "--mode", "--iterate", "--out", "--seed"),
    "classify": ("-h", "--help", "--link", "--interval", "--discrete-C", "--out", "--seed"),
    "rps-direction": ("-h", "--help", "--abc", "--link", "--discrete-C", "--out", "--seed"),
    "scenario": ("-h", "--help", "name", "--link", "--traj", "--t-max", "--n-max", "--out",
                 "--seed"),
}


def test_the_command_line_surface_is_pinned():
    subs = next(action for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    surface = {name: tuple(s for action in sub._actions
                           for s in action.option_strings or (action.dest,))
               for name, sub in subs.choices.items()}
    assert surface == CLI_SURFACE


# exports, and public members of exported classes, that no package or benchmark
# code reads, each with the reason it stays
UNREACHED = {
    "log_link": "one of the six link families' constructors; CLI link specs reach the "
                "logarithm family through parse_link",
}


def test_every_export_is_reached():
    """Each exported name, and each public method and property an exported
    class defines, is read in src/egtlab (not __init__.py) or bench/ as a
    name or an attribute; imports and definitions are not reads. The match is
    by name alone, so a member slips through when anything else the sources
    read shares its name, as BackgroundFitness.value and
    MixedStrategy.support once did."""
    root = Path(egtlab.__file__).resolve().parent
    bench = Path(__file__).resolve().parent.parent / "bench"
    sources = sorted(bench.glob("*.py"))
    assert sources, f"no benchmark sources in {bench}"
    sources += [path for path in sorted(root.glob("*.py")) if path.name != "__init__.py"]
    read = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for name, value in vars(egtlab).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        if name not in read:
            unread.append(name)
        members = vars(value).items() if inspect.isclass(value) else ()
        unread += [f"{name}.{member}" for member, attr in members
                   if not member.startswith("_") and member not in read
                   and (inspect.isfunction(attr)
                        or isinstance(attr, (property, staticmethod, classmethod)))]
    assert sorted(unread) == sorted(UNREACHED)


def test_no_source_line_runs_past_99_characters():
    root = Path(egtlab.__file__).resolve().parent
    long = [f"{path.name}:{k}" for path in sorted(root.glob("*.py"))
            for k, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 99]
    assert long == []

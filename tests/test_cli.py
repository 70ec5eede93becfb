"""End-to-end command line checks, run in process through main(argv)."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from egtlab import cli
from egtlab.cli import main
from egtlab.dynamics import GrowthRule
from egtlab.games import Game
from egtlab.links import parse_link, table_link
from egtlab.scenarios import SCENARIOS

DISCUSSION_PAYOFF = [[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def discussion_cfg(tmp_path):
    return write_json(tmp_path / "run.json", {
        "mode": "continuous",
        "game": {"payoff": DISCUSSION_PAYOFF},
        "rule": {"kind": "replicator"},
        "x0": [0.4, 0.4, 0.2],
        "targets": [{"p": [0.0, 0.0, 1.0], "q": [0.5, 0.5, 0.0]}],
        "integrator": {"t_max": 200.0},
    })


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_simulate_report_and_trajectory(discussion_cfg, tmp_path):
    report_path = tmp_path / "report.json"
    traj_path = tmp_path / "traj.csv"
    code = main(["simulate", "--config", discussion_cfg,
                 "--out", str(report_path), "--traj", str(traj_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    raw = doc["raw"]
    assert raw["mode"] == "continuous" and raw["t_final"] == 200.0
    assert raw["run"]["method"] == "dop853"
    target = raw["targets"][0]
    assert target["verdict"]["status"] == "eliminated"
    assert target["w_final"] - target["w_initial"] >= 99.9
    header = traj_path.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,w,min_support,product"
    data = np.loadtxt(traj_path, delimiter=",", skiprows=1)
    assert data.shape[1] == 7
    np.testing.assert_allclose(data[:, 1:4].sum(axis=1), 1.0, atol=1e-9)


def test_simulate_is_deterministic(discussion_cfg, tmp_path):
    cfg = json.loads(Path(discussion_cfg).read_text())
    cfg["integrator"]["t_max"] = 5.0
    cfg = write_json(tmp_path / "short.json", cfg)
    outs = []
    for tag in ("one", "two"):
        rp, tp = tmp_path / f"r-{tag}.json", tmp_path / f"t-{tag}.csv"
        assert main(["simulate", "--config", cfg, "--out", str(rp), "--traj", str(tp)]) == 0
        outs.append((rp.read_bytes(), tp.read_bytes()))
    assert outs[0] == outs[1]


def test_simulate_rejects_mismatched_target(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {
        "game": {"payoff": [[1.0, 0.0], [0.0, 1.0]]},
        "targets": [{"p": [1.0, 0.0], "q": [0.5, 0.25, 0.25]}],
    })
    assert main(["simulate", "--config", cfg]) == 1
    assert "targets[0].q" in capsys.readouterr().err


@pytest.mark.parametrize("targets", [{"p": [1.0, 0.0], "q": [0.0, 1.0]}, "p"],
                         ids=["object", "string"])
def test_simulate_refuses_targets_that_are_not_a_list(tmp_path, capsys, targets):
    cfg = write_json(tmp_path / "bad.json", {
        "game": {"payoff": [[1.0, 0.0], [0.0, 1.0]]}, "targets": targets})
    assert main(["simulate", "--config", cfg]) == 1
    assert "config field targets must be a list" in capsys.readouterr().err


def test_simulate_discrete_numerical_failure(tmp_path, capsys):
    cfg = write_json(tmp_path / "neg.json", {
        "mode": "discrete",
        "game": {"payoff": [[1.0, 1.0], [-2.0, -2.0]]},
        "x0": [0.5, 0.5],
        "integrator": {"n_max": 10},
    })
    assert main(["simulate", "--config", cfg]) == 2
    assert "generation" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_growth_rates_too_large_for_any_step_exit_2_with_one_line(scale, tmp_path, capsys):
    # the first step size divided by 0 and printed a ZeroDivisionError traceback
    cfg = write_json(tmp_path / "huge.json", {
        "game": {"payoff": [[scale, 0.0], [0.0, scale]]}, "x0": [0.3, 0.7],
        "integrator": {"t_max": 1.0}})
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", "error: step size fell to 0 near t=0\n")


def test_simulate_discrete_report(tmp_path, capsys):
    cfg = write_json(tmp_path / "disc.json", {
        "mode": "discrete",
        "game": {"payoff": [[2.0, 2.0], [1.0, 1.0]]},
        "x0": [0.5, 0.5],
        "background": {"kind": "geometric", "c0": 1.0, "ratio": 2.0},
        "integrator": {"n_max": 1000},
        "targets": [{"p": [1.0, 0.0], "q": [0.0, 1.0]}],
    })
    code, doc = run_json(capsys, ["simulate", "--config", cfg])
    assert code == 0
    raw = doc["raw"]
    assert raw["run"]["background"]["kind"] == "geometric"
    # the fast schedule freezes selection; both strategies keep their mass
    assert raw["targets"][0]["verdict"]["status"] == "survived"


@pytest.mark.parametrize("field, value", [("rule", "replicator"), ("integrator", [1]),
                                          ("background", 3), ("opponent", [1])])
def test_config_sections_must_be_objects(tmp_path, capsys, field, value):
    doc = {"mode": "discrete", "game": {"payoff": [[2.0, 2.0], [1.0, 1.0]]},
           "x0": [0.5, 0.5], "integrator": {"n_max": 10}}
    cfg = write_json(tmp_path / "bad.json", {**doc, field: value})
    assert main(["simulate", "--config", cfg]) == 1
    assert f"config field {field} must be an object" in capsys.readouterr().err


def test_a_schedule_must_be_an_object(tmp_path, capsys):
    # its keys were read as the characters of a string, or the items of a list
    for schedule in ("abc", ["abc"]):
        cfg = {"game": {"payoff": DISCUSSION_PAYOFF},
               "opponent": {"mode": "scripted", "schedule": schedule}}
        assert main(["simulate", "--config", write_json(tmp_path / "bad.json", cfg)]) == 1
        assert capsys.readouterr().err == \
            "error: config field opponent.schedule must be an object\n"


def test_simulate_rejects_a_fractional_sample_every(tmp_path, capsys):
    cfg = write_json(tmp_path / "frac.json", {
        "game": {"payoff": DISCUSSION_PAYOFF},
        "integrator": {"t_max": 1.0, "sample_every": 2.5},
    })
    assert main(["simulate", "--config", cfg]) == 1
    assert "sample_every must be an integer, got 2.5" in capsys.readouterr().err


@pytest.mark.parametrize("integrator, message", [
    ({"n_max": 2.5}, "n_max must be an integer, got 2.5"),
    ({"n_max": True}, "n_max must be an integer, got True"),
    ({"n_max": "10"}, "n_max must be an integer, got '10'"),
    ({"n_max": 10, "sample_every": False}, "sample_every must be an integer, got False"),
    ({"n_max": 10, "sample_every": 0},
     "error: config field integrator.sample_every must be at least 1, got 0\n"),
], ids=["fraction", "bool", "string", "bool-sample-every", "zero-sample-every"])
def test_simulate_discrete_refuses_counts_that_are_not_whole(tmp_path, capsys, integrator,
                                                             message):
    cfg = write_json(tmp_path / "count.json", {
        "mode": "discrete", "game": {"payoff": [[2.0, 2.0], [1.0, 1.0]]},
        "x0": [0.5, 0.5], "integrator": integrator,
    })
    assert main(["simulate", "--config", cfg]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("background", [
    {"kind": "affine", "c0": 1.0, "c1": math.inf},
    {"kind": "affine", "c0": 1.0, "c1": math.nan},
    {"kind": "geometric", "c0": 1.0, "ratio": math.inf},
], ids=["affine-inf", "affine-nan", "geometric-inf"])
def test_simulate_discrete_refuses_a_rate_that_is_not_finite(tmp_path, capsys, background):
    # json writes these as Infinity and NaN, which its reader accepts
    cfg = write_json(tmp_path / "rate.json", {
        "mode": "discrete", "game": {"payoff": [[2.0, 2.0], [1.0, 1.0]]},
        "x0": [0.5, 0.5], "background": background, "integrator": {"n_max": 10},
    })
    key = "ratio" if "ratio" in background else "c1"
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == \
        f"error: config field background.{key} must be finite, got {background[key]!r}\n"


def test_simulate_discrete_takes_a_whole_float_count(tmp_path, capsys):
    cfg = write_json(tmp_path / "count.json", {
        "mode": "discrete", "game": {"payoff": [[2.0, 2.0], [1.0, 1.0]]},
        "x0": [0.5, 0.5], "integrator": {"n_max": 100.0, "sample_every": 10.0},
    })
    code, doc = run_json(capsys, ["simulate", "--config", cfg])
    assert code == 0
    assert doc["raw"]["run"]["n_max"] == 100 and doc["raw"]["t_final"] == 100.0
    assert doc["raw"]["n_samples"] == 11


@pytest.mark.parametrize("key, value", [("t_max", "10"), ("t_max", True), ("t_max", None)])
def test_simulate_times_must_be_json_numbers(tmp_path, capsys, key, value):
    cfg = write_json(tmp_path / "times.json", {
        "game": {"payoff": DISCUSSION_PAYOFF},
        "integrator": {"t_max": 1.0, key: value},
    })
    assert main(["simulate", "--config", cfg]) == 1
    assert f"config field integrator.{key} must be a number, got {value!r}" in \
        capsys.readouterr().err


SHORT = {"game": {"payoff": DISCUSSION_PAYOFF}, "integrator": {"t_max": 1.0}}
MAP = {"mode": "discrete", "game": {"payoff": DISCUSSION_PAYOFF}, "integrator": {"n_max": 5}}
SCRIPT = {"period": 2.0, "times": [0.0, 1.0], "values": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
TARGET = {"p": [0.0, 0.0, 1.0], "q": [0.5, 0.5, 0.0]}
PAIR = {"mode": "coupled", "game": {"payoff": DISCUSSION_PAYOFF}, "y0": [0.2, 0.3, 0.5]}
SPEED = {"xs": [0.0, 3.0], "ys": [1.0, 2.0]}
# (config, the one field in it that simulate does not read)
UNREAD = {
    "top": ({**SHORT, "seed": 3}, "seed"),
    "integrator": ({**SHORT, "integrator": {"tmax": 5}}, "integrator.tmax"),
    "continuous-n-max": ({**SHORT, "integrator": {"t_max": 1.0, "n_max": 5}},
                         "integrator.n_max"),
    "discrete-t-max": ({**MAP, "integrator": {"n_max": 5, "t_max": 1.0}}, "integrator.t_max"),
    "continuous-background": ({**SHORT, "background": {"kind": "constant", "c0": 1.0}},
                              "background"),
    "background": ({**MAP, "background": {"kind": "constant", "C": 50}}, "background.C"),
    "constant-alias": ({**MAP, "background": {"kind": "constant", "c": 50}}, "background.c"),
    "geometric-alias": ({**MAP, "background": {"kind": "geometric", "c0": 1.0, "c1": 2.0}},
                        "background.c1"),
    "rule": ({**SHORT, "rule": {"kind": "replicator", "sped": 2.0}}, "rule.sped"),
    "replicator-link": ({**SHORT, "rule": {"kind": "replicator", "link": "sqrt"}}, "rule.link"),
    "link": ({**SHORT, "opponent": {**PAIR, "rule": {"kind": "payoff-functional", "link": {
        "xs": [0.0, 3.0], "ys": [0.0, 3.0], "lo": 0.0}}}}, "opponent.rule.link.lo"),
    "table-link": ({**SHORT, "rule": {"kind": "payoff-functional", "link": {
        "xs": [0.0, 3.0], "ys": [0.0, 3.0], "domain": [0.0, 3.0]}}}, "rule.link.domain"),
    "speed": ({**SHORT, "rule": {"speed": {"xs": [0.0, 3.0], "ys": [1.0, 2.0], "lo": 0.0}}},
              "rule.speed.lo"),
    "opponent": ({**SHORT, "opponent": {"mode": "scripted", "schedule": SCRIPT,
                                        "y0": [1.0, 0.0, 0.0]}}, "opponent.y0"),
    "schedule": ({**SHORT, "opponent": {"mode": "scripted", "schedule": {**SCRIPT, "phase": 1.0}}},
                 "opponent.schedule.phase"),
    "coupled-rule": ({**SHORT, "opponent": {**PAIR, "rule": {"knd": "replicator"}}},
                     "opponent.rule.knd"),
    "output": ({**SHORT, "output": {"traj": "t.csv"}}, "output"),
    # a speed table where no run reads one
    "discrete-speed": ({**MAP, "rule": {"speed": SPEED}}, "rule.speed"),
    "coupled-speed": ({**SHORT, "rule": {"speed": SPEED}, "opponent": PAIR}, "rule.speed"),
    "opponent-speed": ({**SHORT, "opponent": {**PAIR, "rule": {"speed": SPEED}}},
                       "opponent.rule.speed"),
    "target": ({**SHORT, "targets": [TARGET, {**TARGET, "r": [1.0, 0.0, 0.0]}]}, "targets[1].r"),
}


@pytest.mark.parametrize("case", UNREAD)
def test_simulate_refuses_fields_it_does_not_read(tmp_path, capsys, case):
    cfg, field = UNREAD[case]
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field {field} is unknown; ") and err.count("\n") == 1


# the background's and the script's numbers, each placed in a config that
# otherwise runs
NUMBER_FIELDS = {
    "background.c0": lambda v: {**MAP, "background": {"kind": "constant", "c0": v}},
    "background.c1": lambda v: {**MAP, "background": {"kind": "affine", "c0": 1.0, "c1": v}},
    "background.ratio": lambda v: {**MAP, "background": {"kind": "geometric", "c0": 1.0,
                                                         "ratio": v}},
    "opponent.schedule.period": lambda v: {
        **MAP, "background": {"kind": "constant", "c0": 1.0},
        "opponent": {"mode": "scripted",
                     "schedule": {**SCRIPT, "times": [0.0, 0.5], "period": v}}},
}


@pytest.mark.parametrize("value", [True, "4"])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_background_and_period_must_be_json_numbers(tmp_path, capsys, field, value):
    # float() would read True as 1.0 and "4" as 4.0
    cfg = write_json(tmp_path / "cfg.json", NUMBER_FIELDS[field](value))
    assert main(["simulate", "--config", cfg]) == 1
    assert f"config field {field} must be a number, got {value!r}" in capsys.readouterr().err


def test_a_constant_background_defaults_to_zero(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {**MAP, "background": {"kind": "constant"}})
    code, doc = run_json(capsys, ["simulate", "--config", cfg])
    assert code == 0
    assert doc["raw"]["run"]["background"] == {"kind": "constant", "base": 0.0, "rate": 0.0}


@pytest.mark.parametrize("speed", [2.0, -1.0, True, "fast"])
def test_a_speed_that_is_no_table_exits_1(tmp_path, capsys, speed):
    # a constant speed is a change of time (scale t_max), not a speed factor
    cfg = {**SHORT, "rule": {"speed": speed}}
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 1
    assert capsys.readouterr().err == \
        f"error: config field rule.speed must be a knot table {{xs, ys}}, got {speed!r}\n"


@pytest.mark.parametrize("cfg", [
    {**SHORT, "mode": "continuous", "x0": [0.4, 0.4, 0.2], "targets": [TARGET],
     "rule": {"kind": "payoff-functional", "link": {"xs": [0.0, 3.0], "ys": [0.0, 3.0]},
              "speed": {"xs": [0.0, 3.0], "ys": [1.0, 2.0]}},
     "opponent": {"mode": "scripted", "schedule": SCRIPT},
     "integrator": {"t_max": 1.0, "sample_every": 200}},
    {**MAP, "x0": [0.4, 0.4, 0.2], "targets": [TARGET],
     "rule": {"kind": "payoff-functional", "link": "linear:1,1@0,3"},
     "opponent": {**PAIR, "rule": {"kind": "replicator"}},
     "background": {"kind": "affine", "c0": 1.0, "c1": 0.5},
     "integrator": {"n_max": 5, "sample_every": 2}},
], ids=["continuous", "discrete"])
def test_simulate_reads_every_field_it_takes(tmp_path, cfg):
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg),
                 "--out", str(tmp_path / "r.json"), "--traj", str(tmp_path / "t.csv")]) == 0
    assert (tmp_path / "r.json").exists() and (tmp_path / "t.csv").exists()


def test_simulate_runs_a_generation_map_on_a_knot_table(tmp_path):
    xs, ys = [0.0, 1.0, 2.5, 3.0], [0.1, 0.4, 2.2, 2.3]
    cfg = {**MAP, "x0": [0.4, 0.4, 0.2], "integrator": {"n_max": 20, "sample_every": 1},
           "rule": {"kind": "payoff-functional", "link": {"xs": xs, "ys": ys}},
           "background": {"kind": "constant", "c0": 0.5}}
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg),
                 "--out", str(tmp_path / "r.json"), "--traj", str(tmp_path / "t.csv")]) == 0
    states = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)[:, 1:4]
    rule, game = GrowthRule(link=table_link(xs, ys)), Game(DISCUSSION_PAYOFF)
    x = np.array([0.4, 0.4, 0.2])
    for n in range(20):
        x = oracles.step(rule, game, x, C=0.5)
        np.testing.assert_allclose(states[n + 1], x, rtol=1e-12)


# forms an earlier config grammar also took, each with its one error line;
# UNREAD checks the output section's and a speed table's where no run reads one
REMOVED = {
    "string-opponent": ({**SHORT, "opponent": "self-play"},
                        "config field opponent must be an object, got 'self-play'; "
                        "leave out opponent for self-play"),
    "self-play-mode": ({**SHORT, "opponent": {"mode": "self-play"}},
                       "config field opponent.mode must be 'scripted' or 'coupled', "
                       "got 'self-play'; leave out opponent for self-play"),
    "no-mode": ({**SHORT, "opponent": {}},
                "config field opponent.mode must be 'scripted' or 'coupled', got None; "
                "leave out opponent for self-play"),
    "link-object": ({**SHORT, "rule": {"kind": "payoff-functional", "link": {
        "family": "exp", "params": [1.0], "domain": [0.0, 3.0]}}},
        "config field rule.link.family is unknown; rule.link takes xs, ys"),
    "table-family": ({**SHORT, "opponent": {**PAIR, "rule": {"kind": "payoff-functional", "link": {
        "family": "table", "xs": [0.0, 3.0], "ys": [0.0, 3.0]}}}},
        "config field opponent.rule.link.family is unknown; opponent.rule.link takes xs, ys"),
    # null was a second way to leave a field out
    "null-rule": ({**SHORT, "rule": None}, "config field rule must be an object"),
    "null-opponent": ({**SHORT, "opponent": None},
                      "config field opponent must be an object, got None; "
                      "leave out opponent for self-play"),
    "null-opponent-rule": ({**SHORT, "opponent": {**PAIR, "rule": None}},
                           "config field opponent.rule must be an object"),
    "null-x0": ({**SHORT, "x0": None}, "config field x0 must hold only numbers, got None"),
    "null-targets": ({**SHORT, "targets": None}, "config field targets must be a list"),
    "null-integrator": ({**SHORT, "integrator": None},
                        "config field integrator must be an object"),
    "null-background": ({**MAP, "background": None}, "config field background must be an object"),
    "null-speed": ({**SHORT, "rule": {"speed": None}},
                   "config field rule.speed must be a knot table {xs, ys}, got None"),
    # the flow samples a fixed grid, so no value sets its spacing
    "integrator-dt": ({**SHORT, "integrator": {"t_max": 1.0, "dt": 1e-3}},
                      "config field integrator.dt is unknown; integrator takes t_max, "
                      "sample_every"),
    "opponent-game-labels": ({**SHORT, "opponent": {**PAIR, "game": {
        "payoff": DISCUSSION_PAYOFF, "row_labels": ["T", "M", "B"]}}},
        "opponent.game: game JSON key 'row_labels' is unknown; a game takes only 'payoff'"),
}
# a game is its payoffs alone: no code reads a strategy label, so a label,
# like any other key, is refused. Each form is given inline and as the path of a
# file, which the removed-form test writes to its working directory.
OLD_GAMES = {"row-labels": ("row_labels", ["T", "M", "B"]),
             "col-labels": ("col_labels", ["L", "C", "R"]),
             "unknown-key": ("name", "discussion")}
REMOVED |= {f"game-{name}-{where}": (
    {**SHORT, "game": game}, f"game: game JSON key {key!r} is unknown; a game takes only 'payoff'")
    for name, (key, value) in OLD_GAMES.items()
    for where, game in (("inline", {"payoff": DISCUSSION_PAYOFF, key: value}),
                        ("file", f"{name}.json"))}


@pytest.mark.parametrize("case", REMOVED)
def test_a_removed_config_form_exits_1_with_one_line(tmp_path, monkeypatch, capsys, case):
    cfg, message = REMOVED[case]
    monkeypatch.chdir(tmp_path)
    for name, (key, value) in OLD_GAMES.items():
        write_json(tmp_path / f"{name}.json", {"payoff": DISCUSSION_PAYOFF, key: value})
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_the_module_docstring_states_every_config_key():
    # the grammar in cli's docstring and the tables the parser refuses keys by
    # are kept apart, so each key of the tables must appear in the grammar: a
    # top-level field as the first word of its line, every other key, mode and
    # kind quoted
    grammar = cli.__doc__
    fields = {line.split()[0] for line in grammar.splitlines() if line.startswith("  ")
              and not line.startswith("   ")}
    assert set(cli._TOP_KEYS) | {"background"} <= fields
    for table in (cli._INTEGRATOR_KEYS, cli._OPPONENT_KEYS, cli._BACKGROUND_KEYS):
        for name, keys in table.items():
            for key in (name, *keys):
                assert f'"{key}"' in grammar, key


BIG = int("1" + "0" * 400)  # a JSON integer that no float holds
SCALAR_FIELDS = {"integrator.t_max": lambda v: {**SHORT, "integrator": {"t_max": v}},
                 **NUMBER_FIELDS}


@pytest.mark.parametrize("field", SCALAR_FIELDS)
def test_a_number_beyond_the_float_range_exits_1(tmp_path, capsys, field):
    cfg = write_json(tmp_path / "cfg.json", SCALAR_FIELDS[field](BIG))
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == (f"error: config field {field} holds an integer beyond "
                                       "the float range\n")


# (field, config, what the field must be): numbers outside their field's
# range; "1e400" is written as the JSON number 1e400, which reads as inf
OUT_OF_RANGE = {
    "t-max": ("integrator.t_max", SCALAR_FIELDS["integrator.t_max"](-1), "positive, got -1.0"),
    "c0": ("background.c0", SCALAR_FIELDS["background.c0"]("1e400"), "finite, got inf"),
    "geometric-c0": ("background.c0", {**MAP, "background": {"kind": "geometric", "c0": -1,
                                                             "ratio": 2.0}},
                     "positive, got -1.0"),
    "period": ("opponent.schedule.period", SCALAR_FIELDS["opponent.schedule.period"](-1),
               "positive, got -1.0"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_a_number_outside_its_fields_range_exits_1_with_one_line(tmp_path, capsys, case):
    field, cfg, must = OUT_OF_RANGE[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"1e400"', "1e400"))
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: config field {field} must be {must}\n")


# every numeric array, with v placed where True reads as 1.0 in a config
# that otherwise runs, and the name its error gives the array
ARRAY_FIELDS = {
    "x0": (lambda v: {**SHORT, "x0": [v, 0.0, 0.0]}, "config field x0"),
    "opponent.y0": (lambda v: {**SHORT, "opponent": {**PAIR, "y0": [0.0, v, 0.0]}},
                    "config field opponent.y0"),
    "targets.p": (lambda v: {**SHORT, "targets": [{**TARGET, "p": [0.0, 0.0, v]}]},
                  "config field targets[0].p"),
    "targets.q": (lambda v: {**SHORT, "targets": [{**TARGET, "q": [v, 0.0, 0.0]}]},
                  "config field targets[0].q"),
    "schedule.times": (lambda v: {**SHORT, "opponent": {
        "mode": "scripted", "schedule": {**SCRIPT, "times": [0.0, v]}}},
        "config field opponent.schedule.times"),
    "schedule.values": (lambda v: {**SHORT, "opponent": {
        "mode": "scripted", "schedule": {**SCRIPT, "values": [[v, 0.0, 0.0], [0.0, 1.0, 0.0]]}}},
        "config field opponent.schedule.values"),
    "link.xs": (lambda v: {**SHORT, "rule": {"kind": "payoff-functional", "link": {
        "xs": [0.0, v, 3.0], "ys": [0.0, 1.0, 3.0]}}}, "config field rule.link.xs"),
    "link.ys": (lambda v: {**SHORT, "rule": {"kind": "payoff-functional", "link": {
        "xs": [0.0, 3.0], "ys": [v, 3.0]}}}, "config field rule.link.ys"),
    "speed.xs": (lambda v: {**SHORT, "rule": {"speed": {"xs": [0.0, v, 3.0],
                                                         "ys": [1.0, 1.5, 2.0]}}},
                 "config field rule.speed.xs"),
    "speed.ys": (lambda v: {**SHORT, "rule": {"speed": {"xs": [0.0, 3.0], "ys": [v, 2.0]}}},
                 "config field rule.speed.ys"),
    "game": (lambda v: {**SHORT, "game": {"payoff": [[3.0, 0.0, 0.0], [0.0, 3.0, 0.0],
                                                     [2.0, 2.0, v]]}}, "game: payoff"),
    "opponent.game": (lambda v: {**SHORT, "opponent": {**PAIR, "game": {"payoff": [
        [3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, v]]}}}, "opponent.game: payoff"),
}


@pytest.mark.parametrize("value, says", [
    (True, "must hold only numbers, got True"),
    (BIG, "holds an integer beyond the float range"),
], ids=["true", "big"])
@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_numeric_arrays_hold_only_json_numbers_that_floats_hold(tmp_path, capsys, field, value,
                                                                says):
    config, name = ARRAY_FIELDS[field]
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", config(value))]) == 1
    assert capsys.readouterr().err == f"error: {name} {says}\n"


def test_a_game_file_holds_an_object(tmp_path, capsys):
    # a number in the file raised TypeError on the 'payoff' lookup
    game = write_json(tmp_path / "g.json", 5)
    assert main(["dominance", "--game", game, "--iterate"]) == 1
    assert capsys.readouterr().err == \
        "error: --game: game JSON must be an object with a 'payoff' key\n"


def test_a_dominance_game_file_holds_only_the_payoffs(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", {"payoff": [[1.0, 0.0], [0.0, 1.0]],
                                            "col_labels": ["L", "R"]})
    assert main(["dominance", "--game", game, "--iterate"]) == 1
    assert capsys.readouterr() == ("", "error: --game: game JSON key 'col_labels' is unknown; "
                                       "a game takes only 'payoff'\n")


def test_dominance_game_files_hold_only_json_numbers(tmp_path, capsys):
    for value, says in ((True, "must hold only numbers, got True"),
                        ("1", "must hold only numbers, got '1'"),
                        (BIG, "holds an integer beyond the float range")):
        game = write_json(tmp_path / "g.json", {"payoff": [[1.0, value], [0.0, 1.0]]})
        assert main(["dominance", "--game", game, "--iterate"]) == 1
        assert capsys.readouterr() == ("", f"error: --game: payoff {says}\n")


# the fields that take one of a few strings, with a config for each
CHOICE_FIELDS = {
    "mode": (lambda v: {**SHORT, "mode": v}, "'continuous' or 'discrete'"),
    "rule.kind": (lambda v: {**SHORT, "rule": {"kind": v}}, "'replicator' or 'payoff-functional'"),
    "opponent.mode": (lambda v: {**SHORT, "opponent": {"mode": v}}, "'scripted' or 'coupled'"),
    "background.kind": (lambda v: {**MAP, "background": {"kind": v}},
                        "'constant', 'affine' or 'geometric'"),
}


@pytest.mark.parametrize("value", [["constant"], {"kind": "coupled"}], ids=["list", "object"])
@pytest.mark.parametrize("field", CHOICE_FIELDS)
def test_a_choice_field_names_its_choices(tmp_path, capsys, field, value):
    config, choices = CHOICE_FIELDS[field]
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", config(value))]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config field {field} must be {choices}, got {value!r}")


@pytest.mark.parametrize("cfg, field, shape", [
    ({**SHORT, "x0": [[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]]}, "x0", (2, 3)),
    ({**SHORT, "x0": [[0.4, 0.4, 0.2]], "targets": [TARGET]}, "x0", (1, 3)),
    ({**SHORT, "x0": [0.5, 0.5]}, "x0", (2,)),
    ({**SHORT, "opponent": {**PAIR, "y0": [[0.2, 0.3, 0.5]]}}, "opponent.y0", (1, 3)),
], ids=["batch", "batch-with-targets", "short", "coupled-batch"])
def test_a_start_is_one_weight_per_strategy(tmp_path, capsys, cfg, field, shape):
    # a simulate report describes one run, so a batch of starts is refused
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 1
    assert capsys.readouterr().err == (f"error: config field {field} needs 3 weights, "
                                       f"one per strategy, got shape {shape}\n")


# The simulate ops of the benchmark (bench/ops.py), at its tiny size: their
# configs cover both rule kinds, a spec-string link, a speed table, coupled
# and scripted opponents, a background, targets and --out/--traj. They run
# in a child process, since loading the benchmark's modules here would change
# the examples Hypothesis draws in this process (bench/tests/selftest.py).
BENCH_SIMULATE_OPS = {"selfplay": ["simulate-coupled-pair", "simulate-coupled-map"],
                      "scripted": ["simulate-scripted-speed"]}


def test_the_benchmarks_simulate_configs_run_and_pass_its_checks(tmp_path):
    root = Path(__file__).resolve().parents[1]
    code = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(root / "bench")!r})
import checkout
checkout.prepare()
import ops
for workload, names in {BENCH_SIMULATE_OPS!r}.items():
    for op in ops.build(workload, 1, Path({str(tmp_path)!r}), size="tiny"):
        if op.name in names:
            op.check(op.run())
            print(op.name)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=root, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [name for names in BENCH_SIMULATE_OPS.values()
                                  for name in names]


SEED_HELP = {
    "scenario": "recorded in the report; seeds the random starts and samples of hw-4x4 "
                "and dual-4x4",
    "simulate": "recorded in the report; the run draws no random numbers",
    "dominance": "ignored: this subcommand draws no random numbers",
    # None: the subcommand takes no --seed, as it draws no random numbers and
    # its report records none
    "classify": None,
    "rps-direction": None,
}


@pytest.mark.parametrize("command", SEED_HELP)
def test_seed_help_says_what_each_subcommand_does_with_it(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    if SEED_HELP[command] is None:
        assert "--seed" not in out
    else:
        assert f"--seed SEED {SEED_HELP[command]}" in out


def test_missing_config_exits_1(capsys):
    assert main(["simulate", "--config", "/no/such/file.json"]) == 1
    assert "unreadable config" in capsys.readouterr().err


def test_dominance_single_query(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", {"payoff": DISCUSSION_PAYOFF})
    code, doc = run_json(capsys, ["dominance", "--game", game,
                                  "--q", "0.5,0.5,0"])
    assert code == 0
    raw = doc["raw"]
    assert raw["dominated"] is True and not raw["degenerate"]
    assert raw["margin"] == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(raw["dominator"], [0.0, 0.0, 1.0], atol=1e-9)


def test_dominance_iterate_leaves_pure_strategies(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", {"payoff": DISCUSSION_PAYOFF})
    code, doc = run_json(capsys, ["dominance", "--game", game, "--iterate"])
    assert code == 0
    raw = doc["raw"]
    assert raw["removals"] == []
    assert raw["surviving_rows"] == [0, 1, 2]


def test_dominance_needs_a_query(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", {"payoff": DISCUSSION_PAYOFF})
    assert main(["dominance", "--game", game]) == 1
    assert "--q or --iterate" in capsys.readouterr().err


def test_dominance_iterate_rejects_a_mixture(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", {"payoff": DISCUSSION_PAYOFF})
    assert main(["dominance", "--game", game, "--iterate", "--q", "0.5,0.5,0"]) == 1
    captured = capsys.readouterr()
    assert "--q and --iterate cannot be combined" in captured.err
    assert captured.out == ""


def test_dominance_iterate_needs_a_square_game(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", {"payoff": [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]})
    assert main(["dominance", "--game", game, "--iterate"]) == 1
    captured = capsys.readouterr()
    assert "--iterate reads the game as one population" in captured.err
    assert "needs a square game; got 2x3" in captured.err
    assert "opponent_game" not in captured.err and captured.out == ""


def test_main_runs_twice_in_one_process(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", {"payoff": DISCUSSION_PAYOFF})
    calls = [["dominance", "--game", game, "--iterate", "--mode", "pure"],
             ["classify", "--link", "sqrt", "--interval", "1,9"],
             ["dominance", "--game", game, "--no-such-flag"],
             ["dominance", "--game", game, "--q", "0.5,0.5,0"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out and json.loads(captured.out)
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert [run(argv) for argv in calls] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _ in fresh] == [0, 0, 1, 0]
    # neither --iterate nor --mode of the first call carries over to the query
    assert fresh[0][1]["raw"]["mode"] == "pure-by-pure"
    assert fresh[3][1]["raw"]["mode"] == "mixed" and "rounds" not in fresh[3][1]["raw"]


def test_classify_labels(capsys):
    for argv, label in (
        (["classify", "--link", "sqrt", "--interval", "1,9"],
         "concave-monotonic"),
        (["classify", "--link", "exp:1@0,3"], "convex-monotonic"),
        (["classify", "--link", "linear:2,1", "--interval", "0,10"],
         "aggregate-monotonic"),
        (["classify", "--link", "linear:1,0@1,9", "--discrete-C", "0"],
         "concave-monotonic"),
    ):
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["raw"]["label"] == label, argv


def test_classify_reads_the_family_not_a_grid(capsys):
    for spec, label in (("power:0.99999@1,9", "concave-monotonic"),
                        ("exp:1e-4@0,2", "convex-monotonic"),
                        ("exp:0@0,1", "non-monotonic")):
        code, doc = run_json(capsys, ["classify", "--link", spec])
        assert code == 0
        assert doc["raw"]["label"] == label, spec
        assert set(doc["raw"]) == {"link", "interval", "discrete_C", "increasing", "convex",
                                   "concave", "linear", "label"}


def test_a_link_that_overflows_exits_1_with_one_line(capsys):
    # NumPy's overflow warning, an error under this suite's filter, stays silent
    assert main(["classify", "--link", "exp:1000@0,1"]) == 1
    assert capsys.readouterr().err == "error: link is not finite everywhere on (0.0, 1.0)\n"


def test_a_link_with_a_param_that_is_not_finite_exits_1_with_one_line(capsys):
    # the param is refused before inf times 0 at the domain's end would print
    # NumPy's invalid-value warning beside the error line
    assert main(["classify", "--link", "exp:inf@0,1"]) == 1
    assert capsys.readouterr() == ("", "error: exponential link params must be finite, "
                                       "got [inf]\n")


# link specs that parse_link refuses, and the error line, which names the
# whole spec
BAD_LINK_SPECS = {
    "sqrt@1": "bad domain suffix in link spec 'sqrt@1'",
    "sqrt@1,2,3": "bad domain suffix in link spec 'sqrt@1,2,3'",
    "sqrt@0,a": "bad domain suffix in link spec 'sqrt@0,a'",
    "linear:1,": "bad params in link spec 'linear:1,'",
    "exp:a": "bad params in link spec 'exp:a'",
    "exp:a@0,1": "bad params in link spec 'exp:a@0,1'",
}


@pytest.mark.parametrize("spec", BAD_LINK_SPECS)
def test_a_bad_link_spec_exits_1_naming_the_spec(spec, capsys):
    assert main(["classify", "--link", spec]) == 1
    assert capsys.readouterr() == ("", f"error: {BAD_LINK_SPECS[spec]}\n")


def test_number_lists_of_the_wrong_length_exit_1(capsys):
    assert main(["classify", "--link", "sqrt", "--interval", "1,2,3"]) == 1
    assert "--interval takes 2 comma-separated numbers, got 3" in capsys.readouterr().err
    assert main(["rps-direction", "--abc", "1,2"]) == 1
    assert "--abc takes 3 comma-separated numbers, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["rps-direction", "--abc", "-1,2,-3"],
                                  ["classify", "--link", "linear", "--interval", "-2,1"]],
                         ids=["rps-direction", "classify"])
def test_a_number_list_may_start_with_a_minus_sign(argv, capsys):
    # argparse reads "-1,2,-3" after a space as an option of its own
    assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == 0
    want = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == want and want.err == ""


def test_a_negative_number_in_any_float_form_is_a_value(capsys):
    # argparse reads a negative number after a space as a value only in
    # forms such as -1 and -0.5, and -1e-3 as an option of its own
    argv = ["rps-direction", "--abc", "2,4,1", "--link", "linear:1,0"]
    assert main(argv + ["--discrete-C=-1e-3"]) == 0
    want = capsys.readouterr()
    assert main(argv + ["--discrete-C", "-1e-3"]) == 0
    assert capsys.readouterr() == want and want.err == ""


@pytest.mark.parametrize("argv, line", [
    (["rps-direction", "--abc", "2,4,1", "--link", "linear:1,0", "--discrete-C", "-inf"],
     "error: --discrete-C must be finite, got -inf\n"),
    (["scenario", "discussion", "--t-max", "-1e3"],
     "error: t_max must be positive, got -1000.0\n"),
], ids=["discrete-C", "t-max"])
def test_a_negative_number_after_a_space_reaches_its_check(argv, line, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", line)


def test_simulate_refuses_a_link_domain_that_misses_the_payoffs(tmp_path, capsys):
    # the discussion game's payoffs span [0, 3]
    cfg = write_json(tmp_path / "narrow.json", {
        "game": {"payoff": DISCUSSION_PAYOFF}, "x0": [0.4, 0.4, 0.2],
        "rule": {"kind": "payoff-functional", "link": "sqrt@0,1.5"},
        "integrator": {"t_max": 5.0}})
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr() == ("", "error: link domain [0, 1.5] does not hold the payoffs "
                                       "[0.0, 3.0] its run can see\n")


# flag sets of rps-direction: --link gives the flow's f, --discrete-C C the
# generation map's ln(C + f), neither the replicator. Each report is pinned
# by the first 16 hex digits of its sha256: the bytes the same run printed
# when a separate --mode flag named the mode.
RPS_FLAG_SETS = [
    (["--abc", "1,2,-2"], "replicator", 0.0, "outward", "4611a8111d155d02"),
    (["--abc", "1,2,-2", "--link", "exp:1@-2,2"],
     "continuous-functional", 0.0, "inward", "284a5c084460e7c6"),
    (["--abc", "2,4,1", "--link", "linear:1,0@0.5,10", "--discrete-C", "0"],
     "discrete-functional", 0.0, "degenerate", "a44a4f5b07d244b4"),
    (["--abc", "2,4,1.000001", "--link", "linear:1,0@0.5,10", "--discrete-C", "0"],
     "discrete-functional", 0.0, "inward", "d2d8fc1387e26e69"),
    (["--abc", "3.9,5,3", "--link", "linear:1,0@0,15", "--discrete-C", "1"],
     "discrete-functional", 1.0, "outward", "d5d095c184592b8b"),
]


def test_rps_direction_modes(capsys):
    for flags, mode, background, direction, digest in RPS_FLAG_SETS:
        assert main(["rps-direction"] + flags) == 0
        out = capsys.readouterr().out
        raw = json.loads(out)["raw"]
        assert (raw["mode"], raw["background"], raw["direction"]) == \
            (mode, background, direction), flags
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, flags


def test_rps_direction_discrete_mode_is_exact_at_the_cycle_payoffs(capsys):
    base = ["rps-direction", "--link", "linear:1,0@0.5,10", "--discrete-C", "0"]
    code, doc = run_json(capsys, base + ["--abc", "2,4,1"])
    assert code == 0 and doc["raw"]["direction"] == "degenerate"
    code, doc = run_json(capsys, base + ["--abc", "2,4,1.000001"])
    assert code == 0 and doc["raw"]["direction"] == "inward"


def test_rps_direction_discrete_mode_needs_the_log_only_on_the_cycle_payoffs(capsys):
    # the link is built on [min, max] of a, b and c, so ln(C + u) needs to be
    # defined there and nowhere else
    base = ["rps-direction", "--link", "linear:1,0", "--discrete-C"]
    code, doc = run_json(capsys, base + ["0", "--abc", "2,4,1"])
    assert code == 0 and doc["raw"]["direction"] == "degenerate"
    assert main(base + ["0", "--abc", "1,2,-2"]) == 1
    assert capsys.readouterr().err == \
        "error: background 0 leaves ln() undefined at payoff -2\n"
    assert main(base + ["-1", "--abc", "2,4,1"]) == 1
    assert "background -1 leaves ln() undefined at payoff 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["classify", "--link", "exp:1@0,1"],
                                     ["rps-direction", "--abc", "1,2,-2", "--link", "exp:1"]],
                         ids=["classify", "rps-direction"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_a_background_that_is_not_finite_exits_1_naming_the_flag(command, value, capsys):
    # the effective link would refuse the value without naming the flag; "=" keeps
    # argparse from reading -inf as an option
    assert main(command + [f"--discrete-C={value}"]) == 1
    assert capsys.readouterr() == ("", f"error: --discrete-C must be finite, got {float(value)}\n")


@pytest.mark.parametrize("abc", ["1,inf,0", "1,2,-inf", "nan,2,0"])
def test_rps_direction_refuses_payoffs_that_are_not_finite(abc, capsys):
    # b = inf passed c < a < b, and the report printed Infinity, which is not JSON
    a, b, c = (float(v) for v in abc.split(","))
    assert main(["rps-direction", "--abc", abc]) == 1
    assert capsys.readouterr() == (
        "", f"error: cycle payoffs need finite c < a < b, got a={a!r} b={b!r} c={c!r}\n")


@pytest.mark.parametrize("flag", [pytest.param("--discrete-C", id="discrete")])
def test_rps_direction_functional_modes_need_a_link(flag, capsys):
    # a flow without --link is the replicator, so only the discrete mode can
    # lack one: there the replicator would answer and ignore C
    assert main(["rps-direction", "--abc", "1,2,-2", flag, "1"]) == 1
    assert capsys.readouterr().err == f"error: {flag} needs --link\n"


# simulate reads t_max and n_max only from its integrator fields, and
# classify and rps-direction, which draw no random numbers, take no --seed;
# the config file does not exist, as argparse refuses the flag first
@pytest.mark.parametrize("argv", [
    ["rps-direction", "--abc", "1,2,-2", "--mode", "continuous"],
    ["scenario", "hw-4x4", "--dt", "0.01"],
    ["simulate", "--config", "run.json", "--t-max", "5"],
    ["simulate", "--config", "run.json", "--dt", "0.01"],
    ["simulate", "--config", "run.json", "--n-max", "10"],
    ["classify", "--link", "sqrt@0,1", "--seed", "3"],
    ["rps-direction", "--abc", "1,2,-2", "--seed", "3"]],
    ids=["rps-direction-mode", "scenario-dt", "simulate-t-max", "simulate-dt", "simulate-n-max",
         "classify-seed", "rps-direction-seed"])
def test_flags_that_chose_nothing_are_unrecognized(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in err


def test_scenario_success(capsys):
    code, doc = run_json(capsys, ["scenario", "background-schedules"])
    assert code == 0
    assert doc["raw"]["ok"] is True


def test_scenario_writes_the_first_run_of_a_batch(tmp_path, capsys):
    traj_path = tmp_path / "hw.csv"
    code, doc = run_json(capsys, ["scenario", "hw-4x4", "--t-max", "2",
                                  "--traj", str(traj_path)])
    assert code == 0
    assert doc["raw"]["run"]["method"] == "dop853" and len(doc["raw"]["run"]["seeds"]) == 10
    lines = traj_path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4" and len(lines) == 1 + 21


# every catalog scenario at its defaults: its report and its --traj CSV,
# each pinned by the first 16 hex digits of its sha256, the bytes the
# scenario wrote before its report's scenario, seed, link and ok were set in
# one place (scenarios._finish)
CATALOG_OUTPUTS = {
    "discussion": ("94d2f1f44e33c0b5", "cbe7b5834a67d644"),
    "survival-nonconvex": ("a189ec7630a51c8b", "aa86c3c4b3e3561b"),
    "survival-nonconcave": ("ac7d26cc355a6ef6", "cf2272be3a8f2bc7"),
    "hw-4x4": ("075155a8d9260fcb", "26bb16a39c1303b6"),
    "dual-4x4": ("f57ca2494857bc8e", "81f7181b71b00a57"),
    "background-threshold": ("435dd6dbd7d870d6", "9a46bf72a6e7b14f"),
    "background-schedules": ("ca1d43a2bedd5f4d", "6470f7d9a9bc8d29"),
}


@pytest.mark.parametrize("name", CATALOG_OUTPUTS)
def test_catalog_outputs_are_pinned(name, tmp_path):
    assert set(CATALOG_OUTPUTS) == set(SCENARIOS)
    report, traj = tmp_path / "report.json", tmp_path / "traj.csv"
    assert main(["scenario", name, "--out", str(report), "--traj", str(traj)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()[:16] for path in (report, traj))
    assert digests == CATALOG_OUTPUTS[name]


def test_scenario_missed_outcome_exits_3(capsys):
    code, doc = run_json(capsys, ["scenario", "discussion", "--t-max", "5"])
    assert code == 3
    assert doc["raw"]["ok"] is False


def test_a_payoff_outside_the_link_domain_prints_a_plain_float(capsys):
    assert main(["scenario", "hw-4x4", "--link", "sqrt@0,9"]) == 1
    assert capsys.readouterr().err == \
        "error: payoff 9.393061224489795 outside link domain [0, 9]\n"


@pytest.mark.parametrize("link, domain", [("exp:1@-1,1", [-1.0, 1.0]),
                                          ("exp:1@-3,3", [-3.0, 3.0])])
def test_dual_4x4_searches_its_links_own_domain(link, domain, capsys):
    code, doc = run_json(capsys, ["scenario", "dual-4x4", "--link", link])
    assert code == 0 and doc["ok"] is True
    assert doc["link"]["domain"] == domain and all(doc["checks"].values())
    payoffs = np.array(doc["raw"]["construction"]["payoff"])[:3, :3]
    assert domain[0] <= payoffs.min() and payoffs.max() <= domain[1]


def test_scenario_infeasible_construction_exits_1(capsys):
    assert main(["scenario", "survival-nonconvex", "--link", "linear:1,0"]) == 1
    assert "no convexity violation" in capsys.readouterr().err


def test_scenario_rejects_unknown_name_and_flags(capsys):
    assert main(["scenario", "nothing-here"]) == 1
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["scenario", "background-schedules", "--t-max", "5"]) == 1
    assert "does not take --t-max" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert main([]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--no-such-flag"])
    assert exc.value.code == 1
    capsys.readouterr()


LINK_GAME = Game([[1.0, 2.0], [3.0, 4.0]])
# (alias, params, family, params built): every family under every name
LINK_NAMES = [(name, params, family, built)
              for names, family, cases in [
                  (("linear", "lin"), "linear", [((), (1.0, 0.0)), ((2.0,), (2.0, 0.0)),
                                                 ((2.0, -1.0), (2.0, -1.0))]),
                  (("power", "pow"), "power", [((2.0,), (2.0,))]),
                  (("exponential", "exp"), "exponential", [((), (1.0,)), ((0.5,), (0.5,))]),
                  (("logarithm", "log", "ln"), "logarithm", [((), ())]),
                  (("sqrt",), "sqrt", [((), ())])]
              for name in names for params, built in cases]


@pytest.mark.parametrize("name,params,family,built", LINK_NAMES)
def test_link_specs_and_configs_build_the_same_link(name, params, family, built):
    spec = name + (":" + ",".join(map(str, params)) if params else "")
    for f in (parse_link(spec + "@1,9"), cli._parse_link(spec + "@1,9", LINK_GAME, "rule.link")):
        assert (f.family, f.params, f.domain) == (family, built, (1.0, 9.0))
    # without a domain, a config link takes the payoff hull
    f = cli._parse_link(spec, LINK_GAME, "rule.link")
    assert (f.family, f.params, f.domain) == (family, built, (1.0, 4.0))


def test_link_specs_and_configs_refuse_extra_params():
    for spec in ("sqrt:3@1,9", "log:7@1,2", "linear:1,2,3"):
        with pytest.raises(ValueError, match="takes"):
            parse_link(spec)
    for spec in ("sqrt:3", "linear:1,2,3", "power"):
        with pytest.raises(ValueError, match=r"^config field rule\.link: .* takes"):
            cli._parse_link(spec, LINK_GAME, "rule.link")
    with pytest.raises(ValueError, match=r"^config field rule\.link: unknown link family"):
        cli._parse_link("frobnicate", LINK_GAME, "rule.link")

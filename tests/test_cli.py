"""End-to-end command line checks, run in process through main(argv)."""

import json
import math

import numpy as np
import pytest

from egtlab import cli
from egtlab.cli import main
from egtlab.games import Game
from egtlab.links import parse_link

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
        "integrator": {"t_max": 200.0, "dt": 1e-3},
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
    outs = []
    for tag in ("one", "two"):
        rp, tp = tmp_path / f"r-{tag}.json", tmp_path / f"t-{tag}.csv"
        assert main(["simulate", "--config", discussion_cfg, "--t-max", "5",
                     "--out", str(rp), "--traj", str(tp)]) == 0
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
                                          ("background", 3), ("output", "x.json"),
                                          ("opponent", [1])])
def test_config_sections_must_be_objects(tmp_path, capsys, field, value):
    doc = {"mode": "discrete", "game": {"payoff": [[2.0, 2.0], [1.0, 1.0]]},
           "x0": [0.5, 0.5], "integrator": {"n_max": 10}}
    cfg = write_json(tmp_path / "bad.json", {**doc, field: value})
    assert main(["simulate", "--config", cfg]) == 1
    assert f"config field {field} must be an object" in capsys.readouterr().err


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
], ids=["fraction", "bool", "string", "bool-sample-every"])
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
    assert main(["simulate", "--config", cfg]) == 1
    assert "background rate must be finite" in capsys.readouterr().err


def test_simulate_discrete_takes_a_whole_float_count(tmp_path, capsys):
    cfg = write_json(tmp_path / "count.json", {
        "mode": "discrete", "game": {"payoff": [[2.0, 2.0], [1.0, 1.0]]},
        "x0": [0.5, 0.5], "integrator": {"n_max": 100.0, "sample_every": 10.0},
    })
    code, doc = run_json(capsys, ["simulate", "--config", cfg])
    assert code == 0
    assert doc["raw"]["run"]["n_max"] == 100 and doc["raw"]["t_final"] == 100.0
    assert doc["raw"]["n_samples"] == 11


@pytest.mark.parametrize("key, value", [("t_max", "10"), ("dt", "0.001"), ("t_max", True),
                                        ("dt", None)])
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
    "link": ({**SHORT, "rule": {"kind": "payoff-functional",
                                "link": {"family": "exp", "rate": 2.0}}}, "rule.link.rate"),
    "table-link": ({**SHORT, "rule": {"kind": "payoff-functional", "link": {
        "family": "table", "xs": [0.0, 3.0], "ys": [0.0, 3.0], "domain": [0.0, 3.0]}}},
        "rule.link.domain"),
    "speed": ({**SHORT, "rule": {"speed": {"xs": [0.0, 3.0], "ys": [1.0, 2.0], "lo": 0.0}}},
              "rule.speed.lo"),
    "opponent": ({**SHORT, "opponent": {"mode": "self-play", "y0": [1.0, 0.0, 0.0]}},
                 "opponent.y0"),
    "schedule": ({**SHORT, "opponent": {"mode": "scripted", "schedule": {**SCRIPT, "phase": 1.0}}},
                 "opponent.schedule.phase"),
    "coupled-rule": ({**SHORT, "opponent": {**PAIR, "rule": {"knd": "replicator"}}},
                     "opponent.rule.knd"),
    "output": ({**SHORT, "output": {"trajectory": "t.csv"}}, "output.trajectory"),
    "target": ({**SHORT, "targets": [TARGET, {**TARGET, "r": [1.0, 0.0, 0.0]}]}, "targets[1].r"),
}


@pytest.mark.parametrize("case", UNREAD)
def test_simulate_refuses_fields_it_does_not_read(tmp_path, capsys, case):
    cfg, field = UNREAD[case]
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 1
    assert f"config field {field} is unknown" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {**SHORT, "mode": "continuous", "x0": [0.4, 0.4, 0.2], "targets": [TARGET],
     "rule": {"kind": "payoff-functional",
              "link": {"family": "table", "xs": [0.0, 3.0], "ys": [0.0, 3.0]},
              "speed": {"xs": [0.0, 3.0], "ys": [1.0, 2.0]}},
     "opponent": {"mode": "scripted", "schedule": SCRIPT},
     "integrator": {"t_max": 1.0, "dt": 0.1, "sample_every": 2}},
    {**MAP, "x0": [0.4, 0.4, 0.2], "targets": [TARGET],
     "rule": {"kind": "payoff-functional",
              "link": {"family": "linear", "params": [1.0, 1.0], "domain": [0.0, 3.0]}},
     "opponent": {**PAIR, "rule": {"kind": "replicator"}},
     "background": {"kind": "affine", "c0": 1.0, "c1": 0.5},
     "integrator": {"n_max": 5, "sample_every": 2}},
], ids=["continuous", "discrete"])
def test_simulate_reads_every_field_it_takes(tmp_path, cfg):
    cfg = {**cfg, "output": {"report": str(tmp_path / "r.json"), "traj": str(tmp_path / "t.csv")}}
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 0
    assert (tmp_path / "r.json").exists() and (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("cfg, flag", [(SHORT, "--n-max"), (MAP, "--t-max"), (MAP, "--dt")],
                         ids=["continuous-n-max", "discrete-t-max", "discrete-dt"])
def test_simulate_refuses_flags_of_the_other_mode(tmp_path, capsys, cfg, flag):
    assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg), flag, "3"]) == 1
    mode = cfg.get("mode", "continuous")
    assert f"simulate in {mode} mode does not take {flag}" in capsys.readouterr().err


SEED_HELP = {
    "scenario": "recorded in the report; seeds the random starts and samples of hw-4x4 "
                "and dual-4x4",
    "simulate": "recorded in the report; the run draws no random numbers",
    "dominance": "ignored: this subcommand draws no random numbers",
    "classify": "ignored: this subcommand draws no random numbers",
    "rps-direction": "ignored: this subcommand draws no random numbers",
}


@pytest.mark.parametrize("command", SEED_HELP)
def test_seed_help_says_what_each_subcommand_does_with_it(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"--seed SEED {SEED_HELP[command]}" in " ".join(capsys.readouterr().out.split())


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


def test_number_lists_of_the_wrong_length_exit_1(capsys):
    assert main(["classify", "--link", "sqrt", "--interval", "1,2,3"]) == 1
    assert "--interval takes 2 comma-separated numbers, got 3" in capsys.readouterr().err
    assert main(["rps-direction", "--abc", "1,2"]) == 1
    assert "--abc takes 3 comma-separated numbers, got 2" in capsys.readouterr().err


def test_rps_direction_modes(capsys):
    code, doc = run_json(capsys, ["rps-direction", "--abc", "1,2,-2"])
    assert code == 0 and doc["raw"]["direction"] == "outward"
    code, doc = run_json(capsys, ["rps-direction", "--abc", "1,2,-2",
                                  "--link", "exp:1@-2,2", "--mode", "continuous"])
    assert code == 0 and doc["raw"]["direction"] == "inward"
    code, doc = run_json(capsys, ["rps-direction", "--abc", "3.9,5,3",
                                  "--link", "linear:1,0@0,15",
                                  "--mode", "discrete", "--discrete-C", "1"])
    assert code == 0 and doc["raw"]["direction"] == "outward"


def test_rps_direction_discrete_mode_is_exact_at_the_cycle_payoffs(capsys):
    base = ["rps-direction", "--link", "linear:1,0@0.5,10", "--mode", "discrete"]
    code, doc = run_json(capsys, base + ["--abc", "2,4,1"])
    assert code == 0 and doc["raw"]["direction"] == "degenerate"
    code, doc = run_json(capsys, base + ["--abc", "2,4,1.000001"])
    assert code == 0 and doc["raw"]["direction"] == "inward"


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


def test_scenario_missed_outcome_exits_3(capsys):
    code, doc = run_json(capsys, ["scenario", "discussion", "--t-max", "5"])
    assert code == 3
    assert doc["raw"]["ok"] is False


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
    spec = name + (":" + ",".join(map(str, params)) if params else "") + "@1,9"
    cfg = {"family": name, "params": list(params), "domain": [1, 9]}
    configs = [cfg] + ([dict(cfg, params=None)] if not params else [])  # null means none
    for f in [parse_link(spec)] + [cli._parse_link_cfg(c, LINK_GAME, "rule.link") for c in configs]:
        assert (f.family, f.params, f.domain) == (family, built, (1.0, 9.0))
    # without a domain, a config link takes the payoff hull
    f = cli._parse_link_cfg({"family": name, "params": list(params)}, LINK_GAME, "rule.link")
    assert f.domain == (1.0, 4.0)


def test_link_specs_and_configs_refuse_extra_params():
    for spec in ("sqrt:3@1,9", "log:7@1,2", "linear:1,2,3"):
        with pytest.raises(ValueError, match="takes"):
            parse_link(spec)
    for cfg in ({"family": "sqrt", "params": [3]}, {"family": "linear", "params": [1, 2, 3]},
                {"family": "power"}):
        with pytest.raises(ValueError, match=r"^config field rule\.link: .* takes"):
            cli._parse_link_cfg(cfg, LINK_GAME, "rule.link")
    with pytest.raises(ValueError, match=r"^config field rule\.link: unknown link family"):
        cli._parse_link_cfg({"family": "frobnicate"}, LINK_GAME, "rule.link")

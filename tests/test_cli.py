"""End-to-end command line checks, run in process through main(argv)."""

import json

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

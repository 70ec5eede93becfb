"""Tests of the benchmark itself: every workload at a tiny size, traced and
untraced; checks that reject corrupted outputs; and the contract between
BENCHMARK.json and what run.py reports.

    python3 -m pytest bench/tests/selftest.py

The file name keeps it out of the repository's default test collection:
loading the benchmark's modules changes which examples Hypothesis draws in
tests/test_properties.py (it mines loaded modules for constants).
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checkout  # noqa: E402

checkout.prepare()

import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402

from egtlab.dominance import DominanceResult  # noqa: E402
from egtlab.games import as_strategy  # noqa: E402

WORKLOADS = ("selfplay", "scripted", "dominance")


def _known_failure(rec) -> bool:
    """background-schedules raises OverflowError until the geometric
    background saturates instead of overflowing."""
    return rec["op"] == "background-schedules" and rec["error"].startswith("OverflowError")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Per workload: the tiny op list, one untraced pass, one traced pass."""
    runs = {}
    for workload in WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        op_list = ops.build(workload, 3, workdir, size="tiny")
        plain, peak = run.measure(op_list, 0.0)
        tracer = tracing.Tracer()
        traced, _ = run.measure(op_list, 0.0, tracer)
        runs[workload] = (op_list, plain[0], traced[0], tracer, peak)
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_verifies_every_op(tiny_runs, workload):
    op_list, plain, traced, _, peak = tiny_runs[workload]
    assert [r["op"] for r in plain] == [op.name for op in op_list]
    for rec in plain + traced:
        assert rec["status"] == "verified" or _known_failure(rec), rec
    assert peak > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_result(tiny_runs, workload):
    _, plain, traced, _, _ = tiny_runs[workload]
    assert [r.get("digest") for r in plain] == [r.get("digest") for r in traced]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_wall_time(tiny_runs, workload):
    _, _, traced, tracer, _ = tiny_runs[workload]
    values = tracing.layer_metrics(tracer.spans, 1, 0, 0.0)
    assert list(values) == list(tracing.PER_LAYER)
    layers = sum(values[f"{layer}.self_s"] for layer in
                 ("dynamics", "discrete", "lp", "dominance", "scenarios",
                  "diagnostics", "cli", "bench"))
    assert layers == pytest.approx(values["trace.wall_s"], rel=1e-9)
    # op seconds leave out the speed probe's ticks, which the spans include
    assert values["trace.wall_s"] == pytest.approx(sum(r["seconds"] for r in traced), rel=0.1)
    for name in ("dynamics.scripted_share", "dynamics.batchable_share",
                 "discrete.scripted_share", "dominance.dominated_share"):
        assert 0.0 <= values[name] <= 1.0


def test_layers_see_the_work_each_workload_stresses(tiny_runs):
    metrics = {w: tracing.layer_metrics(tiny_runs[w][3].spans, 1, 0, 0.0) for w in WORKLOADS}
    selfplay, scripted, dom = metrics["selfplay"], metrics["scripted"], metrics["dominance"]
    assert selfplay["dynamics.steps"] > 0 and selfplay["dynamics.scripted_share"] == 0.0
    assert selfplay["scenarios.rebuilds"] == 0
    assert selfplay["scenarios.useful_member_share"] == 1.0
    assert selfplay["discrete.generations"] > 0
    assert 0.0 < scripted["dynamics.scripted_share"] < 1.0
    assert scripted["discrete.scripted_share"] == 1.0
    assert dom["dynamics.steps"] == 0 and dom["discrete.generations"] == 0
    assert dom["lp.calls"] > 0 and dom["dominance.rounds_per_game"] > 1.0
    assert dom["dominance.queries_per_game"] > 0


def test_cli_bytes_are_counted(tiny_runs):
    for workload in ("selfplay", "dominance"):
        recs = tiny_runs[workload][1]
        assert run.summarize([recs])["cli_bytes"] > 0


# ---------------------------------------------------------------------------
# Checks reject corrupted outputs


def _op(workload, name, workdir):
    [op] = [op for op in ops.build(workload, 5, workdir, size="tiny") if op.name == name]
    return op


def _rejects(op, out):
    with pytest.raises(verify.Rejected):
        op.check(out)


def test_scenario_check_rejects_a_missed_check(tmp_path):
    op = _op("selfplay", "hw-4x4", tmp_path)
    report, traj = op.run()
    op.check((report, traj))
    bad = dict(report, checks=dict(report["checks"], **{"persists-on-at-least-8-seeds": False}))
    _rejects(op, (bad, traj))


@pytest.mark.parametrize("name", ["survival-nonconvex-flow", "generation-map-affine"])
def test_closed_form_rejects_a_perturbed_final_state(tmp_path, name):
    op = _op("scripted", name, tmp_path)
    traj = op.run()
    op.check(traj)
    z = traj.log_states.copy()
    z[-1, 0] += 1e-5
    _rejects(op, dataclasses.replace(traj, log_states=z))


@pytest.mark.parametrize("workload,name", [("selfplay", "simulate-coupled-pair"),
                                           ("selfplay", "simulate-coupled-map"),
                                           ("scripted", "simulate-scripted-speed")])
def test_csv_checks_reject_a_perturbed_final_state(tmp_path, workload, name):
    op = _op(workload, name, tmp_path)
    out = op.run()
    op.check(out)
    path = out.files["traj"]
    lines = path.read_text().splitlines()
    row = [float(v) for v in lines[-1].split(",")]
    row[1] *= 1.0 + 1e-5
    lines[-1] = ",".join(f"{v:.17g}" for v in row)
    path.write_text("\n".join(lines) + "\n")
    _rejects(op, out)


def test_query_check_rejects_a_wrong_margin(tmp_path):
    op = _op("selfplay", "find_dominator-dual", tmp_path)
    res = op.run()
    op.check(res)
    assert res.dominated
    _rejects(op, dataclasses.replace(res, margin=res.margin * 1.01))
    _rejects(op, dataclasses.replace(res, dominated=False, dominator=None))


def test_query_check_rejects_a_missed_dominator():
    game = np.array([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    q = np.eye(3)[2]
    truth = verify.highs_margin(game, q, range(3), range(2))
    if truth is None:
        pytest.skip("SciPy is not installed")
    assert truth == pytest.approx(0.5)
    with pytest.raises(verify.Rejected):
        verify.dominance_query(game, q, range(3), range(2), False, 0.0, None)
    verify.dominance_query(game, q, range(3), range(2), True, truth, [0.5, 0.5, 0.0])


def test_elimination_check_rejects_a_kept_dominated_strategy(tmp_path):
    op = _op("dominance", "iterate_elimination-pure-by-mixed-6", tmp_path)
    trace = op.run()
    op.check(trace)
    assert len(trace.rounds) > 2
    truncated = dataclasses.replace(trace, rounds=trace.rounds[:-1],
                                    removals=tuple(r for r in trace.removals
                                                   if r[0] < len(trace.rounds) - 1))
    _rejects(op, truncated)
    k, side, i, res = trace.removals[0]
    wrong = (k, side, i, dataclasses.replace(res, margin=res.margin + 0.01))
    _rejects(op, dataclasses.replace(trace, removals=(wrong,) + trace.removals[1:]))


def test_cli_elimination_check_rejects_an_edited_report(tmp_path):
    op = _op("dominance", "cli-dominance-iterate-7", tmp_path)
    out = op.run()
    op.check(out)
    path = out.files["report"]
    doc = json.loads(path.read_text())
    doc["raw"]["removals"][0]["dominator"] = list(np.roll(doc["raw"]["removals"][0]["dominator"], 1))
    path.write_text(json.dumps(doc))
    _rejects(op, out)


def test_construction_and_drift_checks_reject_bad_values(tmp_path):
    op = _op("selfplay", "build_rps4-hofbauer-weibull", tmp_path)
    con = op.run()
    op.check(con)
    with pytest.raises(verify.Rejected):
        verify.rps4_game(con.game.payoff, "dual")
    taylor = _op("selfplay", "taylor_sign_check", tmp_path)
    frac = taylor.run()
    taylor.check(frac)
    _rejects(taylor, 1.0 - frac)


def test_a_failing_op_is_failed_and_a_wrong_output_is_rejected():
    def boom():
        raise OverflowError("math range error")
    failed = run._judge(ops.Op("x", boom, lambda out: None), 0.1, 0.1, None,
                        OverflowError("x"), {})
    assert failed["status"] == "failed" and failed["error"].startswith("OverflowError")
    res = DominanceResult(True, 1.0, as_strategy([1.0, 0.0]), False)

    def check(out):
        verify.require(out.margin < 0.5, "margin too large")
    rejected = run._judge(ops.Op("y", lambda: res, check), 0.1, 0.1, res, None, {})
    assert rejected["status"] == "rejected"
    summary = run.summarize([[failed, rejected]])
    assert summary["verified"] == 0 and summary["failed"] == 2 and summary["rejected"] == 1


# ---------------------------------------------------------------------------
# Contract


def test_benchmark_json_matches_what_run_reports():
    doc = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(ops.WHY)
    assert all(w["why"] == ops.WHY[w["name"]] and len(w["why"]) <= 200
               for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(k, u, b) for k, (u, b) in tracing.PER_LAYER.items()]
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert set(e2e) == {"setup_s", "ops_per_s", "verified_share", "peak_rss_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_provenance_names_backend_versions_and_seed():
    prov = run.provenance("scripted", 11, 1.0, 0)
    assert prov["backend"] in ("numba", "python-fallback")
    assert prov["seed"] == 11 and prov["why"] == ops.WHY["scripted"]
    assert set(prov["blas_threads"].values()) == {"1"}
    for key in ("egtlab_version", "git_revision", "source_sha256", "python", "numpy",
                "scipy", "nproc"):
        assert key in prov


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scripted",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""egtlab benchmark: one researcher running a fixed, seeded list of ops.

    python3 bench/run.py --workload selfplay --seed 1 --seconds 30 --trace 0

Run from anywhere; it measures the egtlab sources of the checkout it sits in
(`src/egtlab`). The process is a closed loop with one client: each op starts
when the previous one has returned. It makes whole passes over the workload's
op list until another pass would overrun --seconds (at least one pass), and
checks every op's output with an independent reference (verify.py).

Times are scaled to a reference machine speed (see SpeedProbe), as the
shared hosts this runs on change speed by up to 2x within minutes.

--trace 0 reports the end-to-end metrics:
  setup_s         median time, over fresh interpreters, to import egtlab and
                  build the workload's inputs
  ops_per_s       verified ops per second of op time, median over passes; a
                  failed op adds its time but not its count
  verified_share  verified ops / attempted ops (1 - failed_share)
  peak_rss_mb     peak resident memory of this process over the first pass
--trace 1 measures untraced passes, then traced passes of the same ops, and
reports the per-layer metrics of tracing.py, including the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Details (every op record, provenance, and in
trace mode the spans) go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import fields, is_dataclass
from pathlib import Path

import checkout

SETUP_REPEATS = 7

# The shared hosts this runs on change speed by up to 2x over seconds to
# minutes as other tenants load them, and all code slows alike. While ops
# run, a timer signal times a short fixed kernel every PROBE_INTERVAL
# seconds; an op's time, less the probe's own, is scaled by REF_NOMINAL_S
# over the kernel's mean time around the op. REF_NOMINAL_S is the kernel's
# time on an unloaded core of a 2.1 GHz x86 server.
PROBE_INTERVAL = 0.1
REF_ITERATIONS = 3000
REF_NOMINAL_S = 0.002


def reference_seconds(x) -> float:
    """Time of a fixed kernel of scalar float math and tiny NumPy ops (on
    the length-8 array x), the mix egtlab's loops are made of."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(REF_ITERATIONS):
        s += math.sqrt(i + 1.0) * float(x[i & 7])
        if i & 7 == 0:
            x = x * 0.999999 + 1e-9
    return time.perf_counter() - t0


def reference_scale(samples: int = 5) -> float:
    """REF_NOMINAL_S over the kernel's mean time, measured now."""
    import numpy as np

    x = np.linspace(0.5, 1.5, 8)
    return REF_NOMINAL_S / statistics.fmean(reference_seconds(x) for _ in range(samples))


class SpeedProbe:
    """Samples the machine's speed from SIGALRM while installed."""

    def __init__(self):
        import numpy as np

        self.samples = []   # (time, kernel seconds)
        self.spent = 0.0    # seconds spent in the handler
        self._x = np.linspace(0.5, 1.5, 8)
        self._old = None

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append((t0, reference_seconds(self._x)))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:
            self._tick()

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the mean kernel time in [t0, t1], widened to
        at least one second, or of the nearest samples when none fall in."""
        mid = 0.5 * (t0 + t1)
        lo, hi = min(t0, mid - 0.5), max(t1, mid + 0.5)
        near = [k for t, k in self.samples if lo <= t <= hi]
        if not near:
            near = [k for _, k in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:5]]
        return REF_NOMINAL_S / statistics.fmean(near)


def _digest(obj) -> str:
    """Content hash of an op's output, to compare traced and untraced runs."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, Path):
            h.update(o.read_bytes())
        elif isinstance(o, dict):
            for k in sorted(o, key=str):
                feed(str(k))
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        elif is_dataclass(o):
            feed(type(o).__name__)
            feed({f.name: getattr(o, f.name) for f in fields(o)})
        elif isinstance(o, float):
            h.update(struct.pack("<d", o))
        elif hasattr(o, "tobytes"):
            h.update(str(o.shape).encode())
            h.update(o.tobytes())
        else:
            h.update(repr(o).encode())
    feed(obj)
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(op, tracer, probe):
    """Run one op; returns (start, end, seconds net of the probe, output, error)."""
    with tracer.op(op.name) if tracer else nullcontext():
        spent = probe.spent
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as e:  # an op that raises is a failed op, not a crash
            out, err = None, e
        t1 = time.perf_counter()
    return t0, t1, t1 - t0 - (probe.spent - spent), out, err


def _judge(op, seconds, ref_seconds, out, err, verified: dict) -> dict:
    """The op's record: verified, failed (raised) or rejected (wrong output).

    `verified` maps op names to the digest of an output that passed its
    check; the same output again counts as verified without re-checking.
    """
    import ops
    import verify

    rec = {"op": op.name, "seconds": seconds, "ref_seconds": ref_seconds}
    if err is not None:
        rec.update(status="failed", error=f"{type(err).__name__}: {err}")
        return rec
    rec["digest"] = _digest(out)
    if isinstance(out, ops.CliRun):
        rec["bytes_written"] = out.bytes_written
    if verified.get(op.name) == rec["digest"]:
        rec.update(status="verified", notes={"same_output_as_checked": True})
        return rec
    try:
        rec.update(status="verified", notes=op.check(out) or {})
        verified[op.name] = rec["digest"]
    except verify.Rejected as e:
        rec.update(status="rejected", error=str(e))
    except Exception as e:  # a check that cannot read the output rejects it
        rec.update(status="rejected", error=f"check raised {type(e).__name__}: {e}")
    return rec


def measure(op_list, seconds: float, tracer=None, verified=None):
    """Whole passes over the op list until another pass would overrun
    `seconds`; returns (records per pass, peak RSS in MB over the first pass)."""
    records, peak = [], None
    verified = {} if verified is None else verified
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            with SpeedProbe() as probe:
                calls = [(op, *_call(op, tracer, probe)) for op in op_list]
        finally:
            if tracer:
                tracer.uninstall()
        if peak is None:
            peak = _peak_rss_mb()
        records.append([_judge(op, took, took * probe.scale(t0, t1), out, err, verified)
                        for op, t0, t1, took, out, err in calls])
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return records, peak


def summarize(passes) -> dict:
    """Counts over all passes. ops_per_s is the median over passes of
    verified ops per second of op time at reference speed; wall_ops_per_s
    the same with wall seconds."""
    recs = [r for p in passes for r in p]
    verified = sum(r["status"] == "verified" for r in recs)

    def rate(key):
        return statistics.median(sum(r["status"] == "verified" for r in p)
                                 / sum(r[key] for r in p) for p in passes)
    return {"attempted": len(recs), "verified": verified,
            "failed": len(recs) - verified,
            "rejected": sum(r["status"] == "rejected" for r in recs),
            "ops_per_s": rate("ref_seconds"), "wall_ops_per_s": rate("seconds"),
            "verified_share": verified / len(recs),
            "cli_bytes": sum(r.get("bytes_written", 0) for r in recs)}


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh interpreters, of the time to import egtlab and
    build the inputs, at reference speed. One extra first probe warms the
    file cache."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for k in range(SETUP_REPEATS + 1):
        before = reference_scale()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(probe), workload, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with code {code}")
        if k:
            times.append(elapsed * 0.5 * (before + reference_scale()))
    return statistics.median(times)


def _git_revision():
    git = checkout.ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import egtlab
    import numpy
    import ops

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    src = hashlib.sha256()
    for path in sorted((checkout.SRC / "egtlab").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    numba = importlib.util.find_spec("numba") is not None
    return {
        "egtlab_version": egtlab.__version__,
        "git_revision": _git_revision(),
        "source_sha256": src.hexdigest(),
        "numba_importable": numba,
        "backend": "numba" if numba else "python-fallback",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in checkout.THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "why": ops.WHY[workload],
        "seconds": seconds,
        "trace": trace,
        "client": "closed loop, one client, one thread",
    }


def run(workload: str, seed: int, seconds: float, trace: int, workdir: Path) -> dict:
    import ops
    import tracing

    setup_s = setup_seconds(workload, seed) if not trace else None
    op_list = ops.build(workload, seed, workdir)
    verified = {}
    plain, peak = measure(op_list, seconds, verified=verified)
    base = summarize(plain)
    detail = {"provenance": provenance(workload, seed, seconds, trace),
              "ops": [op.name for op in op_list], "untraced": {"summary": base, "passes": plain}}
    correct = base["rejected"] == 0
    attempted, failed = base["attempted"], base["failed"]
    if not trace:
        metrics = {"setup_s": (setup_s, "s"), "ops_per_s": (base["ops_per_s"], "1/s"),
                   "verified_share": (base["verified_share"], "ratio"),
                   "peak_rss_mb": (peak, "MB")}
        shown = dict(metrics, failed_share=(1.0 - base["verified_share"], "ratio"),
                     wall_ops_per_s=(base["wall_ops_per_s"], "1/s"))
    else:
        tracer = tracing.Tracer()
        traced, _ = measure(op_list, seconds, tracer, verified)
        tsum = summarize(traced)
        same = [a.get("digest") == b.get("digest") for a, b in zip(plain[0], traced[0])]
        correct = correct and tsum["rejected"] == 0 and all(same)
        attempted += tsum["attempted"]
        failed += tsum["failed"]
        values = tracing.layer_metrics(tracer.spans, len(traced), tsum["cli_bytes"],
                                       1.0 - tsum["ops_per_s"] / base["ops_per_s"])
        metrics = {k: (values[k], unit) for k, (unit, _) in tracing.PER_LAYER.items()}
        shown = metrics
        detail["traced"] = {"summary": tsum, "passes": traced, "same_outputs": all(same),
                            "spans": tracer.spans}
    print(f"{workload} seed {seed}: {len(op_list)} ops, {len(plain)} untraced pass(es)")
    for rec in plain[0]:
        print(f"  {rec['op']:<44} {rec['seconds']:9.3f} s  {rec['status']}"
              + (f"  ({rec['error']})" if "error" in rec else ""))
    for name, (value, unit) in shown.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True))
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    (checkout.OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(detail, default=str, indent=1) + "\n")
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": detail["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("selfplay", "scripted", "dominance"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        checkout.prepare()
    except checkout.MissingSources as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    workdir = checkout.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up as a fresh interpreter pays it: import egtlab and build a
workload's inputs, then print "ready". run.py times this from the spawn.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import tempfile
from pathlib import Path

import checkout

checkout.prepare()

import ops  # noqa: E402  (needs the checkout's egtlab on the path)

checkout.OUT.mkdir(parents=True, exist_ok=True)
with tempfile.TemporaryDirectory(dir=checkout.OUT) as workdir:
    ops.build(sys.argv[1], int(sys.argv[2]), Path(workdir))
    print("ready", flush=True)

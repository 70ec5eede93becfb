"""Where the benchmark finds egtlab, and the process settings it runs under.

The benchmark measures the sources of the checkout it sits in: `src/egtlab`
next to this directory, never an installed copy. BLAS and OpenMP pools are
pinned to one thread before NumPy is imported, so every workload runs in a
single-threaded process.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingSources(RuntimeError):
    """The checkout holds no egtlab sources to measure."""


def prepare() -> None:
    """Pin thread pools and put the checkout's egtlab first on the path.

    Call before anything imports NumPy or egtlab.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "egtlab" / "__init__.py").is_file():
        raise MissingSources(f"no egtlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import egtlab

    if Path(egtlab.__file__).resolve().parent != SRC / "egtlab":
        raise MissingSources(f"egtlab was imported from {egtlab.__file__}, not {SRC}")

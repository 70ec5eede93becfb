"""egtlab does not load SciPy or numpy.polynomial. SciPy is a test oracle
only: importing scipy.integrate beside egtlab.scenarios takes 0.85 s instead
of 0.25 s and 79 MB instead of 34 MB (Python 3.11, SciPy 1.17). The exact
scripted flow's Gauss-Legendre nodes are literals for the same reason."""

import os
import subprocess
import sys
from pathlib import Path

import egtlab


def test_egtlab_does_not_import_scipy():
    code = ("import sys, egtlab, egtlab.cli, egtlab.scenarios; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    src = str(Path(egtlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"

"""egtlab does not load SciPy or numpy.polynomial. SciPy is a test oracle
only: importing scipy.integrate beside egtlab.scenarios takes 0.85 s instead
of 0.25 s and 79 MB instead of 34 MB (Python 3.11, SciPy 1.17). The exact
scripted flow's Gauss-Legendre nodes are literals for the same reason.

The oracles in tests/oracles.py stay independent of the code they check:
they may use egtlab's links and games, and the rule and error types of
egtlab.dynamics, but none of its integrators or private helpers."""

import ast
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

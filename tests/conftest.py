"""Shared fixtures and the acceptance summary hook."""

import numpy as np
import pytest


# (number, passed, text) rows filled in by the acceptance tests and printed
# as one line per criterion at the end of the run.
_ACCEPTANCE_ROWS = []


@pytest.fixture
def acceptance_log():
    def log(number: int, passed: bool, text: str):
        _ACCEPTANCE_ROWS.append((number, bool(passed), text))

    return log


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_ROWS:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, text in sorted(_ACCEPTANCE_ROWS):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {word}  {text}")


@pytest.fixture
def rng():
    return np.random.default_rng(0)

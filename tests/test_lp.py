"""The dense simplex solver against tiny hand and enumeration oracles."""

import itertools

import numpy as np
import pytest

from egtlab.dominance import find_dominator
from egtlab.games import Game, pure
from egtlab.lp import LpError, solve_max


def test_box_corner():
    # max x1 + x2 with x1 + x2 + slack = 1, from the slack basis
    x, val = solve_max([1.0, 1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0], [2])
    assert val == pytest.approx(1.0)
    assert x[2] == pytest.approx(0.0)


def test_two_constraints():
    # max 3a + 2b, a + b <= 4, a <= 3 (slacks appended and basic)
    c = [3.0, 2.0, 0.0, 0.0]
    A = [[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]]
    x, val = solve_max(c, A, [4.0, 3.0], [2, 3])
    assert val == pytest.approx(11.0)
    assert x[0] == pytest.approx(3.0) and x[1] == pytest.approx(1.0)


def test_unbounded_is_reported():
    # max x0 with -x0 + s = 1: x0 grows without bound
    with pytest.raises(LpError, match="unbounded"):
        solve_max([1.0, 0.0], [[-1.0, 1.0]], [1.0], [1])


def test_infeasible_is_reported():
    # x = -1 has no solution with x >= 0: its start x[basis] = b is infeasible
    # and is rejected before any pivot.
    with pytest.raises(ValueError, match="feasible"):
        solve_max([1.0], [[1.0]], [-1.0], [0])


def test_negative_rhs_rows_are_handled():
    # -x = -2 is feasible at x = 2, but b < 0 is no canonical start, so the
    # row is rejected as posed and solves once the caller negates it.
    with pytest.raises(ValueError, match="canonical"):
        solve_max([-1.0], [[-1.0]], [-2.0], [0])
    x, val = solve_max([-1.0], [[1.0]], [2.0], [0])
    assert x[0] == pytest.approx(2.0)
    assert val == pytest.approx(-2.0)


def test_a_start_that_is_not_canonical_is_rejected():
    A = [[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]]
    with pytest.raises(ValueError, match="canonical"):
        solve_max([1.0, 0.0, 0.0], A, [1.0, 1.0], [0, 2])
    with pytest.raises(ValueError, match="canonical"):
        solve_max([1.0, 0.0, 0.0], A, [1.0, 1.0], [2, 1])
    with pytest.raises(ValueError, match="canonical"):
        solve_max([1.0, 0.0, 0.0], A, [1.0, -1.0], [1, 2])


def _enumerate_optimum(c, A, b):
    """Best basic feasible solution by brute force over column subsets."""
    m, n = A.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-9:
            continue
        xb = np.linalg.solve(B, b)
        if (xb < -1e-9).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        val = float(c @ x)
        if best is None or val > best:
            best = val
    return best


def test_matches_basis_enumeration_on_random_problems():
    # max c @ x with A x + s = b, b >= 0 (zeros make degenerate starts)
    rng = np.random.default_rng(7)
    for _ in range(60):
        m, n = 2, 3
        A = np.hstack([rng.integers(-3, 4, size=(m, n)).astype(float), np.eye(m)])
        b = rng.integers(0, 4, size=m).astype(float)
        c = np.append(rng.integers(-4, 5, size=n).astype(float), np.zeros(m))
        want = _enumerate_optimum(c, A, b)
        try:
            _, val = solve_max(c, A, b, np.arange(n, n + m))
        except LpError as err:
            assert "unbounded" in str(err)
            continue
        assert want is not None
        assert val == pytest.approx(want, abs=1e-8)


def test_phase_one_rounding_dust_is_not_unboundedness():
    # A two-phase simplex ends phase 1 on this game with a reduced cost of
    # about 2e-9 on a column with no positive entry: dust, not unboundedness.
    game = Game([[0.0, 0.0, 5.960464477539063e-08], [0.0, 0.0, 0.0], [1.375, 0.0, 0.0]])
    res = find_dominator(game, pure(0, 3), mode="mixed")
    assert not res.dominated
    assert res.margin == pytest.approx(0.0, abs=1e-9)

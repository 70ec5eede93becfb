"""The dense simplex solver against tiny hand and enumeration oracles."""

import itertools

import numpy as np
import pytest

from egtlab.dominance import find_dominator
from egtlab.games import Game, pure
from egtlab.lp import LpError, solve_max


def test_box_corner():
    # max x1 + x2 with x1 + x2 + slack = 1
    x, val = solve_max([1.0, 1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0])
    assert val == pytest.approx(1.0)
    assert x[2] == pytest.approx(0.0)


def test_two_constraints():
    # max 3a + 2b, a + b <= 4, a <= 3 (slacks appended)
    c = [3.0, 2.0, 0.0, 0.0]
    A = [[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]]
    x, val = solve_max(c, A, [4.0, 3.0])
    assert val == pytest.approx(11.0)
    assert x[0] == pytest.approx(3.0) and x[1] == pytest.approx(1.0)


def test_unbounded_is_reported():
    with pytest.raises(LpError, match="unbounded"):
        solve_max([1.0], [[0.0]], [0.0])


def test_infeasible_is_reported():
    with pytest.raises(LpError, match="infeasible"):
        solve_max([1.0], [[1.0]], [-1.0])


def test_negative_rhs_rows_are_handled():
    # -x = -2 is feasible at x = 2 even though b starts negative.
    x, val = solve_max([-1.0], [[-1.0]], [-2.0])
    assert x[0] == pytest.approx(2.0)
    assert val == pytest.approx(-2.0)


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
    rng = np.random.default_rng(7)
    for _ in range(60):
        m, n = 2, 5
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        x_feas = rng.random(n)
        b = A @ x_feas
        c = rng.integers(-4, 5, size=n).astype(float)
        want = _enumerate_optimum(c, A, b)
        try:
            _, val = solve_max(c, A, b)
        except LpError as err:
            assert "unbounded" in str(err)
            continue
        assert want is not None
        assert val == pytest.approx(want, abs=1e-8)


def test_phase_one_rounding_dust_is_not_unboundedness():
    # Phase 1 ends with a reduced cost of about 2e-9 on a column with no
    # positive entry; phase 1 is bounded, so that is dust, not unboundedness.
    game = Game([[0.0, 0.0, 5.960464477539063e-08], [0.0, 0.0, 0.0], [1.375, 0.0, 0.0]])
    res = find_dominator(game, pure(0, 3), mode="mixed")
    assert not res.dominated
    assert res.margin == pytest.approx(0.0, abs=1e-9)

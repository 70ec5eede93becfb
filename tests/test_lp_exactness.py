"""The dominance LP against SciPy's HiGHS, and the simplex's own residual check."""

import numpy as np
import pytest

from egtlab import lp
from egtlab.dominance import find_dominator, iterate_elimination, strict_margin
from egtlab.games import Game, pure
from egtlab.lp import LpError, solve_max

from oracles import planted_game


def _split_margin_lp(payoff, i):
    """Max-margin LP of pure row i in canonical form, with the margin above the
    best pure margin split as eps+ - eps-; variables: p over every row, eps+,
    eps-, one slack per column. The start is the best pure row r, with p_r
    eliminated through sum p = 1 and basic in the last row."""
    gaps = payoff - payoff[i]
    margins = gaps.min(axis=1)
    r = int(np.argmax(margins))
    n_rows, n_cols = payoff.shape
    A = np.zeros((n_cols + 1, n_rows + 2 + n_cols))
    A[:n_cols, :n_rows] = (gaps[r] - gaps).T
    A[:n_cols, n_rows] = 1.0
    A[:n_cols, n_rows + 1] = -1.0
    A[:n_cols, n_rows + 2:] = np.eye(n_cols)
    A[n_cols, :n_rows] = 1.0
    c = np.zeros(n_rows + 2 + n_cols)
    c[n_rows], c[n_rows + 1] = 1.0, -1.0
    basis = np.append(np.arange(n_rows + 2, n_rows + 2 + n_cols), r)
    return c, A, np.append(gaps[r] - margins[r], 1.0), basis


def test_a_solution_off_its_constraints_is_an_error():
    # eps+ and eps- are exact negatives, so once one is basic the other's
    # entries are rounding dust. On this game (found by search over 400
    # seeds) Bland's rule pivots on that dust and the final tableau misses
    # A x = b by about 4e-5.
    rng = np.random.default_rng(58)
    n = int(rng.integers(5, 17))
    payoff, _ = planted_game(rng, n, int(rng.integers(1, 4)))
    with pytest.raises(LpError, match="residual"):
        solve_max(*_split_margin_lp(payoff, 3))


def test_a_corrupted_tableau_fails_the_residual_check_of_a_dominance_query(monkeypatch):
    # One rhs entry moves by 1 after the first pivot, so the basic solution
    # misses A x = b by a whole column of A. The residual check stops it on
    # the dominance path, before any certificate is read off.
    pivot, pivots = lp._pivot, []

    def bumped(T, basis, row, col):
        pivot(T, basis, row, col)
        if not pivots:
            T[row, -1] += 1.0
        pivots.append((row, col))
    monkeypatch.setattr(lp, "_pivot", bumped)
    game = Game(planted_game(np.random.default_rng(8), 8, 3)[0])
    for query in (lambda: find_dominator(game, pure(0, 8)), lambda: iterate_elimination(game)):
        pivots.clear()
        with pytest.raises(LpError, match="residual"):
            query()
        assert pivots


def _highs_margin(payoff, q):
    """Best margin of a mixture over every row against q, across every column."""
    from scipy.optimize import linprog

    n_rows, n_cols = payoff.shape
    c = np.zeros(n_rows + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([-payoff.T, np.ones((n_cols, 1))]), b_ub=-(q @ payoff),
                  A_eq=np.append(np.ones(n_rows), 0.0)[None, :], b_eq=[1.0],
                  bounds=[(0, None)] * n_rows + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return -float(res.fun)


def _assert_matches_highs(payoff, queries):
    game = Game(payoff)
    for q in queries:
        res = find_dominator(game, q)
        assert res.margin == pytest.approx(_highs_margin(payoff, q), abs=1e-9)
        if res.dominated:
            assert strict_margin(game, res.dominator, q) == pytest.approx(res.margin, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_margins_match_highs_on_random_games(seed):
    pytest.importorskip("scipy")
    rng = np.random.default_rng([seed, 17])
    for g in range(10):
        n = int(rng.integers(8, 25))
        if g % 2:
            payoff, _ = planted_game(rng, n, int(rng.integers(1, 4)))
        else:
            payoff = rng.uniform(0.0, 1.0, size=(n, n))
        queries = np.zeros((4, n))
        queries[[0, 1], rng.choice(n, size=2, replace=False)] = 1.0
        for q in queries[2:]:
            q[rng.choice(n, size=3, replace=False)] = rng.dirichlet(np.ones(3))
        _assert_matches_highs(payoff, queries)


def test_margins_match_highs_on_the_planted_16x16_game():
    # The 16x16 game of the dominance benchmark's fixed game stream (0, 9).
    # With the margin split into two columns, the LP of row 10 pivoted on
    # dust and its certificate failed.
    pytest.importorskip("scipy")
    rng = np.random.default_rng((0, 9))
    for n, depth in ((4, 1), (8, 2), (12, 3)):
        planted_game(rng, n, depth)
    payoff, _ = planted_game(rng, 16, 3)
    _assert_matches_highs(payoff, np.eye(16))

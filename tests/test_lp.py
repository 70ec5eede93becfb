"""The dense simplex solver against tiny hand and enumeration oracles."""

import itertools

import numpy as np
import pytest

from egtlab import dominance, lp
from egtlab.dominance import find_dominator
from egtlab.games import Game, pure
from egtlab.lp import LpError, solve_max

import oracles


def test_box_corner():
    # max x1 + x2 with x1 + x2 + slack = 1, from the slack basis
    x, val, _ = solve_max([1.0, 1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0], [2])
    assert val == pytest.approx(1.0)
    assert x[2] == pytest.approx(0.0)


def test_two_constraints():
    # max 3a + 2b, a + b <= 4, a <= 3 (slacks appended and basic)
    c = [3.0, 2.0, 0.0, 0.0]
    A = [[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]]
    x, val, _ = solve_max(c, A, [4.0, 3.0], [2, 3])
    assert val == pytest.approx(11.0)
    assert x[0] == pytest.approx(3.0) and x[1] == pytest.approx(1.0)


def test_duals_price_the_constraints():
    # test_two_constraints' LP: a unit more of a + b <= 4 earns 2, of a <= 3
    # earns 1
    c = [3.0, 2.0, 0.0, 0.0]
    A = [[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]]
    assert solve_max(c, A, [4.0, 3.0], [2, 3])[2].tolist() == [2.0, 1.0]
    # a start basis with a cost: max x0 + 2 x1 with x0 + x1 = 1, from x0 = 1
    x, val, pi = solve_max([1.0, 2.0], [[1.0, 1.0]], [1.0], [0])
    assert x.tolist() == [0.0, 1.0] and val == 2.0 and pi.tolist() == [2.0]


def test_an_lp_that_needs_exactly_maxiter_pivots_solves(monkeypatch):
    # test_two_constraints' LP takes two pivots
    c = [3.0, 2.0, 0.0, 0.0]
    A = [[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]]
    monkeypatch.setattr(lp, "MAXITER", 2)
    assert solve_max(c, A, [4.0, 3.0], [2, 3])[1] == pytest.approx(11.0)
    monkeypatch.setattr(lp, "MAXITER", 1)
    with pytest.raises(LpError, match="did not terminate in 1 iterations"):
        solve_max(c, A, [4.0, 3.0], [2, 3])


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
    x, val, _ = solve_max([-1.0], [[1.0]], [2.0], [0])
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


def test_a_basis_index_outside_the_columns_is_rejected():
    # as a ValueError, not as NumPy's IndexError; a negative index would
    # wrap around to a column from the end
    for basis in ([5], [2], [-1]):
        with pytest.raises(ValueError, match="basis indices"):
            solve_max([1.0, 0.0], [[1.0, 1.0]], [1.0], basis)


def test_an_lp_without_constraint_rows_starts_at_zero():
    x, val, pi = solve_max([-1.0, 0.0], np.zeros((0, 2)), [], [])
    assert x.tolist() == [0.0, 0.0] and val == 0.0 and pi.shape == (0,)


def test_an_lp_without_constraint_rows_is_unbounded_on_a_positive_cost():
    with pytest.raises(LpError, match="unbounded"):
        solve_max([-1.0, 2.0], np.zeros((0, 2)), [], [])


def test_an_lp_without_variables_is_its_empty_optimum():
    x, val, pi = solve_max([], np.zeros((0, 0)), [], [])
    assert x.shape == (0,) and val == 0.0 and pi.shape == (0,)
    assert type(val) is float


NAN = float("nan")


@pytest.mark.parametrize("c, A, b, match", [
    # in b: the basic entry of x is nan
    ([0.0, 0.0], [[1.0, 1.0]], [NAN], "residual nan"),
    # in a nonbasic column of A: its reduced cost is nan, so it never enters
    ([0.0, 0.0], [[1.0, NAN]], [1.0], "residual nan"),
    ([0.0, 1.0], [[1.0, NAN]], [1.0], "residual nan"),
    # in c, nonbasic and basic: the objective value is nan
    ([0.0, NAN], [[1.0, 1.0]], [1.0], "objective value nan is not finite"),
    ([NAN, 1.0], [[1.0, 1.0]], [1.0], "objective value nan is not finite"),
])
def test_a_nan_in_the_lp_is_an_error(c, A, b, match):
    with pytest.raises(LpError, match=match):
        solve_max(c, A, b, [0])


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


def _random_lps():
    """max c @ x with A x + s = b, b >= 0 (zeros make degenerate starts),
    started from the slack basis."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        m, n = 2, 3
        A = np.hstack([rng.integers(-3, 4, size=(m, n)).astype(float), np.eye(m)])
        b = rng.integers(0, 4, size=m).astype(float)
        c = np.append(rng.integers(-4, 5, size=n).astype(float), np.zeros(m))
        yield c, A, b, np.arange(n, n + m)


def test_matches_basis_enumeration_on_random_problems():
    for c, A, b, basis in _random_lps():
        want = _enumerate_optimum(c, A, b)
        try:
            _, val, _ = solve_max(c, A, b, basis)
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


def _start_tableaus(monkeypatch):
    """The tableau and basis solve_max hands its pivot loop, for the random
    LPs above and the dominance LPs of small integer games (whose ties make
    degenerate pivots)."""
    starts = []

    def record(T, basis):
        starts.append((T.copy(), basis.copy()))
        raise LpError("recorded")
    with monkeypatch.context() as m:
        m.setattr(lp, "_bland_iterate", record)
        for c, A, b, basis in _random_lps():
            with pytest.raises(LpError, match="recorded"):
                solve_max(c, A, b, basis)
        for game in _small_integer_games():
            for i in range(game.n_rows):
                with pytest.raises(LpError, match="recorded"):
                    find_dominator(game, pure(i, game.n_rows))
    return starts


def _small_integer_games():
    rng = np.random.default_rng(8)
    for n in (3, 4, 5, 6, 8):
        for _ in range(8):
            yield Game(rng.integers(0, 3, size=(n, n)).astype(float))


def _run_both(monkeypatch, T0, basis0, maxiter):
    """(error, pivots, tableau, basis) of the package loop and the reference,
    each run on a copy of the start with an iteration cap of maxiter."""
    pivot = lp._pivot
    outcomes = []
    for loop in ("package", "reference"):
        T, basis, pivots, error = T0.copy(), basis0.copy(), [], None

        def logged(T, basis, row, col):
            pivots.append((row, col))
            pivot(T, basis, row, col)
        with monkeypatch.context() as m:
            m.setattr(lp, "MAXITER", maxiter)
            m.setattr(lp, "_pivot", logged)
            try:
                if loop == "package":
                    lp._bland_iterate(T, basis)
                else:
                    oracles.bland_iterate(T, basis, maxiter, lp.PIVOT_TOL, pivots)
            except RuntimeError as err:
                error = str(err)
        outcomes.append((error, pivots, T.tobytes(), basis.tolist()))
    return outcomes


def test_pivot_loop_matches_the_reference_bit_for_bit(monkeypatch):
    starts = _start_tableaus(monkeypatch)
    errors = set()
    for T0, basis0 in starts:
        package, reference = _run_both(monkeypatch, T0, basis0, lp.MAXITER)
        assert package == reference
        errors.add(package[0])
        if len(package[1]) > 1:
            # stopped one pivot short of its end, both loops hit the cap there
            package, reference = _run_both(monkeypatch, T0, basis0, len(package[1]) - 1)
            assert package == reference
            errors.add(package[0])
    assert {None, "objective unbounded above"} < errors
    assert any(e and "did not terminate" in e for e in errors)
    assert len(starts) == 60 + 8 * (3 + 4 + 5 + 6 + 8)


def _solved_with_duals(monkeypatch):
    """(source, c, A, b, x, value, pi) for the random LPs above that have an
    optimum ("random"), then for the dominance LPs of the pure strategies of
    small integer games and of uniform games ("dominance")."""
    lps = [("random", *args) for args in _random_lps()]

    def record(*args):
        lps.append(("dominance", *args))
        return solve_max(*args)
    rng = np.random.default_rng(9)
    games = list(_small_integer_games()) + [Game(rng.uniform(0.0, 1.0, size=(n, n)))
                                            for n in (3, 4, 5, 6) for _ in range(4)]
    with monkeypatch.context() as m:
        m.setattr(dominance, "solve_max", record)
        for game in games:
            for i in range(game.n_rows):
                find_dominator(game, pure(i, game.n_rows))
    solved = []
    for source, c, A, b, basis in lps:
        try:
            x, value, pi = solve_max(c, A, b, basis)
        except LpError as err:
            assert source == "random" and "unbounded" in str(err)
            continue
        solved.append((source, np.asarray(c, dtype=float), np.asarray(A, dtype=float),
                       np.asarray(b, dtype=float), x, value, pi))
    return solved


def test_duals_are_feasible_and_close_the_duality_gap(monkeypatch):
    solved = _solved_with_duals(monkeypatch)
    assert len(solved) > 300
    for _, c, A, b, x, value, pi in solved:
        assert (c - pi @ A).max() <= lp.PIVOT_TOL
        # the largest gap measured on these LPs is 4.5e-16
        assert abs(pi @ b - value) <= 1e-12 * (1.0 + np.abs(pi) @ np.abs(b))


def test_duals_match_highs_where_the_optimum_is_unique(monkeypatch):
    linprog = pytest.importorskip("scipy.optimize").linprog
    unique = []
    for source, c, A, b, x, value, pi in _solved_with_duals(monkeypatch):
        # an optimal basis whose basic entries are all positive has one dual
        if np.count_nonzero(x > 1e-9) < len(b):
            continue
        res = linprog(-c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert res.status == 0, res.message
        # HiGHS minimizes -c @ x, so its marginals are the duals negated
        np.testing.assert_allclose(-res.eqlin.marginals, pi, rtol=0, atol=1e-9)
        unique.append(source)
    assert unique.count("random") >= 10 and unique.count("dominance") >= 10

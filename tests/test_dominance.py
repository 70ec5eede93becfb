"""Strict dominance queries, elimination traces, and the grid cross-check."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from egtlab import dominance, lp
from egtlab.dominance import (find_dominator, is_mixed_iteratively_dominated,
                              iterate_elimination, strict_margin)
from egtlab.games import Game, pure, uniform
from egtlab.lp import LpError

from oracles import (best_reply_gap, column_lp, exact_margin, grid_margin, mixture_grid,
                     planted_game)
from test_lp import _small_integer_games

DISCUSSION = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])
RPS = Game([[1.0, -2.0, 2.0], [2.0, 1.0, -2.0], [-2.0, 2.0, 1.0]])
HALF_HALF = np.array([0.5, 0.5, 0.0])


def test_margin_of_the_discussion_mixture():
    assert strict_margin(DISCUSSION, pure(2, 3), HALF_HALF) == pytest.approx(0.5)


def test_margin_against_itself_is_zero():
    assert strict_margin(DISCUSSION, HALF_HALF, HALF_HALF) == 0.0


def test_margin_in_the_survival_game():
    game = Game([[9.0, 1.0], [4.5, 4.5], [1.0, 9.0]])
    got = strict_margin(game, (0.5, 0.0, 0.5), pure(1, 3))
    assert got == pytest.approx(0.5)


def test_find_dominator_pure_mode():
    res = find_dominator(DISCUSSION, HALF_HALF, mode="pure")
    assert res.dominated
    assert res.margin == pytest.approx(0.5)
    assert list(res.dominator) == [0.0, 0.0, 1.0]
    # rows 1 and 3 tie at margin 1 on columns 0 and 1 (column 2 would break
    # the tie); the first of the tied rows, in the order given, is returned
    game = Game([[0.0, 0.0, 0.0], [1.0, 2.0, -5.0], [0.5, 0.5, 9.0], [2.0, 1.0, 9.0]])
    for rows, best in (((3, 1, 0), 3), ((1, 3, 0), 1)):
        res = find_dominator(game, pure(0, 4), restrict_rows=rows, restrict_cols=(0, 1),
                             mode="pure")
        assert res.dominated and res.margin == 1.0
        assert list(res.dominator) == list(pure(best, 4).weights)


def test_find_dominator_mixed_mode_cannot_do_worse():
    res = find_dominator(DISCUSSION, HALF_HALF, mode="mixed")
    assert res.dominated
    assert res.margin == pytest.approx(0.5)
    # the certificate must actually realize the margin
    assert strict_margin(DISCUSSION, res.dominator, HALF_HALF) == \
        pytest.approx(res.margin)


def test_one_by_one_game_has_no_dominator():
    res = find_dominator(Game([[5.0]]), pure(0, 1))
    assert not res.dominated
    assert res.margin == pytest.approx(0.0)


def test_rps_center_is_undominated():
    res = find_dominator(RPS, uniform(3))
    assert not res.dominated
    assert abs(res.margin) <= 1e-9
    assert res.degenerate


def test_elimination_collapses_a_dominance_solvable_game():
    trace = iterate_elimination(Game([[3.0, 0.0], [5.0, 1.0]]))
    assert trace.surviving_rows == (1,)
    assert trace.surviving_cols == (1,)
    # every deletion carries a strict certificate
    assert all(cert.margin > 0 for _, _, _, cert in trace.removals)


def test_elimination_leaves_rps_alone():
    trace = iterate_elimination(RPS)
    assert trace.surviving_rows == (0, 1, 2)
    assert len(trace.removals) == 0


def test_elimination_spares_a_single_row():
    flat = Game([[0.0], [0.0], [0.0]])
    trace = iterate_elimination(Game([[1.0, 2.0, 3.0]]), opponent_game=flat)
    assert trace.surviving_rows == (0,)
    assert trace.surviving_cols == (0, 1, 2)
    assert len(trace.removals) == 0


def test_elimination_prunes_the_opponent_side_too():
    sharp = Game([[1.0], [0.0], [0.0]])
    trace = iterate_elimination(Game([[1.0, 2.0, 3.0]]), opponent_game=sharp)
    assert trace.surviving_rows == (0,)
    assert trace.surviving_cols == (0,)


def test_elimination_same_matrix_needs_square():
    with pytest.raises(ValueError, match="square"):
        iterate_elimination(Game([[1.0, 2.0, 3.0]]))


def test_iterated_query_on_the_discussion_mixture():
    res = is_mixed_iteratively_dominated(DISCUSSION, None, HALF_HALF)
    assert res.dominated
    assert res.margin == pytest.approx(0.5)


def test_iterated_query_uses_later_rounds():
    game = Game([[3.0, 0.0], [5.0, 1.0]])
    res = is_mixed_iteratively_dominated(game, None, (1.0, 0.0))
    assert res.dominated
    assert res.margin == pytest.approx(1.0)
    assert list(res.dominator) == [0.0, 1.0]


def test_iterated_query_takes_pure_or_mixed_dominators_only():
    # the middle row is beaten by the half-half mixture of the others, by no pure row
    game, opponent = Game([[9.0, 1.0], [4.5, 4.5], [1.0, 9.0]]), Game(np.zeros((2, 3)))
    res = is_mixed_iteratively_dominated(game, opponent, pure(1, 3))
    assert res.dominated and res.margin == pytest.approx(0.5)
    # pure dominators at both stages: pure-by-pure elimination, then a pure query
    trace = iterate_elimination(game, "pure-by-pure", opponent)
    res = find_dominator(game, pure(1, 3), trace.surviving_rows, trace.surviving_cols,
                         mode="pure")
    assert not res.dominated and res.margin == 0.0
    with pytest.raises(TypeError, match="dominators"):
        is_mixed_iteratively_dominated(game, opponent, pure(1, 3), dominators="pure")


def test_pure_by_mixed_removes_at_least_pure_by_pure():
    rng = np.random.default_rng(11)
    for _ in range(40):
        game = Game(rng.integers(0, 10, size=(4, 4)).astype(float))
        by_pure = iterate_elimination(game, mode="pure-by-pure")
        by_mixed = iterate_elimination(game, mode="pure-by-mixed")
        assert set(by_mixed.surviving_rows) <= set(by_pure.surviving_rows)
        assert set(by_mixed.surviving_cols) <= set(by_pure.surviving_cols)


def test_trace_rounds_are_nested():
    rng = np.random.default_rng(12)
    for _ in range(25):
        game = Game(rng.integers(0, 10, size=(4, 4)).astype(float))
        trace = iterate_elimination(game)
        rows = [set(r[0]) for r in trace.rounds]
        cols = [set(r[1]) for r in trace.rounds]
        for earlier, later in zip(rows, rows[1:]):
            assert later <= earlier
        for earlier, later in zip(cols, cols[1:]):
            assert later <= earlier


def test_lp_agrees_with_the_mixture_grid():
    grid = mixture_grid(4, 12)
    rng = np.random.default_rng(13)
    for _ in range(40):
        payoff = rng.integers(0, 10, size=(4, 4)).astype(float)
        game = Game(payoff)
        for i in range(4):
            q = pure(i, 4)
            gm = grid_margin(payoff, q.weights, grid)
            res = find_dominator(game, q)
            if gm > 1e-6:
                assert res.dominated
                assert res.margin >= gm - 1e-9
            if res.dominated:
                assert strict_margin(game, res.dominator, q) == \
                    pytest.approx(res.margin, abs=1e-9)


def test_margins_scale_with_the_payoffs():
    rng = np.random.default_rng(14)
    payoff = rng.integers(0, 10, size=(4, 4)).astype(float)
    q = np.array([0.25, 0.25, 0.25, 0.25])
    base = find_dominator(Game(payoff), q)
    lam = 3.5
    scaled = find_dominator(Game(lam * payoff), q)
    assert scaled.dominated == base.dominated
    if base.dominated:
        assert scaled.margin == pytest.approx(lam * base.margin, rel=1e-9)


def test_verdicts_survive_column_shifts():
    rng = np.random.default_rng(15)
    payoff = rng.integers(0, 10, size=(4, 4)).astype(float)
    shifted = payoff.copy()
    shifted[:, 2] += 7.0
    q = np.array([0.5, 0.5, 0.0, 0.0])
    base = find_dominator(Game(payoff), q)
    moved = find_dominator(Game(shifted), q)
    assert moved.dominated == base.dominated
    assert moved.margin == pytest.approx(base.margin, abs=1e-9)


def _elimination_by_queries(game, mode, opponent=None):
    """Rounds and removals of iterated elimination (same matrix for both
    seats unless an opponent game is given) that queries find_dominator for
    every alive row and column; removals maps (round, side, index) to the
    query's result."""
    opponent = opponent or game
    rows, cols = tuple(range(game.n_rows)), tuple(range(game.n_cols))
    rounds, removals = [(rows, cols)], {}
    while True:
        gone = {side: {i: res for i in own
                       if (res := find_dominator(g, pure(i, g.n_rows), own, opp, mode)).dominated}
                for side, g, own, opp in (("row", game, rows, cols),
                                          ("col", opponent, cols, rows))}
        if not gone["row"] and not gone["col"]:
            return tuple(rounds), removals
        removals |= {(len(rounds), side, i): res for side in gone
                     for i, res in gone[side].items()}
        rows = tuple(i for i in rows if i not in gone["row"])
        cols = tuple(j for j in cols if j not in gone["col"])
        rounds.append((rows, cols))


def _elimination_games():
    rng = np.random.default_rng(16)
    for n in (5, 8, 12, 16, 20):
        yield Game(rng.uniform(0.0, 1.0, size=(n, n)))
        # scaled down, a chain strategy sits within 1.5e-3 of a best reply
        for scale in (1.0, 0.01):
            yield Game(scale * planted_game(rng, n, min(3, n // 4))[0])
    for _ in range(6):
        yield Game(rng.integers(0, 6, size=(6, 6)).astype(float))


def _two_sided_games():
    """A planted game against two different opponent matrices."""
    A, chain = planted_game(np.random.default_rng(19), 10, 3)
    nudged = A.copy()
    nudged[chain[0], chain[0]] = 5.0  # the column seat keeps chain[0] while row chain[0] lives
    assert not np.array_equal(A, A.T)
    return Game(A), (Game(nudged), Game(A.T))


def _screened_queries(monkeypatch, game, mode, opponent=None):
    """The trace of an elimination, and (game, own, opp, skipped, settled)
    for each seat of each round: skipped lists the alive strategies that
    were not removed and whose query no LP answered or an LP answered with
    a column mixture y, and settled maps the latter to y over opp. Every LP
    reads its row's gaps, sub - sub[k]; one that answered "dominated"
    removed its strategy, so it settles nothing, and 'pure' mode's have no
    y."""
    calls, one_side, max_margin = [], dominance._one_side_removals, dominance._max_margin

    def side(g, own, opp, *args):
        calls.append((g, own, opp, [], set()))
        gone = one_side(g, own, opp, *args)
        calls[-1][4].update(i for i, _ in gone)
        return gone

    def margin(gaps, dom_mode):
        out = max_margin(gaps, dom_mode)
        calls[-1][3].append((gaps, out))
        return out
    with monkeypatch.context() as m:
        m.setattr(dominance, "_one_side_removals", side)
        m.setattr(dominance, "_max_margin", margin)
        trace = iterate_elimination(game, mode=mode, opponent_game=opponent)
    seats = []
    for g, own, opp, lps, gone in calls:
        sub = g.payoff[np.ix_(own, opp)]

        # y of the LP that read each kept row's gaps, if one did
        ys = {i: [out[2] for gaps, out in lps if np.array_equal(gaps, sub - (row + 0.0))]
              for i, row in zip(own, sub) if i not in gone}
        skipped = [i for i, y in ys.items() if not y or y[0] is not None]
        settled = {i: y[0] for i, y in ys.items() if y and y[0] is not None}
        seats.append((g, own, opp, skipped, settled))
    return trace, seats


@pytest.mark.parametrize("mode", ["pure-by-mixed", "pure-by-pure"])
def test_best_reply_screen_changes_no_round(monkeypatch, mode):
    # the screen's certificates are the alive pure columns, which skip weak
    # best replies, and in mixed mode the column mixtures of earlier LPs
    dom_mode = "mixed" if mode == "pure-by-mixed" else "pure"
    game, opponents = _two_sided_games()
    runs = [(g, None) for g in _elimination_games()] + [(game, o) for o in opponents]
    skipped = {True: 0, False: 0}  # by whether the row is a weak best reply
    settled = 0  # by an LP's column mixture
    for g, opponent in runs:
        trace, seats = _screened_queries(monkeypatch, g, mode, opponent)
        rounds, removals = _elimination_by_queries(g, dom_mode, opponent)
        assert trace.rounds == rounds
        assert {(k, side, i) for k, side, i, _ in trace.removals} == removals.keys()
        for seat, own, opp, rows, by_column_lp in seats:
            sub = seat.payoff[np.ix_(own, opp)]
            for i in rows:
                assert not find_dominator(seat, pure(i, seat.n_rows), own, opp,
                                          dom_mode).dominated
                skipped[bool((sub[own.index(i)] >= sub.max(axis=0)).any())] += 1
            settled += len(by_column_lp)
    assert skipped[True] > 0
    assert (skipped[False] > 0) == (settled > 0) == (mode == "pure-by-mixed")


def _certificate_games(scale):
    """Uniform, integer (with ties) and planted games of 3 to 30 strategies,
    times scale."""
    rng = np.random.default_rng(20)
    for n in (3, 5, 8, 12, 16, 20, 25, 30):
        for _ in range(5):
            yield Game(scale * rng.uniform(0.0, 1.0, size=(n, n)))
            yield Game(scale * rng.integers(0, 4, size=(n, n)).astype(float))
            yield Game(scale * planted_game(rng, n, min(4, max(1, n // 4)))[0])


def _query_tol(sub, scale):
    """The bound of the exact checks on payoff slice sub: STRICT_TOL, or at
    scale 1e6 the query's relative tolerance (module docstring of
    egtlab.dominance)."""
    return Fraction(dominance._tol(float(np.abs(sub).max())) if scale == 1e6
                    else dominance.STRICT_TOL)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e-6, 1e6])
def test_column_certificates_pass_an_exact_check(monkeypatch, scale):
    # every query an LP settles with its column mixture has a y to which its
    # row is a best reply within a tenth of the tolerance, in exact rationals
    settled = 0
    for game in _certificate_games(scale):
        _, seats = _screened_queries(monkeypatch, game, "pure-by-mixed")
        for seat, own, opp, _, by_column_lp in seats:
            sub = seat.payoff[np.ix_(own, opp)]
            bound = _query_tol(sub, scale) / 10
            for i, y in by_column_lp.items():
                assert best_reply_gap(sub, own.index(i), y) <= bound
            settled += len(by_column_lp)
    assert settled > 300


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e-6, 1e6])
def test_dominated_certificates_pass_an_exact_check(scale):
    # every removal's dominator beats its row by more than the tolerance in
    # exact rationals, within the tolerance of the reported margin; the
    # rounds, removals, margins and dominators are find_dominator's, to the bit
    removed = 0
    for game in _certificate_games(scale):
        trace = iterate_elimination(game)
        rounds, removals = _elimination_by_queries(game, "mixed")
        assert trace.rounds == rounds
        assert {(k, side, i) for k, side, i, _ in trace.removals} == removals.keys()
        for k, side, i, res in trace.removals:
            own, opp = trace.rounds[k - 1] if side == "row" else trace.rounds[k - 1][::-1]
            tol = _query_tol(game.payoff[np.ix_(own, opp)], scale)
            exact = exact_margin(game.payoff, res.dominator.weights, i, own, opp)
            assert exact > tol
            assert abs(exact - Fraction(res.margin)) <= tol
            want = removals[k, side, i]
            assert np.float64(res.margin).tobytes() == np.float64(want.margin).tobytes()
            assert res.dominator.weights.tobytes() == want.dominator.weights.tobytes()
        removed += len(trace.removals)
    assert removed > 300


def test_column_lps_are_the_reference_construction(monkeypatch):
    # _max_margin writes its LP in place; what it hands solve_max, and the
    # margin, p and y it reads off the answer, are those of the plain
    # construction (oracles.column_lp), to the bit
    lps, answers = [], []
    solve, max_margin = dominance.solve_max, dominance._max_margin

    def solve_recorded(*args):
        lps.append(args)
        return solve(*args)

    def margin_recorded(gaps, mode):
        answers.append((gaps, max_margin(gaps, mode)))
        return answers[-1][1]
    monkeypatch.setattr(dominance, "solve_max", solve_recorded)
    monkeypatch.setattr(dominance, "_max_margin", margin_recorded)
    for scale in (1.0, 1e3, 1e-6):
        for game in _certificate_games(scale):
            iterate_elimination(game)
    for game in _small_integer_games():
        iterate_elimination(game)
        for i in range(game.n_rows):
            find_dominator(game, pure(i, game.n_rows))
    assert len(lps) == len(answers) > 1000
    for args, (gaps, answer) in zip(lps, answers):
        lp_args, read = column_lp(gaps)
        for got, want in zip(args, lp_args):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        for got, want in zip(answer, read(*solve(*lp_args))):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_answers_scale_exactly_with_powers_of_two():
    # dividing by a power of two rounds nothing, and the tolerance follows
    # the payoffs: 2^k A gives the rounds, verdicts and dominator bytes of A,
    # and its margins times 2^k, to the bit
    rng, removed = np.random.default_rng(21), 0
    for game in list(_certificate_games(1.0))[::10]:
        q = rng.dirichlet(np.ones(game.n_rows))
        trace, res = iterate_elimination(game), find_dominator(game, q)
        removed += len(trace.removals)
        for k in range(-20, 21):
            scaled = Game(np.ldexp(game.payoff, k))
            got = iterate_elimination(scaled)
            assert got.rounds == trace.rounds
            assert [r[:3] for r in got.removals] == [r[:3] for r in trace.removals]
            for (*_, a), (*_, b) in zip(got.removals, trace.removals):
                assert a.margin == np.ldexp(b.margin, k)
                assert a.dominator.weights.tobytes() == b.dominator.weights.tobytes()
            r = find_dominator(scaled, q)
            assert (r.dominated, r.degenerate) == (res.dominated, res.degenerate)
            assert r.margin == np.ldexp(res.margin, k)
            if res.dominated:
                assert r.dominator.weights.tobytes() == res.dominator.weights.tobytes()
    assert removed > 30


@pytest.mark.parametrize("scale", [1e2, 1e3, 1e4, 1e6, 1e-6])
def test_rounds_do_not_depend_on_the_payoff_scale(scale):
    # strict dominance is a property of the game, unchanged by a positive
    # factor; neither elimination nor query-by-query find_dominator raises
    for game, unit in zip(_certificate_games(scale), _certificate_games(1.0)):
        rounds = iterate_elimination(unit).rounds
        assert iterate_elimination(game).rounds == rounds
        assert _elimination_by_queries(game, "mixed")[0] == rounds


def test_a_game_whose_row_lp_fails_at_1e3_eliminates_as_at_1():
    # game 65 of the corpus, planted with 16 strategies: at 1e3 an LP over
    # the rows' mixtures raises "objective unbounded above" on one of its
    # dominated queries (CHANGES.md); the column LP answers every query
    game, unit = (list(_certificate_games(s))[65] for s in (1e3, 1.0))
    assert game.n_rows == 16
    trace = iterate_elimination(game)
    assert trace.removals and trace.rounds == iterate_elimination(unit).rounds


def test_a_column_lp_answers_only_through_its_product(monkeypatch):
    # An LP's answer stands only if its certificate passes _result's
    # re-check. Each fake answers row 2 with y = column 0, under which row 0
    # beats row 2 by 2: it claims a best reply (margin 0) or a margin of
    # STRICT_TOL / 2 (no dominance), which y refutes, or margin 1 with row 2
    # itself as the dominator, which realizes 0. y's product answers row 0
    # alone, so row 2's query reaches the re-check, and each raises LpError
    # out of elimination as out of find_dominator.
    game = Game([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    for claim in (0.0, dominance.STRICT_TOL / 2, 1.0):
        asked = []

        def claims_an_answer(gaps, mode, claim=claim):
            asked.append(gaps)
            return claim, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0])
        monkeypatch.setattr(dominance, "_max_margin", claims_an_answer)
        with pytest.raises(LpError, match="certificate mismatch"):
            iterate_elimination(game, opponent_game=Game(np.zeros((2, 3))))
        assert len(asked) == 1 and np.array_equal(asked[0], game.payoff - game.payoff[2])
        with pytest.raises(LpError, match="certificate mismatch"):
            find_dominator(game, pure(2, 3))


def test_a_failing_lp_raises_out_of_elimination(monkeypatch):
    # no second LP stands in for one that raises LpError: the error leaves
    # iterate_elimination, as it leaves find_dominator
    game = Game(planted_game(np.random.default_rng(8), 8, 3)[0])

    def fails(gaps, mode):
        raise LpError("LP failed")
    monkeypatch.setattr(dominance, "_max_margin", fails)
    with pytest.raises(LpError, match="LP failed"):
        iterate_elimination(game)
    with pytest.raises(LpError, match="LP failed"):
        find_dominator(game, pure(0, 8))


def _trace_sha256(trace):
    """SHA-256 over a trace's rounds and each removal's round, side, index,
    margin bytes and dominator bytes."""
    h = hashlib.sha256(repr(trace.rounds).encode())
    for k, side, i, res in trace.removals:
        h.update(repr((k, side, i)).encode())
        h.update(np.float64(res.margin).tobytes())
        h.update(res.dominator.weights.tobytes())
    return h.hexdigest()


def _unscreened_rows(game, rounds):
    """Row-side queries left after the best-reply screen, over every round."""
    count = 0
    for rows, cols in rounds:
        sub = game.payoff[np.ix_(rows, cols)]
        count += int((~(sub >= sub.max(axis=0)).any(axis=1)).sum())
    return count


# (size, chain depth, LPs, pivots, trace SHA-256). The best-reply screen
# leaves 15, 25 and 20 queries; earlier LPs' certificates answer many of
# them, and one LP answers each of the rest, either way: its y answers "not
# dominated", and otherwise its optimum and duals are the dominated row's
# margin and dominator. Asking the column side's queries again, as a
# two-sided loop does, takes twice the LPs and pivots for the same digests.
ELIMINATION_BUDGETS = [
    (12, 3, 8, 19, "49b950c197bad7d7d2eec0bb8490331cb8cd3a93023e87f599d63f89c03b0c53"),
    (16, 3, 14, 106, "e1afc64be0caa425be4ec40e60e0cff6e9e1d149c2fee172015a1a85c25708cd"),
    (17, 4, 9, 133, "b2be01f599a84520555a343fcdc33061a2496cc11ba41810c4820eac6a00a933"),
]


@pytest.mark.parametrize("n, depth, lps, pivots, sha", ELIMINATION_BUDGETS,
                         ids=lambda v: str(v)[:8])
def test_symmetric_elimination_solves_each_row_query_once(monkeypatch, n, depth, lps, pivots,
                                                          sha):
    game = Game(planted_game(np.random.default_rng(n), n, depth)[0])
    calls = {"lp": 0, "pivot": 0}
    max_margin, pivot = dominance._max_margin, lp._pivot

    def counted_lp(gaps, mode):
        calls["lp"] += 1
        return max_margin(gaps, mode)

    def counted_pivot(*args):
        calls["pivot"] += 1
        return pivot(*args)
    monkeypatch.setattr(dominance, "_max_margin", counted_lp)
    monkeypatch.setattr(lp, "_pivot", counted_pivot)
    trace = iterate_elimination(game)
    assert len(trace.rounds) > 2
    assert calls["lp"] == lps
    assert lps < _unscreened_rows(game, trace.rounds)
    assert calls["pivot"] == pivots
    assert _trace_sha256(trace) == sha


def test_an_equal_opponent_matrix_takes_the_single_population_path():
    A = planted_game(np.random.default_rng(18), 10, 3)[0]
    game = Game(A)
    trace = iterate_elimination(game)
    same = iterate_elimination(game, opponent_game=Game(A.copy()))
    assert len(trace.rounds) == 4
    assert same.rounds == trace.rounds
    assert _trace_sha256(same) == _trace_sha256(trace)
    rounds, removals = _elimination_by_queries(game, "mixed")
    assert same.rounds == rounds
    assert {(k, side, i) for k, side, i, _ in same.removals} == removals.keys()


def test_a_different_opponent_matrix_runs_both_sides(monkeypatch):
    sides, one_side = [], dominance._one_side_removals

    def counted(game, *args):
        sides.append(game)
        return one_side(game, *args)
    monkeypatch.setattr(dominance, "_one_side_removals", counted)
    game, opponents = _two_sided_games()
    for opponent in opponents:
        sides.clear()
        trace = iterate_elimination(game, opponent_game=opponent)
        assert sides == [game, opponent] * len(trace.rounds)
        gone = {side: {(k, i) for k, s, i, _ in trace.removals if s == side}
                for side in ("row", "col")}
        assert gone["row"] != gone["col"]
        rounds, removals = _elimination_by_queries(game, "mixed", opponent)
        assert trace.rounds == rounds
        assert {(k, side, i) for k, side, i, _ in trace.removals} == removals.keys()


def test_the_screen_allows_for_rounding_in_its_products(monkeypatch):
    # Row 3's LP certifies it with the uniform column mixture, under which
    # every row earns 1. Row 4 is no best reply to a pure column, and its
    # product rounds to 1 - 2^-53: only the rounding allowance lets the
    # certificate answer its query.
    game = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0], [1.0, 1.0, 1.0],
                 [0.7, 0.9, 1.4]])
    max_margin, asked = dominance._max_margin, []

    def counted(gaps, mode):
        asked.append(gaps)
        return max_margin(gaps, mode)
    monkeypatch.setattr(dominance, "_max_margin", counted)
    trace = iterate_elimination(game, opponent_game=Game(np.zeros((3, 5))))
    assert trace.rounds == ((tuple(range(5)), (0, 1, 2)),) and not trace.removals
    # one LP, on row 3's gaps, and none on row 4's
    assert len(asked) == 1 and np.array_equal(asked[0], game.payoff - game.payoff[3])


def test_payoffs_too_large_for_the_rounding_allowance_screen_exactly():
    # At payoffs near 1e7 the products' rounding allowance, 2 (n + 1) eps
    # max|payoff| = 1.8e-8, exceeds the margin 7.45e-9 by which row 0 beats
    # row 3. That margin is 4 ulps of the payoffs, within the tolerance
    # 2^24 STRICT_TOL = 0.0168 of payoffs below 2^24, so row 3 is not
    # dominated, and elimination and find_dominator agree.
    big, m = 1e7, 8e-9
    game = Game([[big, 0.0, 0.0], [0.0, big, 0.0], [0.0, 0.0, big], [big - m, -m, -m]])
    opponent = Game(np.zeros((3, 4)))
    trace = iterate_elimination(game, opponent_game=opponent)
    assert trace.rounds == (((0, 1, 2, 3), (0, 1, 2)),) and not trace.removals
    res = find_dominator(game, pure(3, 4))
    assert res.margin == 2.0 ** -27 and not res.dominated and res.degenerate
    rounds, removals = _elimination_by_queries(game, "mixed", opponent)
    assert trace.rounds == rounds
    assert {(k, side, i) for k, side, i, _ in trace.removals} == removals.keys()


def test_a_certificate_leaves_the_pool_with_its_columns():
    # Row 2's LP certifies it with the half-half mixture of columns 2 and 3,
    # its only certificate. The column seat removes both columns in round 1,
    # and then row 0 dominates row 2 on the columns left.
    game = Game([[2.0, 2.0, 3.0, 0.0], [2.0, 2.0, 0.0, 3.0], [1.0, 1.0, 1.5, 1.5]])
    opponent = Game([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    trace = iterate_elimination(game, opponent_game=opponent)
    assert trace.rounds == (((0, 1, 2), (0, 1, 2, 3)), ((0, 1, 2), (0, 1)), ((0, 1), (0, 1)))
    rounds, removals = _elimination_by_queries(game, "mixed", opponent)
    assert trace.rounds == rounds
    assert {(k, side, i) for k, side, i, _ in trace.removals} == removals.keys()

"""Strict dominance tests and iterated elimination.

The heavy lifting is a max-margin linear program: find the mixture p (over an
allowed support) maximizing the worst-case payoff advantage over a target
mixture q across the opponent's allowed pure strategies. A strictly positive
optimum certifies strict dominance; the certificate is always re-checked
against the payoff matrix before it is returned.

Iterated elimination screens each query before solving it, with column
certificates. For any column mixture y >= 0 over the alive columns, with
v = sub @ y over the alive payoff slice sub, every mixture p of alive rows
has p @ (sub - sub[k]) @ y <= max(v) - v[k], so row k's margin is at most
(max(v) - v[k]) / sum(y). A row k with v[k] >= max(v) - delta sum(y) is
skipped; delta = 2 (n + 1) eps max|sub| over n alive columns covers the
rounding of both products, so a skipped row's margin is at most
4 (n + 1) eps max|sub|, held below STRICT_TOL / 10. The certificates are
the alive pure columns (a weak best reply to column j is never dominated)
and the column mixtures of earlier LPs (below), in this round or an
earlier one, while their support stays alive; each is checked by its own
product, so a dusty one can only cost a skip. Where that bound is not
below STRICT_TOL / 10 the products round too coarsely, and only the pure
columns screen, compared exactly. Either way the screen skips only queries
that would answer "not dominated", and rounds and removals are those of
querying every alive strategy.

The third source of certificates is a column LP, asked for each query the
screen leaves in 'mixed' mode where the allowance holds. By Pearce's lemma
row k is not strictly dominated iff it is a best reply to some column
mixture y, and the LP over y (_max_margin of -(sub - sub[k]).T) finds the
best one: its optimum is max over y of v[k] - max(v), at most 0. Its y joins
the pool and answers every row whose product passes the screen's test
above; if row k is one, the query is answered "not dominated". Otherwise
the LP answers by duality: its optimum is minus row k's margin, and its
constraint duals are a mixture of the alive rows that attains it. A margin
above STRICT_TOL removes row k, with the duals as its dominator, re-checked
against the payoffs like every certificate. The LP climbs to its optimum
from below, as a rule in fewer pivots than the row LP, which for a row that
is not dominated starts at its optimum, 0 (row k against itself), and
spends all its pivots proving it.

The row LP, find_dominator's LP on the round's payoff slice, runs only
where the column LP gives no answer: in 'pure' mode, where the products
round too coarsely, where the column LP raises LpError, where its y misses
row k and its margin is at most STRICT_TOL, or where its dominator fails
the re-check. The two LPs reach one optimum by different pivots, so margins
are find_dominator's up to rounding and dominators may differ in the last
bits; rounds and removals are find_dominator's unless a margin lies within
rounding of STRICT_TOL. When both seats read the same matrix (a single
population, or an opponent game with byte-equal payoffs), the two seats'
strategy sets stay equal and their queries coincide, so one side's removals
are recorded for both, and one pool of certificates serves both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import Game, MixedStrategy, as_strategy, pure
from .lp import LpError, solve_max

STRICT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DominanceResult:
    """Outcome of a single dominance query.

    margin is the optimal worst-column payoff advantage; dominated means
    margin > STRICT_TOL. degenerate flags a margin indistinguishable from
    zero at that tolerance.
    """

    dominated: bool
    margin: float
    dominator: MixedStrategy | None
    degenerate: bool


@dataclass(frozen=True)
class EliminationTrace:
    """Rounds of iterated elimination.

    rounds[0] holds the initial strategy sets; each later entry is the pair
    of surviving (row, column) index tuples after one simultaneous round.
    removals records (round, side, index, certificate) for every deletion.
    """

    mode: str
    rounds: tuple
    removals: tuple

    @property
    def surviving_rows(self) -> tuple:
        return self.rounds[-1][0]

    @property
    def surviving_cols(self) -> tuple:
        return self.rounds[-1][1]


def _checked_sets(game: Game, restrict_rows, restrict_cols):
    rows = tuple(range(game.n_rows)) if restrict_rows is None else tuple(restrict_rows)
    cols = tuple(range(game.n_cols)) if restrict_cols is None else tuple(restrict_cols)
    if not rows or not cols:
        raise ValueError("restriction sets must be nonempty")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("restriction sets must not repeat indices")
    if min(rows) < 0 or max(rows) >= game.n_rows:
        raise ValueError("row restriction out of range")
    if min(cols) < 0 or max(cols) >= game.n_cols:
        raise ValueError("column restriction out of range")
    return rows, cols


def strict_margin(game: Game, p, q, restrict_cols=None) -> float:
    """Worst-case payoff advantage of p over q across the given opponent columns."""
    ps = as_strategy(p)
    qs = as_strategy(q)
    if len(ps) != game.n_rows or len(qs) != game.n_rows:
        raise ValueError("p and q must mix over the game's rows")
    _, cols = _checked_sets(game, None, restrict_cols)
    diff = (ps.weights - qs.weights) @ game.payoff
    return float(diff[list(cols)].min())


def find_dominator(game: Game, q, restrict_rows=None, restrict_cols=None,
                   mode: str = "mixed") -> DominanceResult:
    """Best strict dominator of q, by LP over mixtures or brute force over pures.

    The dominator's support is confined to restrict_rows and margins are
    measured against restrict_cols only.
    """
    qs = as_strategy(q)
    if len(qs) != game.n_rows:
        raise ValueError("q must mix over the game's rows")
    rows, cols = _checked_sets(game, restrict_rows, restrict_cols)
    # gaps[k, j]: what row k earns over q at column j
    gaps = game.payoff[np.ix_(rows, cols)] - (qs.weights @ game.payoff)[list(cols)]
    margin, p, _ = _max_margin(gaps, mode)
    return _result(game, qs, margin, rows, p, cols)


def _max_margin(gaps: np.ndarray, mode: str):
    """Best worst-column margin min_j (p @ gaps)[j] over mixtures p of gaps'
    rows ('mixed') or over single rows ('pure').

    Returns (margin, p, y); p holds the weights over gaps' rows, clipped at
    0 but not renormalised. y, None in 'pure' mode, is the LP's column
    duals clipped at 0: a column mixture (up to scale and rounding) under
    which no row of gaps earns more than the margin, a certificate for the
    screen of iterated elimination (module docstring).
    """
    # row minima are the pure margins, and r is the best pure row (first of ties)
    pure_margins = gaps.min(axis=1)
    r = int(np.argmax(pure_margins))
    best = float(pure_margins[r])
    nr, nc = gaps.shape

    if mode == "pure":
        p = np.zeros(nr)
        p[r] = 1.0
        return best, p, None

    if mode != "mixed":
        raise ValueError(f"unknown dominance mode {mode!r}")

    # variables: p_k for each row, eps' = margin - best, one slack per
    # column. e_r reaches best, so eps' >= 0. Eliminating p_r through
    # sum p = 1, column j's row reads
    #   s_j + eps' + sum_k (gaps[r, j] - gaps[k, j]) p_k = gaps[r, j] - best,
    # whose rhs is >= 0 and whose p_r coefficient is 0 exactly; the last row
    # is sum p = 1. The slacks and p_r are then an identity basis at e_r.
    A_eq = np.zeros((nc + 1, nr + 1 + nc))
    A_eq[:nc, :nr] = (gaps[r] - gaps).T
    A_eq[:nc, nr] = 1.0
    A_eq[:nc, nr + 1:] = np.eye(nc)
    A_eq[nc, :nr] = 1.0
    b_eq = np.append(gaps[r] - best, 1.0)
    c = np.zeros(nr + 1 + nc)
    c[nr] = 1.0

    x, value, pi = solve_max(c, A_eq, b_eq, np.append(np.arange(nr + 1, nr + 1 + nc), r))
    # clip solver dust
    return best + value, np.maximum(x[:nr], 0.0), np.maximum(pi[:nc], 0.0)


def _result(game: Game, qs: MixedStrategy, margin: float, rows, p: np.ndarray,
            cols) -> DominanceResult:
    """The query's answer; a dominator, spread from rows onto all of the
    game's rows, is re-checked against the payoffs before it is returned."""
    degenerate = bool(abs(margin) <= STRICT_TOL)
    dominated = bool(margin > STRICT_TOL)
    dominator = None
    if dominated:
        w = np.zeros(game.n_rows)
        w[list(rows)] = p
        w /= w.sum()  # summed over all rows: a sum over rows alone can move the last ulp
        dominator = as_strategy(w)
        realized = strict_margin(game, dominator, qs, cols)
        if abs(realized - margin) > STRICT_TOL:
            raise LpError(
                f"dominance certificate mismatch: LP margin {margin!r}, realized {realized!r}")
    return DominanceResult(dominated, float(margin), dominator, degenerate)


def _one_side_removals(game: Game, alive_rows, alive_cols, mode: str, pool: list):
    """Strategies in alive_rows strictly dominated within the current restriction.

    Each query asks find_dominator's question of the pure strategy, on one
    payoff slice per call: row k's gaps are sub - sub[k]. A column LP answers
    it either way, and a row LP only where the column LP gives no answer
    (module docstring). pool holds column certificates over all of game's
    columns; those on alive columns screen the queries, and each column LP
    appends its y, each "not dominated" row LP its column duals.
    """
    sub = game.payoff[np.ix_(alive_rows, alive_cols)]
    cols = list(alive_cols)
    dead = np.ones(game.n_cols, dtype=bool)
    dead[cols] = False
    pool[:] = [y for y in pool if not y[dead].any()]  # columns never come back
    delta = 2 * (len(cols) + 1) * _EPS * float(np.abs(sub).max())
    certify = 2 * delta <= STRICT_TOL / 10
    # the alive pure columns first, then the pooled certificates; where the
    # products round too coarsely, the pure columns alone, compared exactly
    ys = np.eye(len(cols))
    if certify:
        ys = np.vstack([ys] + [y[cols] for y in pool])
    else:
        delta = 0.0
    skip = _answered(sub, ys.T, delta).any(axis=1)
    removed = []
    for k in range(len(alive_rows)):
        if skip[k]:
            continue
        # + 0.0 turns -0.0 into 0.0, as the product q @ payoff does
        gaps = sub - (sub[k] + 0.0)
        i = alive_rows[k]
        if certify and mode == "mixed":
            # the column LP: its best column mixture y answers the rows its
            # product leaves within delta of a best reply; if row k is not
            # one, its optimum and duals are row k's margin and dominator
            try:
                neg, y, p = _max_margin(-gaps.T, mode)
                pool.append(_spread(y, cols, game.n_cols))
                skip |= _answered(sub, y, delta)
                if skip[k]:
                    continue
                if -neg > STRICT_TOL:
                    removed.append((i, _result(game, pure(i, game.n_rows), -neg, alive_rows,
                                               p, alive_cols)))
                    continue
            except LpError:  # the row LP below answers alone
                pass
        margin, p, y = _max_margin(gaps, mode)
        if margin > STRICT_TOL:
            removed.append((i, _result(game, pure(i, game.n_rows), margin, alive_rows, p,
                                       alive_cols)))
        elif y is not None:
            pool.append(_spread(y, cols, game.n_cols))
            if certify:
                skip |= _answered(sub, y, delta)
    return removed


def _answered(sub: np.ndarray, ys: np.ndarray, delta: float) -> np.ndarray:
    """Rows of sub that a column mixture ys (or each column of ys) leaves
    within delta ys.sum() of a best reply (module docstring)."""
    v = sub @ ys
    return v >= v.max(axis=0) - delta * ys.sum(axis=0)


def _spread(y: np.ndarray, cols: list, n: int) -> np.ndarray:
    full = np.zeros(n)
    full[cols] = y
    return full


def iterate_elimination(game: Game, mode: str = "pure-by-mixed",
                        opponent_game: Game | None = None) -> EliminationTrace:
    """Iterated strict elimination of pure strategies for both players.

    Each round simultaneously removes, on both sides, every pure strategy
    strictly dominated within the current restriction; dominators are pure
    ('pure-by-pure') or mixtures over the surviving set ('pure-by-mixed').
    With no opponent_game the same matrix is read from the opponent's seat
    (their rows are this game's columns), which requires a square game.
    Then, or when opponent_game's payoffs are byte-equal to game's, each
    round is solved for the rows and mirrored to the columns.
    """
    if mode not in ("pure-by-pure", "pure-by-mixed"):
        raise ValueError(f"unknown elimination mode {mode!r}")
    if opponent_game is None:
        if game.n_rows != game.n_cols:
            raise ValueError("a non-square game needs an explicit opponent_game")
        opponent_game = game
    if opponent_game.n_rows != game.n_cols or opponent_game.n_cols != game.n_rows:
        raise ValueError("opponent_game must be shaped (game columns) x (game rows)")
    dom_mode = "pure" if mode == "pure-by-pure" else "mixed"

    # one population, or an opponent with the same payoffs: both seats start
    # from range(n) and ask the same queries every round
    mirror = (opponent_game.payoff.shape == game.payoff.shape
              and opponent_game.payoff.tobytes() == game.payoff.tobytes())
    rows = tuple(range(game.n_rows))
    cols = tuple(range(game.n_cols))
    rounds = [(rows, cols)]
    removals = []
    row_pool, col_pool = [], []  # each seat's certificates (_one_side_removals)
    while True:
        gone_rows = _one_side_removals(game, rows, cols, dom_mode, row_pool)
        gone_cols = (gone_rows if mirror
                     else _one_side_removals(opponent_game, cols, rows, dom_mode, col_pool))
        if not gone_rows and not gone_cols:
            break
        k = len(rounds)
        for i, res in gone_rows:
            removals.append((k, "row", i, res))
        for j, res in gone_cols:
            removals.append((k, "col", j, res))
        rows = tuple(i for i in rows if i not in {i for i, _ in gone_rows})
        cols = tuple(j for j in cols if j not in {j for j, _ in gone_cols})
        if not rows or not cols:
            # strict dominance can never empty a finite game
            raise LpError("elimination emptied a strategy set; payoffs are ill-conditioned")
        rounds.append((rows, cols))
    return EliminationTrace(mode, tuple(rounds), tuple(removals))


def is_mixed_iteratively_dominated(game: Game, opponent_game: Game | None, q,
                                   dominators: str = "mixed") -> DominanceResult:
    """Is mixture q strictly dominated after iterated elimination of pures?

    Runs pure-strategy elimination to its fixed point (pass opponent_game
    None for the single-population reading of a square game), then asks for
    a dominator of q whose support lies in the surviving rows, measured
    against the surviving columns. dominators='pure' downgrades both stages
    to pure-strategy dominance; any other value is a ValueError.
    """
    if dominators not in ("mixed", "pure"):
        raise ValueError(f"unknown dominators {dominators!r}")
    trace = iterate_elimination(game, mode=f"pure-by-{dominators}", opponent_game=opponent_game)
    return find_dominator(game, q, trace.surviving_rows, trace.surviving_cols, mode=dominators)

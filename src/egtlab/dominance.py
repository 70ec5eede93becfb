"""Strict dominance tests and iterated elimination.

Every query is one linear program, read from the opponent's side. Mixture
q's gaps are what each allowed row earns over q at each allowed column, and
its margin is the best worst-column gap of a mixture p of the rows,
max_p min_j (p @ gaps)[j]. By Pearce's lemma q is not strictly dominated iff
it is a best reply to some column mixture y, and the column LP finds the
best y: it maximizes min_k -(gaps @ y)[k], and by LP duality its optimum is
minus q's margin. Its constraint duals are a p that attains the margin,
and y proves that no p does better, so one LP gives a certificate for
either verdict. In 'pure' mode the best single row is read off the gaps,
with no LP and no y.

Strict dominance does not change when the payoffs are multiplied by a
positive number, and neither does any answer here. The LP reads the gaps
divided by the power of two above max|gaps|, which rounds nothing, and its
margin is multiplied back. A query's tolerance is relative too: tol is
STRICT_TOL times the power of two above the largest |payoff| the query
reads (the allowed payoff slice and q's payoff row), and q is dominated iff
its margin exceeds tol. So payoffs 2^k A give the verdicts and dominator
bytes of A, and its margins times 2^k, exactly. Both certificates are
re-checked against the payoffs before an answer is returned: a dominator,
validated once as a mixture, must realize its margin within tol, by the
arithmetic of strict_margin on the full payoff rows; and under the y of a
"not dominated" answer no row may beat q by more than tol. A failed check
raises LpError.

Iterated elimination screens each query before solving it, with column
certificates. For any column mixture y >= 0 over the alive columns, with
v = sub @ y over the alive payoff slice sub, every mixture p of alive rows
has p @ (sub - sub[k]) @ y <= max(v) - v[k], so row k's margin is at most
(max(v) - v[k]) / sum(y). A row k with v[k] >= max(v) - delta sum(y) is
skipped; delta = 2 (n + 1) eps max|sub| over n alive columns covers the
rounding of both products, so a skipped row's margin is at most
4 (n + 1) eps max|sub|. As tol exceeds STRICT_TOL max|sub|, that is below
tol / 10 for every n below about 1e5, at every payoff scale. The
certificates are the alive pure columns (a weak best reply to column j is
never dominated) and the y of earlier LPs, in this round or an earlier one,
while their support stays alive; each is checked by its own product, so a
dusty one can only cost a skip. Each query the screen leaves runs the LP of
find_dominator on the same gaps, sub - sub[k]; its y joins the pool and
answers every row whose product passes the screen's test, which settles
row k's query if row k is one. Otherwise the LP's answer goes through the
re-check above. So the screen skips only queries that would answer "not
dominated", and rounds, removals, margins and dominators are those of
querying every alive strategy with find_dominator, to the bit.

When both seats read the same matrix (a single population, or an opponent
game with byte-equal payoffs), the two seats' strategy sets stay equal and
their queries coincide, so one side's removals are recorded for both, and
one pool of certificates serves both.
"""

from __future__ import annotations

import math
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
    margin > tol, STRICT_TOL times the power of two above the largest
    |payoff| the query reads (module docstring). degenerate flags a margin
    indistinguishable from zero at that tolerance.
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


def strict_margin(game: Game, p, q) -> float:
    """Worst-case payoff advantage of p over q across the opponent's columns."""
    ps = as_strategy(p)
    qs = as_strategy(q)
    if len(ps) != game.n_rows or len(qs) != game.n_rows:
        raise ValueError("p and q must mix over the game's rows")
    return float(((ps.weights - qs.weights) @ game.payoff).min())


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
    sub = game.payoff[np.ix_(rows, cols)]
    q_row = (qs.weights @ game.payoff)[list(cols)]
    tol = _tol(max(float(np.abs(sub).max()), float(np.abs(q_row).max())))
    # gaps[k, j]: what row k earns over q at column j
    gaps = sub - q_row
    return _result(game, qs, rows, cols, gaps, tol, *_max_margin(gaps, mode))


def _tol(payoff_max: float) -> float:
    """STRICT_TOL times the power of two above payoff_max, the largest
    |payoff| a query reads."""
    return math.ldexp(STRICT_TOL, math.frexp(payoff_max)[1])


def _max_margin(gaps: np.ndarray, mode: str):
    """Best worst-column margin min_j (p @ gaps)[j] over mixtures p of gaps'
    rows ('mixed') or over single rows ('pure').

    Returns (margin, p, y). In 'pure' mode p is the best single row (the
    first of ties) and y is None. In 'mixed' mode the column LP answers
    (module docstring): p is its constraint duals over gaps' rows, which
    attain the margin, and y its column mixture, under which no row of gaps
    earns more than the margin (both up to rounding); both are clipped at 0
    but not renormalised.
    """
    nr, nc = gaps.shape
    if mode == "pure":
        pure_margins = gaps.min(axis=1)
        r = int(np.argmax(pure_margins))
        p = np.zeros(nr)
        p[r] = 1.0
        return float(pure_margins[r]), p, None
    if mode != "mixed":
        raise ValueError(f"unknown dominance mode {mode!r}")

    # dividing by a power of two rounds nothing: 2^k gaps give this LP the
    # same numbers, and only the solver's absolute tolerances see the scale
    scale = math.ldexp(1.0, math.frexp(float(np.abs(gaps).max()))[1])
    g = gaps / scale
    # worst[j] is the most a row earns over q at column j, and c is the
    # pure column that leaves q least behind (first of ties)
    worst = g.max(axis=0)
    c = int(np.argmin(worst))
    # variables: y_j for each column, t = worst[c] - max_k (g @ y)[k], one
    # slack per row. e_c reaches t = 0, so t >= 0. Eliminating y_c through
    # sum y = 1, row k's constraint reads
    #   s_k + t + sum_j (g[k, j] - g[k, c]) y_j = worst[c] - g[k, c],
    # whose rhs is >= 0 and whose y_c coefficient is 0 exactly; the last row
    # is sum y = 1. The slacks and y_c are then an identity basis at e_c.
    A_eq = np.zeros((nr + 1, nc + 1 + nr))
    np.subtract(g, g[:, c:c + 1], out=A_eq[:nr, :nc])
    A_eq[:nr, nc] = A_eq[nr, :nc] = 1.0
    # the slacks' identity: entry (k, nc + 1 + k) sits at flat index
    # nc + 1 + k (nc + nr + 2) of the row-major A_eq, for k < nr
    A_eq.reshape(-1)[nc + 1::nc + nr + 2] = 1.0
    b_eq = np.ones(nr + 1)
    np.subtract(worst[c], g[:, c], out=b_eq[:nr])
    cost = np.zeros(nc + 1 + nr)
    cost[nc] = 1.0
    basis = np.arange(nc + 1, nc + 2 + nr)
    basis[nr] = c

    x, value, pi = solve_max(cost, A_eq, b_eq, basis)
    # clip solver dust
    return (float(worst[c]) - value) * scale, np.maximum(pi[:nr], 0.0), np.maximum(x[:nc], 0.0)


def _result(game: Game, qs: MixedStrategy, rows, cols, gaps: np.ndarray, tol: float,
            margin: float, p: np.ndarray, y: np.ndarray | None) -> DominanceResult:
    """The query's answer at tolerance tol, its certificate re-checked: a
    dominator, spread from rows onto all of the game's rows, must realize
    its margin (strict_margin's arithmetic, without its second validation),
    and under the y of a "not dominated" answer no row of gaps may beat q
    by more than tol. A failed check raises LpError."""
    dominated = bool(margin > tol)
    dominator = None
    if dominated:
        w = np.zeros(game.n_rows)
        w[list(rows)] = p
        w /= w.sum()  # summed over all rows: a sum over rows alone can move the last ulp
        dominator = as_strategy(w)
        realized = float(((dominator.weights - qs.weights) @ game.payoff)[list(cols)].min())
        if abs(realized - margin) > tol:
            raise LpError(
                f"dominance certificate mismatch: LP margin {margin!r}, realized {realized!r}")
    elif y is not None and (beat := float((gaps @ y).max() / y.sum())) > tol:
        raise LpError(
            f"best-reply certificate mismatch: LP margin {margin!r}, a row beats q by {beat!r}")
    return DominanceResult(dominated, float(margin), dominator, bool(abs(margin) <= tol))


def _one_side_removals(game: Game, alive_rows, alive_cols, mode: str, pool: list):
    """Strategies in alive_rows strictly dominated within the current restriction.

    Each query asks find_dominator's question of the pure strategy, on one
    payoff slice per call: row k's gaps are sub - sub[k]. pool holds column
    certificates over all of game's columns; those on alive columns screen
    the queries, and each LP appends its y (module docstring).
    """
    sub = game.payoff[np.ix_(alive_rows, alive_cols)]
    cols = list(alive_cols)
    dead = np.ones(game.n_cols, dtype=bool)
    dead[cols] = False
    pool[:] = [y for y in pool if not y[dead].any()]  # columns never come back
    payoff_max = float(np.abs(sub).max())
    tol, delta = _tol(payoff_max), 2 * (len(cols) + 1) * _EPS * payoff_max
    # the alive pure columns first, then the pooled certificates
    ys = np.vstack([np.eye(len(cols))] + [y[cols] for y in pool])
    skip = _answered(sub, ys.T, delta).any(axis=1)
    removed = []
    for k in range(len(alive_rows)):
        if skip[k]:
            continue
        # + 0.0 turns -0.0 into 0.0, as the product q @ payoff does
        gaps = sub - (sub[k] + 0.0)
        margin, p, y = _max_margin(gaps, mode)
        if y is not None:
            # y joins the pool over all of game's columns, and answers every
            # row its product leaves within delta of a best reply
            pool.append(np.zeros(game.n_cols))
            pool[-1][cols] = y
            skip |= _answered(sub, y, delta)
        if skip[k] or (y is None and margin <= tol):
            continue  # y answers row k, or 'pure' mode: not dominated, nothing to re-check
        i = alive_rows[k]
        res = _result(game, pure(i, game.n_rows), alive_rows, alive_cols, gaps, tol, margin, p, y)
        if res.dominated:
            removed.append((i, res))
    return removed


def _answered(sub: np.ndarray, ys: np.ndarray, delta: float) -> np.ndarray:
    """Rows of sub that a column mixture ys (or each column of ys) leaves
    within delta ys.sum() of a best reply (module docstring)."""
    v = sub @ ys
    return v >= v.max(axis=0) - delta * ys.sum(axis=0)


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


def is_mixed_iteratively_dominated(game: Game, opponent_game: Game | None,
                                   q) -> DominanceResult:
    """Is mixture q strictly dominated after iterated elimination of pures?

    Runs pure-by-mixed elimination to its fixed point (pass opponent_game
    None for the single-population reading of a square game), then asks for
    a mixed dominator of q whose support lies in the surviving rows,
    measured against the surviving columns. With pure dominators at both
    stages the query is iterate_elimination(..., "pure-by-pure") followed by
    find_dominator(..., mode="pure") on its survivors.
    """
    trace = iterate_elimination(game, opponent_game=opponent_game)
    return find_dominator(game, q, trace.surviving_rows, trace.surviving_cols)

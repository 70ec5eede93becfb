"""Dense one-phase simplex solver, started from a basis the caller supplies.

Sized for the dominance LPs (up to a few dozen rows and columns), so there is
no sparsity, no presolve, and no scaling: just a dense tableau with Bland's
anti-cycling pivot rule, which makes termination a theorem rather than a
hope. The dominance caller scales instead: it divides its payoff gaps by the
power of two above their largest magnitude, which rounds nothing, so the
absolute tolerances below see entries below 1 at every payoff scale. The
caller states the LP in canonical form, with a basic feasible start whose
columns are the identity, so no phase 1 searches for one. Each
pivot is one vectorised rank-1 update of the tableau, and the answer is
checked against the original constraints before it is returned, so a
tableau corrupted by rounding raises LpError instead of passing as an
optimum. Of the two checks only one scales: A @ x may miss b by FEAS_TOL
times max(1, max|b|), while an entry of x may fall below 0 by FEAS_TOL and
no more, whatever the scale of b. Both fail on nan, and an objective value
that is not finite is refused too, so a nan in the LP cannot pass as an
optimum: a nan reduced cost never enters, but the answer it leaves fails.

The constraint duals come off the final reduced-cost row for free. That
row holds c - pi A, where pi = c_B B^-1 are the duals of the final basis B,
and the start basis's columns of A are the identity, so at those columns
it reads c[basis0] - pi: pi = c[basis0] - T[-1, basis0]. At the optimum,
c - pi A <= PIVOT_TOL (dual feasibility) and pi @ b equals the optimal
value up to rounding (strong duality).

The dominance LPs are small, so NumPy's fixed cost per call, not the
arithmetic, sets their time, and the solver keeps calls few. solve_max
reads its arguments without copying them, checks the start from the m
columns it names and fills the tableau once. Per pivot, the entering column
is the argmax of a mask over a view of the reduced costs, the ratio test
reads that column once and returns as soon as one row is left, and the
update divides the pivot row through a view and broadcasts one column
against it in place. Its arithmetic is that of a plain loop
(tests/oracles.py), to the bit.
"""

from __future__ import annotations

import math

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8
MAXITER = 20000


class LpError(RuntimeError):
    """The solver could not certify an optimum (iteration cap, unbounded, residual)."""


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    r = T[row]
    r /= r[col]  # through a view: T[row] /= ... would write the row back
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * r
    basis[row] = col


def _bland_iterate(T: np.ndarray, basis: np.ndarray) -> None:
    """Run simplex iterations on tableau T until no reduced cost is positive.

    Layout: T[:-1, :-1] constraint coefficients, T[:-1, -1] rhs,
    T[-1, :-1] reduced costs of a maximization objective.
    """
    for _ in range(MAXITER):
        entering = T[-1, :-1] > PIVOT_TOL
        col = int(entering.argmax())  # the first positive reduced cost, if any
        if not entering[col]:
            return
        row = _ratio_row(T, basis, col)
        if row < 0:
            raise LpError("objective unbounded above")
        _pivot(T, basis, row, col)
    if (T[-1, :-1] > PIVOT_TOL).any():  # the last pivot may have reached the optimum
        raise LpError(f"simplex did not terminate in {MAXITER} iterations")


def _ratio_row(T: np.ndarray, basis: np.ndarray, col: int) -> int:
    """Min-ratio pivot row of col, ties within 1e-12 broken by smallest basis
    variable (Bland); -1 when no entry of the column is positive."""
    rows = ((a := T[:-1, col]) > PIVOT_TOL).nonzero()[0]  # a: the column, read once
    if rows.size <= 1:
        return int(rows[0]) if rows.size else -1
    ratios = T[:-1, -1][rows] / a[rows]
    # ratios[argmin] is ratios.min(), without min()'s Python wrapper
    ties = rows[ratios <= ratios[ratios.argmin()] + 1e-12]
    return int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])


def solve_max(c, A, b, basis):
    """Maximize c @ x subject to A @ x == b and x >= 0, from a basic start.

    basis[r] names the variable basic in row r: each entry must index a
    column of A, A[:, basis] must be the identity and b >= 0, so x[basis] = b
    is feasible; otherwise ValueError. With no rows, x = 0 is the start;
    with no variables, the empty x is the optimum, of value 0.0. Returns
    (x, value, pi), pi the constraint duals read off the final reduced
    costs (module docstring). Raises LpError when unbounded, when the
    solution misses A @ x == b by more than FEAS_TOL max(1, max|b|), when
    an entry of x is below -FEAS_TOL, a bound that does not scale, or when
    the objective value is not finite; a nan anywhere in the answer fails
    these checks.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    basis = np.array(basis, dtype=np.intp)  # a copy: the pivots rewrite it
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,) or basis.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    # range first, so that A[:, basis] reads no column from the end; then
    # m nonzero entries, m of them ones on the diagonal, are the identity
    if (not ((0 <= basis) & (basis < n)).all() or np.count_nonzero(S := A[:, basis]) != m
            or not (S.diagonal() == 1.0).all() or (b < 0).any()):
        raise ValueError("the start is not a canonical feasible basis: basis indices must "
                         "lie in [0, n), A[:, basis] must be the identity and b >= 0")

    if n == 0:  # no variables: the empty optimum
        return np.zeros(0), 0.0, np.zeros(0)

    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[-1, :n] = c - c[basis] @ A
    basis0 = basis.copy()
    _bland_iterate(T, basis)

    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    # initial=0.0: the maxima over an LP with no rows; both arrays are >= 0
    residual = float(np.abs(A @ x - b).max(initial=0.0))
    tol = FEAS_TOL * max(1.0, abs(b).max(initial=0.0))
    # written to fail on nan, which compares false both ways
    if not residual <= tol or not x.min() >= -FEAS_TOL:
        raise LpError(f"solution residual {residual:.3g} exceeds {tol:.3g} "
                      f"(smallest entry {x.min():.3g})")
    if not math.isfinite(value := float(c @ x)):
        raise LpError(f"objective value {value} is not finite")
    return x, value, c[basis0] - T[-1, basis0]

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
optimum.

The constraint duals come off the final reduced-cost row for free. That
row holds c - pi A, where pi = c_B B^-1 are the duals of the final basis B,
and the start basis's columns of A are the identity, so at those columns
it reads c[basis0] - pi: pi = c[basis0] - T[-1, basis0]. At the optimum,
c - pi A <= PIVOT_TOL (dual feasibility) and pi @ b equals the optimal
value up to rounding (strong duality).

The pivot loop is the hot path of iterated elimination, so it keeps NumPy
calls per pivot few: the entering column is the argmax of a mask, and the
update broadcasts one column against one row in place. Its arithmetic is
that of a plain loop (tests/oracles.py), to the bit.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8
MAXITER = 20000


class LpError(RuntimeError):
    """The solver could not certify an optimum (iteration cap, unbounded, residual)."""


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * T[row]
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
    rows = (T[:-1, col] > PIVOT_TOL).nonzero()[0]
    if rows.size == 0:
        return -1
    ratios = T[rows, -1] / T[rows, col]
    ties = rows[ratios <= ratios.min() + 1e-12]
    return int(ties[basis[ties].argmin()])


def solve_max(c, A, b, basis):
    """Maximize c @ x subject to A @ x == b and x >= 0, from a basic start.

    basis[r] names the variable basic in row r: A[:, basis] must be the
    identity and b >= 0, so x[basis] = b is feasible; otherwise ValueError.
    Returns (x, value, pi), pi the constraint duals read off the final
    reduced costs (module docstring). Raises LpError when unbounded, or when
    the solution misses A @ x == b or x >= 0 by more than FEAS_TOL (scaled
    by max|b|).
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    basis = np.array(basis, dtype=np.intp)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,) or basis.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if not np.array_equal(A[:, basis], np.eye(m)) or (b < 0).any():
        raise ValueError("the start is not a canonical feasible basis: "
                         "A[:, basis] must be the identity and b >= 0")

    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[-1, :n] = c - c[basis] @ A
    basis0 = basis.copy()
    _bland_iterate(T, basis)

    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    residual = float(np.abs(A @ x - b).max())
    tol = FEAS_TOL * max(1.0, abs(b).max())
    if residual > tol or x.min() < -FEAS_TOL:
        raise LpError(f"solution residual {residual:.3g} exceeds {tol:.3g} "
                      f"(smallest entry {x.min():.3g})")
    return x, float(c @ x), c[basis0] - T[-1, basis0]

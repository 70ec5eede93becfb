"""Dense two-phase simplex solver.

Sized for the dominance LPs (up to a few dozen rows and columns), so there is
no sparsity, no presolve, and no scaling: just a dense tableau with Bland's
anti-cycling pivot rule, which makes termination a theorem rather than a
hope. Each pivot is one vectorised rank-1 update of the tableau, and the
answer is checked against the original constraints before it is returned,
so a tableau corrupted by rounding raises LpError instead of passing as an
optimum.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8


class LpError(RuntimeError):
    """The solver could not certify an optimum (cycling cap, unbounded, infeasible)."""


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])
    basis[row] = col


def _bland_iterate(T: np.ndarray, basis: np.ndarray, ncols: int, maxiter: int,
                   bounded: bool = False) -> None:
    """Run simplex iterations on tableau T until no reduced cost is positive.

    Layout: T[:-1, :ncols] constraint coefficients, T[:-1, -1] rhs,
    T[-1, :ncols] reduced costs of a maximization objective.

    bounded says the objective is known to be bounded above (phase 1, whose
    objective never exceeds 0): a column with a positive reduced cost but no
    positive entry is then rounding dust and is passed over instead of being
    reported as unbounded.
    """
    for _ in range(maxiter):
        for col in np.flatnonzero(T[-1, :ncols] > PIVOT_TOL):
            row = _ratio_row(T, basis, col)
            if row >= 0:
                _pivot(T, basis, row, col)
                break
            if not bounded:
                raise LpError("objective unbounded above")
        else:
            return
    raise LpError(f"simplex did not terminate in {maxiter} iterations")


def _ratio_row(T: np.ndarray, basis: np.ndarray, col: int) -> int:
    """Min-ratio pivot row of col, ties within 1e-12 broken by smallest basis
    variable (Bland); -1 when no entry of the column is positive."""
    rows = np.flatnonzero(T[:-1, col] > PIVOT_TOL)
    if rows.size == 0:
        return -1
    ratios = T[rows, -1] / T[rows, col]
    ties = rows[ratios <= ratios.min() + 1e-12]
    return int(ties[np.argmin(basis[ties])])


def solve_max(c, A, b, maxiter: int = 20000):
    """Maximize c @ x subject to A @ x == b and x >= 0.

    Returns (x, value). Raises LpError when infeasible or unbounded, or when
    the solution misses A @ x == b or x >= 0 by more than FEAS_TOL (scaled
    by max|b|).
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")

    # negating a row is exact, so the residual check below needs no copy
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    tol = FEAS_TOL * max(1.0, abs(b).max())

    # phase 1: minimize the sum of artificial variables
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(n, n + m)
    # reduced costs for maximizing -sum(artificials): add up constraint rows
    T[-1, :n] = A.sum(axis=0)
    T[-1, -1] = b.sum()
    _bland_iterate(T, basis, n, maxiter, bounded=True)
    if T[-1, -1] > tol:
        raise LpError("infeasible constraints")

    # drive leftover artificials out of the basis (or drop redundant rows)
    keep = []
    for r in range(m):
        if basis[r] >= n:
            cols = np.flatnonzero(np.abs(T[r, :n]) > PIVOT_TOL)
            if cols.size == 0:
                continue  # redundant row, dropped below
            _pivot(T, basis, r, cols[0])
        keep.append(r)

    # phase 2 on the original columns
    T2 = np.zeros((len(keep) + 1, n + 1))
    T2[:-1, :n] = T[keep, :n]
    T2[:-1, -1] = T[keep, -1]
    basis = basis[keep]
    T2[-1, :n] = c
    for r, bv in enumerate(basis):
        T2[-1] -= T2[-1, bv] * T2[r]
    _bland_iterate(T2, basis, n, maxiter)

    x = np.zeros(n)
    x[basis] = T2[:-1, -1]
    residual = float(np.abs(A @ x - b).max())
    if residual > tol or x.min() < -FEAS_TOL:
        raise LpError(f"solution residual {residual:.3g} exceeds {tol:.3g} "
                      f"(smallest entry {x.min():.3g})")
    return x, float(c @ x)

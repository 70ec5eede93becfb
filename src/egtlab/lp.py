"""Dense two-phase simplex solver.

Sized for the tiny linear programs the dominance tests generate (a handful of
variables and rows), so there is no sparsity, no presolve, and no scaling:
just a dense tableau with Bland's anti-cycling pivot rule, which makes
termination a theorem rather than a hope.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8


class LpError(RuntimeError):
    """The solver could not certify an optimum (cycling cap, unbounded, infeasible)."""


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
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
    m = T.shape[0] - 1
    for _ in range(maxiter):
        for col in range(ncols):
            if T[-1, col] > PIVOT_TOL:
                row = _ratio_row(T, basis, col, m)
                if row >= 0:
                    _pivot(T, basis, row, col)
                    break
                if not bounded:
                    raise LpError("objective unbounded above")
        else:
            return
    raise LpError(f"simplex did not terminate in {maxiter} iterations")


def _ratio_row(T: np.ndarray, basis: np.ndarray, col: int, m: int) -> int:
    """Min-ratio pivot row of col, ties broken by smallest basis variable
    (Bland); -1 when no entry of the column is positive."""
    row, best = -1, np.inf
    for r in range(m):
        a = T[r, col]
        if a > PIVOT_TOL:
            ratio = T[r, -1] / a
            if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12 and (row < 0 or basis[r] < basis[row])):
                row, best = r, ratio
    return row


def solve_max(c, A, b, maxiter: int = 20000):
    """Maximize c @ x subject to A @ x == b and x >= 0.

    Returns (x, value). Raises LpError when infeasible or unbounded.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

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
    if T[-1, -1] > FEAS_TOL * max(1.0, abs(b).max()):
        raise LpError("infeasible constraints")

    # drive leftover artificials out of the basis (or drop redundant rows)
    keep = []
    for r in range(m):
        if basis[r] >= n:
            col = -1
            for j in range(n):
                if abs(T[r, j]) > PIVOT_TOL:
                    col = j
                    break
            if col >= 0:
                _pivot(T, basis, r, col)
                keep.append(r)
            # else: redundant row, dropped below
        else:
            keep.append(r)
    keep = np.array(keep, dtype=int)

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
    for r, bv in enumerate(basis):
        x[bv] = T2[r, -1]
    return x, float(c @ x)

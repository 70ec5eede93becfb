"""Brute-force reference computations, a plain simplex loop and seeded test
games, kept free of the package's LP code."""

import itertools

import numpy as np


def mixture_grid(n_strategies: int, max_denominator: int) -> np.ndarray:
    """All rational points of the simplex with denominator <= max_denominator."""
    rows = set()
    for d in range(1, max_denominator + 1):
        for cut in itertools.combinations(range(d + n_strategies - 1),
                                          n_strategies - 1):
            parts = np.diff((-1,) + cut + (d + n_strategies - 1,)) - 1
            rows.add(tuple(int(k) / d for k in parts))
    return np.array(sorted(rows), dtype=float)


def grid_margin(payoff: np.ndarray, q, grid: np.ndarray) -> float:
    """Best worst-column payoff gap over grid mixtures p against q."""
    gaps = grid @ payoff - np.asarray(q, dtype=float) @ payoff
    return float(np.max(np.min(gaps, axis=1)))


def planted_game(rng, n: int, depth: int):
    """Uniform random n x n payoffs with a chain of `depth` strategies that
    iterated elimination (same matrix for both seats) removes one per round.

    Chain strategy k sits 0.05-0.15 below the half-half mixture of two fixed
    rows everywhere except at chain strategy k-1's column, where it earns 2,
    out of reach of every other row. Returns (payoffs, chain).
    """
    payoff = rng.uniform(0.0, 1.0, size=(n, n))
    picks = rng.permutation(n)
    chain, mix = [int(i) for i in picks[:depth]], picks[depth:depth + 2]
    for k, s in enumerate(chain):
        payoff[s] = 0.5 * (payoff[mix[0]] + payoff[mix[1]]) - rng.uniform(0.05, 0.15)
        if k:
            payoff[s, chain[k - 1]] = 2.0
    return payoff, chain


def bland_iterate(T, basis, maxiter: int, pivot_tol: float, pivots: list) -> None:
    """Plain reference for the simplex loop of egtlab.lp: Bland's rule on
    tableau T (constraint rows, then the reduced-cost row; rhs last), in
    place. Appends each pivot's (row, col) to pivots; raises RuntimeError
    when unbounded or after maxiter pivots."""
    for _ in range(maxiter):
        cols = np.flatnonzero(T[-1, :-1] > pivot_tol)
        if cols.size == 0:
            return
        row = _ratio_row(T, basis, cols[0], pivot_tol)
        if row < 0:
            raise RuntimeError("objective unbounded above")
        _pivot(T, basis, row, cols[0])
        pivots.append((row, int(cols[0])))
    raise RuntimeError(f"simplex did not terminate in {maxiter} iterations")


def _ratio_row(T, basis, col, pivot_tol):
    rows = np.flatnonzero(T[:-1, col] > pivot_tol)
    if rows.size == 0:
        return -1
    ratios = T[rows, -1] / T[rows, col]
    ties = rows[ratios <= ratios.min() + 1e-12]
    return int(ties[np.argmin(basis[ties])])


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])
    basis[row] = col

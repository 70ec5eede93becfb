"""Brute-force reference computations and seeded test games, kept free of the
package's LP code."""

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

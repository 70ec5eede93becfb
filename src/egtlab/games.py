"""Finite two-player games and simplex-valued mixed strategies.

Payoff matrices are plain float arrays: rows are the focal player's pure
strategies, columns the opponent's. Everything downstream (dominance tests,
selection dynamics) consumes these two value types. A game's JSON form is
{"payoff": rows, "row_labels": ..., "col_labels": ...}, the labels optional;
the command line reads game files through load_game.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIMPLEX_TOL = 1e-12


class SimplexError(ValueError):
    """A vector failed simplex validation."""


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability vector over one player's pure strategies.

    Construct through :func:`validate_simplex`; the constructor itself only
    freezes the array. Weights are nonnegative and sum to one within
    ``SIMPLEX_TOL``. len() and indexing are what NumPy converts it through,
    as validate_simplex does when it is handed one.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.weights.shape[0])

    def __getitem__(self, i: int) -> float:
        return float(self.weights[i])

    def __repr__(self) -> str:
        return f"MixedStrategy({self.weights.tolist()})"


def validate_simplex(values, what: str = "strategy") -> MixedStrategy:
    """Check nonnegativity and unit sum, and wrap as a MixedStrategy.

    Negative entries are rejected outright, however small; SIMPLEX_TOL
    applies only to the deviation of the sum from one.
    """
    w = np.asarray(values, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise SimplexError(f"{what} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise SimplexError(f"{what} has non-finite entries")
    neg = np.flatnonzero(w < 0.0)
    if neg.size:
        raise SimplexError(
            f"{what} has negative weight at index {int(neg[0])}: {float(w[neg[0]])!r}")
    gap = abs(float(w.sum()) - 1.0)
    if gap > SIMPLEX_TOL:
        raise SimplexError(
            f"{what} weights sum to 1{float(w.sum()) - 1.0:+.3e}, tolerance {SIMPLEX_TOL:g}")
    return MixedStrategy(w)


def as_strategy(values) -> MixedStrategy:
    """Coerce an array-like (or pass through a MixedStrategy) with validation."""
    if isinstance(values, MixedStrategy):
        return values
    return validate_simplex(values)


def pure(i: int, n: int) -> MixedStrategy:
    """The i-th vertex of the n-simplex (0-based)."""
    if not 0 <= i < n:
        raise SimplexError(f"pure strategy index {i} out of range for {n} strategies")
    w = np.zeros(n)
    w[i] = 1.0
    return MixedStrategy(w)


def uniform(n: int) -> MixedStrategy:
    return MixedStrategy(np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class Game:
    """Immutable payoff matrix with optional strategy labels."""

    payoff: np.ndarray
    row_labels: tuple | None = None
    col_labels: tuple | None = None

    def __post_init__(self):
        a = np.array(self.payoff, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("payoff must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("payoff has non-finite entries")
        a.setflags(write=False)
        object.__setattr__(self, "payoff", a)
        for name in ("row_labels", "col_labels"):
            lab = getattr(self, name)
            if lab is not None:
                lab = tuple(str(s) for s in lab)
                n = a.shape[0] if name == "row_labels" else a.shape[1]
                if len(lab) != n:
                    raise ValueError(f"{name} has {len(lab)} entries for {n} strategies")
                object.__setattr__(self, name, lab)

    @property
    def n_rows(self) -> int:
        return int(self.payoff.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.payoff.shape[1])

    def digest(self) -> str:
        """Short content hash, used to tag trajectories with their game."""
        h = hashlib.sha256()
        h.update(str(self.payoff.shape).encode())
        h.update(np.ascontiguousarray(self.payoff).tobytes())
        return h.hexdigest()[:12]

    def __repr__(self) -> str:
        return f"Game({self.payoff.tolist()})"


def game_to_dict(game: Game) -> dict:
    d = {"payoff": game.payoff.tolist()}
    if game.row_labels is not None:
        d["row_labels"] = list(game.row_labels)
    if game.col_labels is not None:
        d["col_labels"] = list(game.col_labels)
    return d


def json_floats(value, what: str) -> np.ndarray:
    """value, a JSON number or nested lists of them, as a float array.

    NumPy would read a JSON boolean as 1.0 or 0.0 and a numeric string as its
    number, and raise OverflowError on an integer beyond the float range;
    each is refused here with a ValueError that names what.
    """
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, bool) or not isinstance(node, (int, float)):
            raise ValueError(f"{what} must hold only numbers, got {node!r}")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} holds an integer beyond the float range") from None


def game_from_dict(d: dict) -> Game:
    if not isinstance(d, dict) or "payoff" not in d:
        raise ValueError("game JSON must be an object with a 'payoff' key")
    return Game(json_floats(d["payoff"], "payoff"), d.get("row_labels"), d.get("col_labels"))


def load_game(path) -> Game:
    return game_from_dict(json.loads(Path(path).read_text()))

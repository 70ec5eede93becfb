"""Game container, its JSON form, and simplex validation."""

import json

import numpy as np
import pytest

from egtlab.games import (Game, MixedStrategy, SimplexError, as_strategy, game_from_dict,
                          game_to_dict, load_game, pure, uniform, validate_simplex)

DISCUSSION = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])


def test_validate_accepts_a_face_point():
    s = validate_simplex((0.5, 0.5, 0.0))
    assert isinstance(s, MixedStrategy)
    assert s.weights.tolist() == [0.5, 0.5, 0.0]


def test_validate_rejects_a_bad_sum():
    with pytest.raises(SimplexError, match="sum"):
        validate_simplex((0.5, 0.6, 0.0))


def test_validate_rejects_any_negative_weight():
    # The sum is exactly 1; the sign is still illegal.
    with pytest.raises(SimplexError, match="negative weight"):
        validate_simplex((1.0 + 1e-13, -1e-13))


def test_a_negative_weight_is_named_as_a_plain_float():
    with pytest.raises(SimplexError) as err:
        validate_simplex([0.6, -0.1, 0.5])
    assert str(err.value) == "strategy has negative weight at index 1: -0.1"


def test_simplex_error_is_a_value_error():
    assert issubclass(SimplexError, ValueError)


def test_pure_and_uniform():
    assert list(pure(1, 3)) == [0.0, 1.0, 0.0]
    assert list(uniform(4)) == [0.25] * 4
    with pytest.raises(SimplexError, match="out of range"):
        pure(3, 3)


def test_as_strategy_passthrough():
    s = uniform(3)
    assert as_strategy(s) is s
    assert len(as_strategy([0.25, 0.75])) == 2


def test_digest_tracks_content():
    same = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.0]])
    other = Game([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [2.0, 2.0, 1.5]])
    assert DISCUSSION.digest() == same.digest()
    assert DISCUSSION.digest() != other.digest()


def test_dict_round_trip_preserves_evaluations():
    back = game_from_dict(game_to_dict(DISCUSSION))
    assert np.array_equal(back.payoff, DISCUSSION.payoff)


def test_file_round_trip(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_dict(DISCUSSION)))
    back = load_game(path)
    assert back.payoff.tobytes() == DISCUSSION.payoff.tobytes()


def test_game_from_dict_wants_a_payoff_key():
    with pytest.raises(ValueError, match="payoff"):
        game_from_dict({"matrix": [[1.0]]})


@pytest.mark.parametrize("key", ["row_labels", "col_labels", "name"])
def test_game_from_dict_refuses_any_key_but_payoff(key):
    # a game is its payoffs alone: no code reads a strategy label
    with pytest.raises(ValueError, match=f"^game JSON key '{key}' is unknown; "
                                         "a game takes only 'payoff'$"):
        game_from_dict({"payoff": [[1.0, 0.0], [0.0, 1.0]], key: ["a", "b"]})


@pytest.mark.parametrize("entry, says", [
    (True, "must hold only numbers, got True"),
    ("2", "must hold only numbers, got '2'"),
    (int("1" + "0" * 400), "holds an integer beyond the float range"),
], ids=["true", "string", "big"])
def test_game_from_dict_reads_only_json_numbers(entry, says):
    # NumPy would read true as 1.0 and "2" as 2.0, and overflow on the integer
    with pytest.raises(ValueError, match=f"^payoff {says}$"):
        game_from_dict({"payoff": [[1.0, 0.0], [entry, 1.0]]})

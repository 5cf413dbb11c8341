import numpy as np
import pytest

import mpekit
from mpekit import (hoeffding_tail, run_experiments, sample_size_game,
                    solve_mpe)


def test_every_public_name_resolves_once():
    assert len(set(mpekit.__all__)) == len(mpekit.__all__)
    missing = [name for name in mpekit.__all__ if not hasattr(mpekit, name)]
    assert missing == []


def budget(num_states=3, action_counts=(2, 2), num_players=2):
    return sample_size_game(0.1, 0.01, 0.9, num_states, list(action_counts),
                            num_players, 0.9)


@pytest.mark.parametrize("call, name", [
    (lambda game: budget(num_states=2.5), "num_states"),
    (lambda game: budget(num_players=True), "num_players"),
    (lambda game: budget(action_counts=(2.5, 2)), r"action_counts\[0\]"),
    (lambda game: budget(action_counts=(2, True)), r"action_counts\[1\]"),
    (lambda game: hoeffding_tail(2.5, 0.1, 1.0), "n"),
    (lambda game: hoeffding_tail(True, 0.1, 1.0), "n"),
    (lambda game: solve_mpe(game, max_iter=2.5), "max_iter"),
    (lambda game: solve_mpe(game, max_iter=True), "max_iter"),
    (lambda game: run_experiments(game, 100, 2.5, 0), "num_trials"),
    (lambda game: run_experiments(game, 100, True, 0), "num_trials"),
    (lambda game: run_experiments(game, 100, -1, 0), "num_trials"),
], ids=["states-float", "players-bool", "actions-float", "actions-bool",
        "tail-float", "tail-bool", "solve-float",
        "solve-bool", "trials-float", "trials-bool", "trials-negative"])
def test_count_parameters_take_integers_only(original_game, call, name):
    # Floats and bools used to run (2.5 states gave a budget of 108,835,
    # max_iter=True ran as 1) or fail with a bare TypeError.
    with pytest.raises(ValueError, match=(
            rf"^{name} must be a (positive|nonnegative) integer, got ")):
        call(original_game)


def test_count_parameters_take_numpy_integers():
    assert budget(np.int64(3), (np.int64(2), 2), np.int64(2)) == budget()
    assert hoeffding_tail(np.int32(50), 0.1, 2.0) == hoeffding_tail(
        50, 0.1, 2.0)

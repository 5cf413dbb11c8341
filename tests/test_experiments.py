import dataclasses
import re

import numpy as np
import pytest

from helpers import random_game
from mpekit.experiments import (
    estimate_model,
    records_csv,
    run_experiments,
    run_trial,
    summarize,
    summary_csv,
    trial_seed_sequence,
)
from mpekit.games import STOCHASTIC_ATOL, GameValidationError, MarkovGame
from mpekit.metrics import tv_distance


def delta_row_game():
    """Two joint actions; one deterministic row, one spread row."""
    return MarkovGame(
        states=("0", "1", "2"),
        action_sets=(("a", "b"), ("c",)),
        transitions=[
            [[0.0, 1.0, 0.0], [0.4, 0.4, 0.2]],
            [[1.0, 0.0, 0.0], [0.1, 0.5, 0.4]],
            [[0.0, 0.0, 1.0], [0.3, 0.3, 0.4]],
        ],
        rewards=[[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                 [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]],
        discount=0.9,
    )


class TestGenerativeSample:
    def test_deterministic_row_always_hits_its_state(self):
        game = delta_row_game()
        _, model = estimate_model(game, 100, np.random.SeedSequence(0))
        assert np.array_equal(model.counts[:, 0], 100 * game.transitions[:, 0])

    def test_frequencies_match_row_within_three_sigma(self):
        n = 1_000_000
        game = delta_row_game()
        _, model = estimate_model(game, n, np.random.SeedSequence(1))
        rows = game.transitions
        sigma = np.sqrt(n * rows * (1 - rows))
        assert np.all(np.abs(model.counts - n * rows) <= 3 * sigma)

    def test_fixed_seed_reproduces_sequence(self, original_game):
        # The trial's one stream is derived from the root without consuming
        # it: the same root object twice gives the same counts.
        root = trial_seed_sequence(2024, 3)
        _, first = estimate_model(original_game, 111_227, root)
        _, second = estimate_model(original_game, 111_227, root)
        assert np.array_equal(first.counts, second.counts)
        # The stream is the root's child with spawn key 0, and the first
        # pair draws first from it: its counts are pinned.
        assert first.counts[0, 0].tolist() == [44436, 44512, 22279]


class TestEstimateModel:
    def test_single_sample_gives_unit_rows(self, original_game):
        estimated, model = estimate_model(original_game, 1,
                                          np.random.SeedSequence(0))
        assert np.all(model.counts.sum(axis=2) == 1)
        assert set(np.unique(estimated.transitions)) <= {0.0, 1.0}

    def test_counts_conserved_and_rows_stochastic(self, original_game):
        estimated, model = estimate_model(original_game, 357,
                                          np.random.SeedSequence(1))
        assert np.all(model.counts.sum(axis=2) == 357)
        assert model.samples_per_pair == 357
        assert np.array_equal(estimated.transitions, model.counts / 357)
        # A plug-in game passes the row rule with room to spare.
        assert np.all(np.abs(estimated.transitions.sum(-1) - 1.0)
                      <= 1e-3 * STOCHASTIC_ATOL)
        assert np.array_equal(estimated.rewards, original_game.rewards)
        assert estimated.discount == original_game.discount

    def test_error_shrinks_like_inverse_sqrt(self, original_game):
        def mean_gap(n, seeds):
            gaps = []
            for seed in seeds:
                estimated, _ = estimate_model(original_game, n,
                                              np.random.SeedSequence(seed))
                gap = max(
                    tv_distance(original_game.transitions[s, j],
                                estimated.transitions[s, j])
                    for s in range(3) for j in range(4))
                gaps.append(gap)
            return np.mean(gaps)

        seeds = range(40)
        coarse = mean_gap(200, seeds)
        fine = mean_gap(3200, seeds)
        # quadrupling n four times should quarter the gap: ratio ~ 1/4
        assert fine <= 0.40 * coarse
        assert fine >= 0.10 * coarse

    def test_same_root_reproduces_exactly(self, original_game):
        _, first = estimate_model(original_game, 100, np.random.SeedSequence(7))
        _, second = estimate_model(original_game, 100,
                                   np.random.SeedSequence(7))
        assert np.array_equal(first.counts, second.counts)

    def test_rejects_nonpositive_n(self, original_game):
        with pytest.raises(ValueError):
            estimate_model(original_game, 0, np.random.SeedSequence(0))

    @pytest.mark.parametrize("n", [2.5, 100.0, True])
    def test_rejects_non_integer_n(self, original_game, n):
        with pytest.raises(ValueError, match=r"^n must be a positive integer"):
            estimate_model(original_game, n, np.random.SeedSequence(0))

    @pytest.mark.parametrize("rng", [np.random.default_rng(0), 0, None],
                             ids=["generator", "int", "none"])
    def test_rejects_an_rng_that_is_not_a_seed_sequence(self, original_game,
                                                        rng):
        # Each failed with "has no attribute 'entropy'" at the first pair.
        with pytest.raises(ValueError,
                           match=r"^rng must be a numpy\.random\.SeedSequence"):
            estimate_model(original_game, 10, rng)

    @pytest.mark.parametrize("n", [2 ** 63, np.uint64(2 ** 63), 10 ** 20],
                             ids=["int", "uint64", "huge"])
    def test_rejects_n_beyond_what_numpy_samples(self, original_game, n):
        # numpy's multinomial raised "Python int too large to convert to C
        # long", or for the uint64 "n < 0".
        with pytest.raises(ValueError, match="^" + re.escape(
                f"n must be at most {2 ** 63 - 1} (2**63 - 1), got {n!r}")
                + "$"):
            estimate_model(original_game, n, np.random.SeedSequence(0))

    def test_accepts_n_at_the_limit(self, original_game):
        _, model = estimate_model(original_game, 2 ** 63 - 1,
                                  np.random.SeedSequence(0))
        assert np.all(model.counts.sum(axis=2) == 2 ** 63 - 1)

    def test_accepts_numpy_integer_n(self, original_game):
        _, model = estimate_model(original_game, np.int64(40),
                                  np.random.SeedSequence(0))
        assert np.all(model.counts.sum(axis=2) == 40)

    def test_rows_at_the_row_rule_edge(self, original_game):
        # Both rows pass the row rule, so the game builds; a bare
        # multinomial rejects each.
        transitions = np.array(original_game.transitions)
        transitions[0, 0] = [0.5, 0.5 + 5e-10, 0.0]
        transitions[1, 2] = [-5e-10, 0.5, 0.5 + 5e-10]
        game = dataclasses.replace(original_game, transitions=transitions)
        _, model = estimate_model(game, 10_000, np.random.SeedSequence(3))
        assert np.all(model.counts.sum(axis=2) == 10_000)
        assert np.all(model.counts[transitions <= 0.0] == 0)


    @pytest.mark.parametrize("row, rule", [
        ([0.2, 0.2, 0.2], "sums to 0.6"),
        ([np.nan, 0.5, 0.5], "has non-finite entries"),
    ], ids=["short-row", "nan-row"])
    def test_rejects_a_row_the_row_rule_rejects(self, original_game, row,
                                                 rule):
        # The short row used to sample as [0.2, 0.2, 0.6]; the NaN row
        # failed inside numpy without naming the pair. Now no game holds
        # either row, so estimate_model never sees one.
        transitions = np.array(original_game.transitions)
        transitions[1, 2] = row
        pair = (f"transition row (state {original_game.states[1]!r}, "
                f"action ({original_game.joint_action_label(2)})) ")
        with pytest.raises(GameValidationError) as info:
            dataclasses.replace(original_game, transitions=transitions)
        [violation] = info.value.violations
        assert violation.startswith(pair + rule)


class TestRunExperiments:
    def test_zero_trials_is_empty(self, original_game):
        assert run_experiments(original_game, 10, 0, 0) == []

    @pytest.mark.parametrize("num_trials", [0, 1])
    def test_two_players_checked_before_any_trial(self, num_trials):
        # Rejected before any sample is drawn, whatever num_trials is.
        mdp = random_game(np.random.default_rng(0), action_counts=(2,))
        with pytest.raises(ValueError,
                           match="^experiments need a two-player game$"):
            run_experiments(mdp, 10, num_trials, 0)

    @pytest.mark.parametrize("n", [0, 2.5, True])
    def test_n_checked_before_any_trial(self, original_game, n):
        with pytest.raises(ValueError, match=r"^n must be a positive integer"):
            run_experiments(original_game, n, 0, 0)

    @pytest.mark.parametrize("n, master_seed, message", [
        (2 ** 63, 0, r"^n must be at most "),
        (10, -1, r"^master_seed must be a nonnegative integer, got -1$"),
        (10, 1.5, r"^master_seed must be a nonnegative integer, got 1\.5$"),
    ], ids=["n-beyond-int64", "negative-seed", "float-seed"])
    def test_values_numpy_cannot_take_fail_before_any_trial(
            self, original_game, monkeypatch, n, master_seed, message):
        monkeypatch.setattr("mpekit.experiments.run_trial", None)
        with pytest.raises(ValueError, match=message):
            run_experiments(original_game, n, 1, master_seed)

    @pytest.mark.parametrize("trial, master_seed, message", [
        (-1, 0, r"^trial must be a nonnegative integer, got -1$"),
        (0.5, 0, r"^trial must be a nonnegative integer, got 0\.5$"),
        (0, -1, r"^master_seed must be a nonnegative integer, got -1$"),
        (0, 1.5, r"^master_seed must be a nonnegative integer, got 1\.5$"),
    ], ids=["negative-trial", "float-trial", "negative-seed", "float-seed"])
    def test_run_trial_checks_its_seeds_before_any_work(
            self, original_game, monkeypatch, trial, master_seed, message):
        # numpy's SeedSequence once rejected a negative one without naming
        # it, and a float one with a TypeError.
        monkeypatch.setattr("mpekit.experiments.trial_seed_sequence", None)
        with pytest.raises(ValueError, match=message):
            run_trial(original_game, 10, trial, master_seed)

    @pytest.mark.parametrize("num_trials", [0, 1])
    def test_rows_checked_before_any_trial(self, original_game, num_trials):
        # With no trial to run, a short row used to give [] while one trial
        # raised from estimate_model. Now the game cannot be built, so
        # run_experiments never sees it, however many trials it would run.
        transitions = np.array(original_game.transitions)
        transitions[1, 2] = [0.2, 0.2, 0.2]
        message = (f"transition row (state '2', action "
                   f"({original_game.joint_action_label(2)})) sums to "
                   f"0.6000000000000001, not 1 within 1e-09")
        with pytest.raises(GameValidationError) as info:
            dataclasses.replace(original_game, transitions=transitions)
        assert info.value.violations == [message]
        assert len(run_experiments(original_game, 100, num_trials, 1)) \
            == num_trials

    def test_records_are_reproducible(self, original_game):
        first = run_experiments(original_game, 400, 3, 123)
        second = run_experiments(original_game, 400, 3, 123)
        assert len(first) == 3
        for a, b in zip(first, second):
            assert a.trial_index == b.trial_index
            assert np.array_equal(a.alpha_pair, b.alpha_pair)
            assert a.rng_seed == b.rng_seed
            assert a.solver_converged == b.solver_converged

    def test_trials_are_order_independent(self, original_game):
        batch = run_experiments(original_game, 400, 4, 99)
        alone = run_trial(original_game, 400, 2, 99)
        assert np.array_equal(batch[2].alpha_pair, alone.alpha_pair)
        assert batch[2].rng_seed == alone.rng_seed
        # Run backwards, trial by trial, the batch gives the same records.
        backwards = [run_trial(original_game, 400, trial, 99)
                     for trial in reversed(range(4))]
        assert records_csv(backwards[::-1]) == records_csv(batch)

    def test_alphas_are_nonnegative_and_modest(self, original_game):
        records = run_experiments(original_game, 20_000, 4, 7)
        for record in records:
            assert np.all(record.alpha_pair >= 0.0)
            assert np.all(record.alpha_pair <= 0.05)

    def test_distinct_trials_use_distinct_streams(self, original_game):
        seq_a = trial_seed_sequence(5, 0)
        seq_b = trial_seed_sequence(5, 1)
        _, model_a = estimate_model(original_game, 50, seq_a)
        _, model_b = estimate_model(original_game, 50, seq_b)
        assert not np.array_equal(model_a.counts, model_b.counts)


class TestSummaries:
    def test_single_record_collapses_statistics(self, original_game):
        records = run_experiments(original_game, 400, 1, 11)
        summary = summarize(records)
        assert summary.count == 1
        assert np.array_equal(summary.alpha_min, summary.alpha_max)
        assert np.array_equal(summary.alpha_min, summary.alpha_median)
        assert np.array_equal(summary.alpha_min, records[0].alpha_pair)

    def test_empty_records(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.alpha_median is None
        text = summary_csv(summary)
        assert text.splitlines() == ["stat,player,value", "count,,0"]

    def test_records_csv_layout(self, original_game):
        records = run_experiments(original_game, 400, 2, 13)
        text = records_csv(records)
        lines = text.splitlines()
        assert lines[0] == "trial,alpha1,alpha2,converged,seed"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[3] in ("true", "false")
        # at least 10 significant digits on the alphas
        assert len(first[1].replace(".", "").replace("-", "").lstrip("0")) >= 10 \
            or float(first[1]) == 0.0

    def test_summary_csv_layout(self, original_game):
        records = run_experiments(original_game, 400, 3, 17)
        text = summary_csv(summarize(records))
        lines = text.splitlines()
        assert lines[0] == "stat,player,value"
        assert lines[1] == "count,,3"
        assert lines[2].startswith("convergence_rate,,")
        stats = {line.split(",")[0] for line in lines[3:]}
        assert stats == {"min", "median", "max", "mean"}
        assert len(lines) == 3 + 4 * 2

    def test_empty_records_csv_keeps_header(self):
        assert records_csv([]).splitlines() == [
            "trial,alpha1,alpha2,converged,seed"
        ]

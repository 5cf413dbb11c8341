import json

import numpy as np
import pytest

from helpers import random_game, random_profile, random_strategy
from mpekit.games import (
    GameFormatError,
    GameValidationError,
    MarkovGame,
    MarkovStrategy,
    StrategyProfile,
    default_line_metric,
    effective_metric,
    induced_mdp,
    metric_violations,
    parse_game,
    parse_profile,
    serialize_game,
    serialize_profile,
    validate_game,
    validate_mdp,
)


def tiny_game(**overrides):
    base = dict(
        states=("a", "b"),
        action_sets=(("x", "y"),),
        transitions=[[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.25, 0.75]]],
        rewards=[[[1.0, 2.0], [3.0, 4.0]]],
        discount=0.9,
    )
    base.update(overrides)
    return MarkovGame(**base)


class TestValidation:
    def test_bundled_games_are_clean(self, original_game, perturbed_game):
        assert validate_game(original_game) == []
        assert validate_game(perturbed_game) == []

    def test_bad_row_sum_is_one_violation(self):
        game = tiny_game(
            transitions=[[[0.5, 0.6], [1.0, 0.0]], [[0.0, 1.0], [0.25, 0.75]]]
        )
        violations = validate_game(game)
        assert len(violations) == 1
        assert "sums to" in violations[0]
        assert "'a'" in violations[0]

    def test_discount_boundaries_excluded(self):
        for gamma in (1.0, 0.0, -0.1, 1.5):
            violations = validate_game(tiny_game(discount=gamma))
            assert len(violations) == 1
            assert "discount" in violations[0]

    def test_nonfinite_reward_flagged(self):
        game = tiny_game(rewards=[[[1.0, np.inf], [3.0, 4.0]]])
        violations = validate_game(game)
        assert len(violations) == 1
        assert "finite" in violations[0]

    def test_negative_transition_flagged(self):
        game = tiny_game(
            transitions=[[[1.2, -0.2], [1.0, 0.0]], [[0.0, 1.0], [0.25, 0.75]]]
        )
        assert any("negative" in v for v in validate_game(game))

    def test_metric_axioms(self):
        good = default_line_metric(3)
        assert metric_violations(good) == []
        assert any("symmetric" in v
                   for v in metric_violations([[0, 1], [2, 0]]))
        assert any("d(s,s)" in v
                   for v in metric_violations([[0.5, 1], [1, 0]]))
        assert any("distinct" in v
                   for v in metric_violations([[0, 0], [0, 0]]))
        skewed = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        assert any("triangle" in v for v in metric_violations(skewed))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_metric_names_first_entry(self, bad):
        assert metric_violations(np.full((3, 3), bad)) == [
            "metric entry (0, 0) is not finite"]
        metric = default_line_metric(3)
        metric[2, 1] = bad
        assert metric_violations(metric) == [
            "metric entry (2, 1) is not finite"]

    def test_game_with_bad_metric_reports_it(self):
        game = tiny_game(metric=[[0.0, 0.0], [0.0, 0.0]])
        assert any("distinct" in v for v in validate_game(game))

    def test_validate_mdp_mirrors_game_checks(self):
        from helpers import random_mdp

        mdp = random_mdp(np.random.default_rng(0))
        assert validate_mdp(mdp) == []
        bad = random_mdp(np.random.default_rng(0), discount=1.0)
        assert any("discount" in v for v in validate_mdp(bad))


class TestParsing:
    def test_bundled_shape(self, original_game):
        assert original_game.num_states == 3
        assert original_game.action_counts == (2, 2)
        assert original_game.discount == 0.9
        assert original_game.num_joint_actions == 4

    def test_minimal_degenerate_game(self):
        doc = json.dumps({
            "players": 1,
            "states": ["only"],
            "actions": [["stay"]],
            "gamma": 0.5,
            "transitions": {"only|stay": [1.0]},
            "rewards": [{"only|stay": 0.0}],
        })
        game = parse_game(doc)
        assert validate_game(game) == []
        assert game.num_joint_actions == 1

    def test_missing_transition_row_names_key(self):
        doc = json.loads(serialize_game(tiny_game()))
        del doc["transitions"]["b|y"]
        with pytest.raises(GameFormatError, match="b\\|y"):
            parse_game(json.dumps(doc))

    def test_missing_reward_key_names_player_and_key(self):
        doc = json.loads(serialize_game(tiny_game()))
        del doc["rewards"][0]["a|x"]
        with pytest.raises(GameFormatError, match="player 1.*a\\|x"):
            parse_game(json.dumps(doc))

    def test_unknown_transition_key_named(self):
        doc = json.loads(serialize_game(tiny_game()))
        doc["transitions"]["bogus|x,y"] = [1.0, 0.0]
        with pytest.raises(GameFormatError,
                           match="transitions .*unknown key 'bogus\\|x,y'"):
            parse_game(json.dumps(doc))

    def test_unknown_reward_key_names_player_and_key(self):
        doc = json.loads(serialize_game(tiny_game()))
        doc["rewards"][0]["bogus|x,y"] = 0.0
        with pytest.raises(GameFormatError,
                           match="player 1 .*unknown key 'bogus\\|x,y'"):
            parse_game(json.dumps(doc))

    def test_bad_json_reports_position(self):
        with pytest.raises(GameFormatError, match="line 1"):
            parse_game("{not json")

    def test_invalid_document_lists_violations(self):
        doc = json.loads(serialize_game(tiny_game()))
        doc["transitions"]["a|x"] = [0.5, 0.6]
        with pytest.raises(GameValidationError) as excinfo:
            parse_game(json.dumps(doc))
        assert any("sums to" in v for v in excinfo.value.violations)

    def test_validate_flag_defers_checking(self):
        doc = json.loads(serialize_game(tiny_game()))
        doc["gamma"] = 1.0
        game = parse_game(json.dumps(doc), validate=False)
        assert validate_game(game) != []

    @pytest.mark.parametrize("field", ["players", "states", "actions",
                                       "gamma", "transitions", "rewards"])
    def test_missing_field_named(self, field):
        doc = json.loads(serialize_game(tiny_game()))
        del doc[field]
        with pytest.raises(GameFormatError, match=field):
            parse_game(json.dumps(doc))

    def test_serialize_parse_is_identity_on_canonical_documents(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            game = random_game(rng, num_states=int(rng.integers(1, 4)),
                               action_counts=tuple(
                                   int(c) for c in rng.integers(
                                       1, 4, size=rng.integers(1, 4))))
            rounded = MarkovGame(
                states=game.states,
                action_sets=game.action_sets,
                transitions=np.round(game.transitions, 12),
                rewards=np.round(game.rewards, 12),
                discount=game.discount,
            )
            doc = serialize_game(rounded)
            reparsed = parse_game(doc)
            assert serialize_game(reparsed) == doc
            assert np.array_equal(reparsed.transitions, rounded.transitions)
            assert np.array_equal(reparsed.rewards, rounded.rewards)

    def test_round_trip_preserves_metric(self):
        game = tiny_game(metric=default_line_metric(2))
        reparsed = parse_game(serialize_game(game))
        assert np.array_equal(reparsed.metric, game.metric)

    def test_profile_round_trip(self):
        rng = np.random.default_rng(3)
        profile = StrategyProfile((
            random_strategy(rng, 3, 2), random_strategy(rng, 3, 4)
        ))
        reparsed = parse_profile(serialize_profile(profile))
        for mine, theirs in zip(profile.strategies, reparsed.strategies):
            assert np.array_equal(mine.probabilities, theirs.probabilities)

    def test_profile_rejects_bad_rows(self):
        with pytest.raises(GameFormatError, match="player 1"):
            parse_profile(json.dumps({"strategies": [[[0.5, 0.4]]]}))


class TestStrategies:
    def test_rows_must_be_distributions(self):
        with pytest.raises(ValueError, match="sums to"):
            MarkovStrategy([[0.5, 0.4]])
        with pytest.raises(ValueError, match="negative"):
            MarkovStrategy([[1.5, -0.5]])

    def test_arrays_are_frozen(self):
        strategy = MarkovStrategy([[0.5, 0.5]])
        with pytest.raises(ValueError):
            strategy.probabilities[0, 0] = 1.0

    def test_joint_action_order_is_lexicographic(self):
        rng = np.random.default_rng(0)
        game = random_game(rng, num_states=2, action_counts=(2, 3))
        listed = list(game.joint_actions())
        assert listed == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        for rank, joint in enumerate(listed):
            assert game.joint_action_index(joint) == rank
        assert game.joint_action_label(1) == "0,1"


class TestInducedMdp:
    def test_single_player_game_is_its_own_mdp(self):
        rng = np.random.default_rng(1)
        game = random_game(rng, num_states=3, action_counts=(3,))
        profile = random_profile(rng, game)
        mdp = induced_mdp(game, profile, 0)
        assert np.allclose(mdp.transitions, game.transitions)
        assert np.allclose(mdp.rewards, game.rewards[0])

    def test_deterministic_opponent_selects_slices(self):
        rng = np.random.default_rng(2)
        game = random_game(rng, num_states=2, action_counts=(2, 2))
        pick = MarkovStrategy([[0.0, 1.0], [0.0, 1.0]])  # player 2 plays b
        profile = StrategyProfile((random_strategy(rng, 2, 2), pick))
        mdp = induced_mdp(game, profile, 0)
        for a1 in range(2):
            j = game.joint_action_index((a1, 1))
            assert np.allclose(mdp.transitions[:, a1, :],
                               game.transitions[:, j, :])
            assert np.allclose(mdp.rewards[:, a1], game.rewards[0, :, j])

    def test_two_state_hand_computed_mix(self):
        # One state pair, opponent mixes 0.25/0.75 between the two columns.
        game = MarkovGame(
            states=("s0", "s1"),
            action_sets=(("u",), ("l", "r")),
            transitions=[
                [[1.0, 0.0], [0.0, 1.0]],
                [[0.6, 0.4], [0.2, 0.8]],
            ],
            rewards=[[[1.0, 3.0], [0.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]],
            discount=0.9,
        )
        opponent = MarkovStrategy([[0.25, 0.75], [0.25, 0.75]])
        profile = StrategyProfile((MarkovStrategy([[1.0], [1.0]]), opponent))
        mdp = induced_mdp(game, profile, 0)
        assert np.allclose(mdp.transitions[0, 0], [0.25, 0.75])
        assert np.allclose(mdp.transitions[1, 0], [0.3, 0.7])
        assert np.allclose(mdp.rewards[:, 0], [2.5, 3.0])

    def test_linear_in_opponent_mixture(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            game = random_game(rng)
            own = random_strategy(rng, 3, 2)
            other_a = random_strategy(rng, 3, 2)
            other_b = random_strategy(rng, 3, 2)
            lam = rng.uniform()
            mixed = MarkovStrategy(lam * other_a.probabilities
                                   + (1 - lam) * other_b.probabilities)
            mdp_a = induced_mdp(game, StrategyProfile((own, other_a)), 0)
            mdp_b = induced_mdp(game, StrategyProfile((own, other_b)), 0)
            mdp_mix = induced_mdp(game, StrategyProfile((own, mixed)), 0)
            assert np.allclose(
                mdp_mix.transitions,
                lam * mdp_a.transitions + (1 - lam) * mdp_b.transitions,
                atol=1e-12,
            )
            assert np.allclose(
                mdp_mix.rewards,
                lam * mdp_a.rewards + (1 - lam) * mdp_b.rewards,
                atol=1e-12,
            )

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            game = random_game(rng, num_states=4, action_counts=(2, 3, 2))
            profile = random_profile(rng, game)
            for player in range(3):
                mdp = induced_mdp(game, profile, player)
                sums = mdp.transitions.sum(axis=2)
                assert np.all(np.abs(sums - 1.0) <= 1e-12)
                assert np.all(mdp.transitions >= -1e-15)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(0)
        game = random_game(rng)
        short = StrategyProfile((random_strategy(rng, 3, 2),))
        with pytest.raises(ValueError, match="strategies"):
            induced_mdp(game, short, 0)
        wrong = StrategyProfile((random_strategy(rng, 3, 3),
                                 random_strategy(rng, 3, 2)))
        with pytest.raises(ValueError, match="shape"):
            induced_mdp(game, wrong, 0)
        good = random_profile(rng, game)
        with pytest.raises(ValueError, match="player"):
            induced_mdp(game, good, 2)


def test_effective_metric_defaults_to_index_distance(original_game):
    metric = effective_metric(original_game)
    assert np.array_equal(metric, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    carried = tiny_game(metric=[[0.0, 2.0], [2.0, 0.0]])
    assert np.array_equal(effective_metric(carried), [[0, 2], [2, 0]])

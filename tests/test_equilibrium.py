import dataclasses
import time

import numpy as np
import pytest

from helpers import random_game, random_profile, random_strategy
from mpekit.equilibrium import (
    MODE_BEST_RESPONSE,
    MODE_FIXED,
    certify_profile,
    game_bellman_player,
    is_mpe,
)
from mpekit.games import (
    MarkovGame,
    MarkovStrategy,
    Mdp,
    StrategyProfile,
    ValueFunction,
)
from mpekit.mdp import alpha_optimality, bellman_optimal, bellman_policy, \
    solve_optimal

# Frozen certified gaps of the solved perturbed-game equilibrium, measured
# on the original bundled game.
EXPECTED_ALPHA = (0.005300, 0.002785)


def direct_player_backup(game, profile, player, values, best_response):
    """Joint-action-sum implementation of the player backup (oracle)."""
    gamma = game.discount
    num_states = game.num_states
    own_count = game.action_counts[player]
    q = np.zeros((num_states, own_count))
    for j, joint in enumerate(game.joint_actions()):
        weight = np.ones(num_states)
        for q_idx, act in enumerate(joint):
            if q_idx != player:
                weight = weight * profile.strategies[q_idx].probabilities[:, act]
        backup = ((1 - gamma) * game.rewards[player, :, j]
                  + gamma * game.transitions[:, j, :] @ values)
        q[:, joint[player]] += weight * backup
    if best_response:
        return q.max(axis=1)
    own = profile.strategies[player].probabilities
    return (own * q).sum(axis=1)


class TestPlayerBackup:
    def test_single_player_reduces_to_mdp_operators(self):
        rng = np.random.default_rng(0)
        game = random_game(rng, action_counts=(3,))
        profile = random_profile(rng, game)
        v = ValueFunction(rng.normal(size=3))
        mdp = Mdp(states=game.states, actions=game.action_sets[0],
                  transitions=game.transitions, rewards=game.rewards[0],
                  discount=game.discount)
        fixed = game_bellman_player(game, profile, 0, v, MODE_FIXED)
        assert np.allclose(
            fixed.values,
            bellman_policy(mdp, profile.strategies[0], v).values)
        best = game_bellman_player(game, profile, 0, v, MODE_BEST_RESPONSE)
        assert np.allclose(best.values, bellman_optimal(mdp, v).values)

    def test_equilibrium_values_are_fixed_points(self, perturbed_game,
                                                 perturbed_mpe):
        profile = perturbed_mpe.profile
        for player, value in enumerate(perturbed_mpe.values):
            for mode in (MODE_FIXED, MODE_BEST_RESPONSE):
                image = game_bellman_player(perturbed_game, profile, player,
                                            value, mode)
                assert np.max(np.abs(image.values - value.values)) <= 1e-10

    def test_agrees_with_direct_joint_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            game = random_game(rng, num_states=int(rng.integers(2, 4)))
            profile = random_profile(rng, game)
            v = rng.normal(size=game.num_states)
            for player in range(2):
                for mode, flag in ((MODE_FIXED, False),
                                   (MODE_BEST_RESPONSE, True)):
                    mine = game_bellman_player(game, profile, player,
                                               ValueFunction(v), mode)
                    oracle = direct_player_backup(game, profile, player, v,
                                                  flag)
                    assert np.allclose(mine.values, oracle, atol=1e-12)

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(2)
        game = random_game(rng)
        profile = random_profile(rng, game)
        with pytest.raises(ValueError, match="mode"):
            game_bellman_player(game, profile, 0,
                                ValueFunction(np.zeros(3)), "other")


class TestCertifyProfile:
    def test_bundled_pair_reference_gaps(self, original_game, perturbed_mpe):
        certificate = certify_profile(original_game, perturbed_mpe.profile)
        assert np.allclose(certificate.per_player_alpha, EXPECTED_ALPHA,
                           atol=1e-5)

    def test_equilibrium_certifies_clean_on_its_own_game(self, perturbed_game,
                                                         perturbed_mpe):
        certificate = certify_profile(perturbed_game, perturbed_mpe.profile)
        assert np.all(np.abs(certificate.per_player_alpha) <= 1e-6)
        assert np.all(certificate.alpha_clamped() >= 0.0)

    def test_single_player_optimal_strategy_has_zero_gap(self):
        rng = np.random.default_rng(3)
        game = random_game(rng, action_counts=(3,))
        mdp = Mdp(states=game.states, actions=game.action_sets[0],
                  transitions=game.transitions, rewards=game.rewards[0],
                  discount=game.discount)
        _, greedy = solve_optimal(mdp, 1e-10)
        certificate = certify_profile(game, StrategyProfile((greedy,)))
        assert abs(certificate.per_player_alpha[0]) <= 2e-10

    def test_reduces_to_alpha_optimality_for_single_player(self):
        rng = np.random.default_rng(4)
        game = random_game(rng, action_counts=(3,))
        strategy = random_strategy(rng, 3, 3)
        mdp = Mdp(states=game.states, actions=game.action_sets[0],
                  transitions=game.transitions, rewards=game.rewards[0],
                  discount=game.discount)
        certificate = certify_profile(game, StrategyProfile((strategy,)))
        assert certificate.per_player_alpha[0] == pytest.approx(
            alpha_optimality(mdp, strategy, 1e-10), abs=1e-10)

    def test_best_response_dominates_componentwise(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            game = random_game(rng)
            profile = random_profile(rng, game)
            certificate = certify_profile(game, profile)
            for value, best in zip(certificate.per_player_value,
                                   certificate.per_player_best_response_value):
                assert np.all(best.values >= value.values - 1e-9)
            assert np.all(certificate.per_player_alpha >= -1e-9)

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(6)
        game = random_game(rng, num_states=3, action_counts=(2, 3))
        profile = random_profile(rng, game)
        base = certify_profile(game, profile).per_player_alpha

        state_perm = np.array([2, 0, 1])
        action_perms = [np.array([1, 0]), np.array([2, 0, 1])]
        # relabeled joint index p carries the original joint action
        # (action_perms[i][p_i]); joint_map[p] is that action's original rank
        joint_map = []
        for joint in game.joint_actions():
            original = tuple(int(action_perms[i][a])
                             for i, a in enumerate(joint))
            joint_map.append(game.joint_action_index(original))
        joint_map = np.array(joint_map)

        relabeled = MarkovGame(
            states=tuple(game.states[s] for s in state_perm),
            action_sets=tuple(
                tuple(game.action_sets[i][a] for a in action_perms[i])
                for i in range(2)),
            transitions=game.transitions[np.ix_(state_perm, joint_map,
                                                state_perm)],
            rewards=game.rewards[:, state_perm][:, :, joint_map],
            discount=game.discount,
        )
        relabeled_profile = StrategyProfile(tuple(
            MarkovStrategy(
                profile.strategies[i].probabilities[state_perm][:,
                                                                action_perms[i]])
            for i in range(2)))
        permuted_alpha = certify_profile(relabeled,
                                         relabeled_profile).per_player_alpha
        assert np.allclose(permuted_alpha, base, atol=1e-9)

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(7)
        game = random_game(rng)
        profile = random_profile(rng, game)
        with pytest.raises(ValueError):
            certify_profile(game, profile, tol=0.0)
        with pytest.raises(ValueError):
            certify_profile(game, StrategyProfile(profile.strategies[:1]))


class TestDiscountGuard:
    @pytest.mark.parametrize("gamma", [1.5, 1.0])
    def test_invalid_discount_fails_fast(self, original_game, perturbed_mpe,
                                         gamma):
        # Constructed directly, so validate_game never sees the discount.
        game = dataclasses.replace(original_game, discount=gamma)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="discount"):
            certify_profile(game, perturbed_mpe.profile)
        assert time.perf_counter() - start < 1.0


class TestIsMpe:
    def test_equilibrium_is_accepted(self, perturbed_game, perturbed_mpe):
        assert is_mpe(perturbed_game, perturbed_mpe.profile, 1e-6)

    def test_nonequilibrium_is_rejected_at_tight_tolerance(self, original_game,
                                                           perturbed_mpe):
        assert not is_mpe(original_game, perturbed_mpe.profile, 1e-6)

    def test_loose_tolerance_covers_the_reference_gaps(self, original_game,
                                                       perturbed_mpe):
        assert is_mpe(original_game, perturbed_mpe.profile, 0.01)

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    random_game,
    random_profile,
    reference_certify_profile,
    reference_induced_mdp,
    reference_profile_values,
    reference_solve_optimal,
    small_mdps,
)
from mpekit.equilibrium import CertificateAlpha, certify_profile
from mpekit.games import (
    GameValidationError,
    MarkovGame,
    MarkovStrategy,
    StrategyProfile,
    ValueFunction,
    induced_mdp,
)
from mpekit.mdp import (
    bellman_optimal,
    bellman_policy,
    evaluate_policy,
    solve_optimal,
)

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
    """A player's backup is the MDP operator on the player's induced MDP."""

    def test_single_player_reduces_to_mdp_operators(self):
        rng = np.random.default_rng(0)
        game = random_game(rng, action_counts=(3,))
        profile = random_profile(rng, game)
        v = ValueFunction(rng.normal(size=3))
        # A one-player game is an MDP, so the MDP operators take it as is.
        mdp = induced_mdp(game, profile, 0)
        fixed = bellman_policy(mdp, profile.strategies[0], v)
        assert np.allclose(
            fixed.values,
            bellman_policy(game, profile.strategies[0], v).values)
        best = bellman_optimal(mdp, v)
        assert np.allclose(best.values, bellman_optimal(game, v).values)

    def test_equilibrium_values_are_fixed_points(self, perturbed_game,
                                                 perturbed_mpe):
        profile = perturbed_mpe.profile
        values = perturbed_mpe.certificate.per_player_value
        for player, value in enumerate(values):
            mdp = induced_mdp(perturbed_game, profile, player)
            for image in (bellman_policy(mdp, profile.strategies[player],
                                         value),
                          bellman_optimal(mdp, value)):
                assert np.max(np.abs(image.values - value.values)) <= 1e-10

    def test_agrees_with_direct_joint_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            game = random_game(rng, num_states=int(rng.integers(2, 4)))
            profile = random_profile(rng, game)
            v = rng.normal(size=game.num_states)
            for player in range(2):
                mdp = induced_mdp(game, profile, player)
                fixed = bellman_policy(mdp, profile.strategies[player],
                                       ValueFunction(v))
                best = bellman_optimal(mdp, ValueFunction(v))
                for mine, flag in ((fixed, False), (best, True)):
                    oracle = direct_player_backup(game, profile, player, v,
                                                  flag)
                    assert np.allclose(mine.values, oracle, atol=1e-12)


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
        _, greedy = solve_optimal(game)
        certificate = certify_profile(game, StrategyProfile((greedy,)))
        assert abs(certificate.per_player_alpha[0]) <= 2e-10

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reduces_to_alpha_optimality_for_single_player(self, data):
        # An MDP's optimality gap is its one-player certificate, exactly.
        mdp = data.draw(small_mdps())
        weights = data.draw(arrays(
            np.float64, (mdp.num_states, mdp.action_counts[0]),
            elements=st.floats(0.0, 1.0)))
        weights[weights.sum(axis=1) == 0.0] = 1.0
        strategy = MarkovStrategy(
            weights / weights.sum(axis=1, keepdims=True))
        certificate = certify_profile(mdp, StrategyProfile((strategy,)))
        gap = np.max(solve_optimal(mdp)[0].values
                     - evaluate_policy(mdp, strategy).values)
        assert certificate.per_player_alpha[0] == gap

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
            certify_profile(game, StrategyProfile(profile.strategies[:1]))

    def test_clamps_roundoff_in_a_fixed_band(self):
        # Gaps in [-2e-10, 0) are roundoff and read 0; a larger dip stays,
        # so it shows.
        certificate = CertificateAlpha(np.array([-1.1e-16, -2e-10, -1e-9]),
                                       (), ())
        assert certificate.alpha_clamped().tolist() == [0.0, 0.0, -1e-9]


@st.composite
def profiled_games(draw):
    """A game of 1-3 players, some with unequal action counts, and a profile
    whose rows are mixed, one-hot with -0.0 zeros, or one-hot pushed to the
    row rule's edge (an entry of -1e-9 and one of 1 + 1e-9)."""
    counts = draw(st.one_of(
        st.just((2, 3, 1)),
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)))
    num_states = draw(st.integers(1, 12))
    gamma = draw(st.floats(0.05, 0.99))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = random_game(rng, num_states, counts, gamma, -3.0, 3.0)
    strategies = []
    for count in counts:
        kind = draw(st.sampled_from(["mixed", "one-hot", "edge"]))
        probs = rng.dirichlet(np.ones(count), size=num_states)
        if kind != "mixed":
            own = probs.argmax(axis=1)
            probs = np.where(np.eye(count)[own] > 0.0, 1.0, -0.0)
            if kind == "edge" and count > 1:
                states = np.arange(num_states)
                probs[states, own] = 1.0 + 1e-9
                probs[states, (own + 1) % count] = -1e-9
        strategies.append(MarkovStrategy(probs))
    return game, StrategyProfile(tuple(strategies))


class TestOnePassCertificate:
    """Achieved values are one solve of the profile's chain, within
    roundoff of each induced MDP's own; best responses are the induced
    MDPs', as the per-player path computed them."""

    @settings(max_examples=200, deadline=None)
    @given(profiled_games())
    def test_matches_the_joint_chain_bit_for_bit(self, case):
        game, profile = case
        certificate = certify_profile(game, profile)
        achieved = reference_profile_values(
            game, [s.probabilities for s in profile.strategies])
        per_player, best_values = reference_certify_profile(game, profile)
        for player in range(game.num_players):
            mdp = induced_mdp(game, profile, player)
            expected = reference_induced_mdp(game, profile, player)
            assert mdp.transitions.tobytes() == expected.transitions.tobytes()
            assert mdp.rewards.tobytes() == expected.rewards.tobytes()
            value = certificate.per_player_value[player].values
            assert value.tobytes() == achieved[player].tobytes()
            own = evaluate_policy(mdp, profile.strategies[player]).values
            assert own.tobytes() == per_player[player].tobytes()
            scale = max(1.0, np.abs(own).max())
            assert np.max(np.abs(value - own)) <= 1e-12 * scale
            if game.num_players == 1:
                # An MDP's chain is its one induced model's: no bit moves.
                assert value.tobytes() == own.tobytes()
            assert (certificate.per_player_best_response_value[player]
                    .values.tobytes() == best_values[player].tobytes())
            best, greedy = solve_optimal(mdp)
            best_ref, greedy_ref = reference_solve_optimal(expected)
            assert best.values.tobytes() == best_ref.values.tobytes()
            assert (greedy.probabilities.tobytes()
                    == greedy_ref.probabilities.tobytes())
        gaps = np.array([np.max(best - value) for best, value
                         in zip(best_values, achieved)])
        assert certificate.per_player_alpha.tobytes() == gaps.tobytes()


class TestDiscountGuard:
    @pytest.mark.parametrize("gamma", [1.5, 1.0])
    def test_invalid_discount_fails_fast(self, original_game, gamma):
        # replace builds a game, so the discount is checked before any
        # certificate can be asked of it.
        start = time.perf_counter()
        with pytest.raises(GameValidationError) as excinfo:
            dataclasses.replace(original_game, discount=gamma)
        assert excinfo.value.violations == [
            f"discount {gamma!r} outside the open interval (0, 1)"]
        assert time.perf_counter() - start < 1.0


class TestFailFast:
    @pytest.mark.parametrize("field, index", [("rewards", (0, 0, 0)),
                                              ("transitions", (0, 0))])
    def test_non_finite_model_entry_raises(self, original_game, field, index):
        # replace builds a game, so the NaN is named before certify_profile,
        # evaluate_policy or solve_optimal could be called on it.
        array = getattr(original_game, field).copy()
        array[index] = np.nan
        with pytest.raises(GameValidationError) as excinfo:
            dataclasses.replace(original_game, **{field: array})
        assert excinfo.value.violations == [{
            "rewards": "reward of player 1 at (state '1', action (1,1)) is "
                       "not finite",
            "transitions": "transition row (state '1', action (1,1)) has "
                           "non-finite entries",
        }[field]]


class TestIsMpe:
    """A profile is an MPE within tol when every raw gap is at most tol."""

    def test_equilibrium_is_accepted(self, perturbed_game, perturbed_mpe):
        certificate = certify_profile(perturbed_game, perturbed_mpe.profile)
        assert certificate.max_alpha <= 1e-6

    def test_nonequilibrium_is_rejected_at_tight_tolerance(self, original_game,
                                                           perturbed_mpe):
        certificate = certify_profile(original_game, perturbed_mpe.profile)
        assert certificate.max_alpha > 1e-6

    def test_loose_tolerance_covers_the_reference_gaps(self, original_game,
                                                       perturbed_mpe):
        certificate = certify_profile(original_game, perturbed_mpe.profile)
        assert certificate.max_alpha <= 0.01

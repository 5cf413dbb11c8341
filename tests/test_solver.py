import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from helpers import (nash_deviation_gain, random_game,
                     reference_bimatrix_nash, reference_solve_mpe)
from mpekit import solver
from mpekit.equilibrium import certify_profile, is_mpe
from mpekit.games import MarkovGame
from mpekit.solver import bimatrix_nash, solve_mpe, stage_game

#: One unit in the last place of 1e8 (about 1.5e-8).
ULP_1E8 = float(np.spacing(1e8))

#: Payoff entries for the oracle property: uniform floats; small integers,
#: whose ties make degenerate and rectangular supports; floats at 1e8, where
#: roundoff exceeds an absolute 1e-9 but not the scaled tolerance; and 1e8
#: plus a few units in the last place, where every cell is within roundoff
#: of every other.
PAYOFF_ENTRIES = (
    st.floats(-1.0, 1.0),
    st.integers(-2, 2).map(float),
    st.floats(-1.0, 1.0).map(lambda v: v * 1e8),
    st.integers(-2, 2).map(lambda k: 1e8 + k * ULP_1E8),
)


@st.composite
def bimatrix_games(draw):
    """Payoff pairs of shape up to 4x4, both drawn from one entry family."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    entries = draw(st.sampled_from(PAYOFF_ENTRIES))
    return (draw(arrays(np.float64, shape, elements=entries)),
            draw(arrays(np.float64, shape, elements=entries)))


def matrix_game_value(payoffs):
    """Value of a zero-sum matrix game for the row maximizer, via LP."""
    payoffs = np.asarray(payoffs, dtype=np.float64)
    m, n = payoffs.shape
    shift = payoffs.min()
    a = payoffs - shift + 1.0  # strictly positive
    # min sum(x) s.t. a^T x >= 1, x >= 0; value = 1 / sum(x)
    res = linprog(np.ones(m), A_ub=-a.T, b_ub=-np.ones(n),
                  bounds=(0, None), method="highs")
    assert res.success
    return 1.0 / res.fun + shift - 1.0


def minimax_value_iteration(game, tol=1e-12):
    """Shapley iteration for a zero-sum two-player game (player 1 view)."""
    values = np.zeros(game.num_states)
    for _ in range(1_000_000):
        updated = np.zeros_like(values)
        for s in range(game.num_states):
            payoff, _ = stage_game(game, [values, -values], s)
            updated[s] = matrix_game_value(payoff)
        if np.max(np.abs(updated - values)) < tol:
            return updated
        values = updated
    raise AssertionError("minimax iteration did not converge")


class TestStageGame:
    def test_zero_values_scale_stage_rewards(self, original_game):
        payoff_a, payoff_b = stage_game(original_game,
                                        [np.zeros(3), np.zeros(3)], 0)
        for j, (a1, a2) in enumerate(original_game.joint_actions()):
            assert payoff_a[a1, a2] == pytest.approx(
                0.1 * original_game.rewards[0, 0, j])
            assert payoff_b[a1, a2] == pytest.approx(
                0.1 * original_game.rewards[1, 0, j])

    def test_single_action_game_is_bellman_backup(self):
        game = MarkovGame(
            states=("s", "t"),
            action_sets=(("a",), ("b",)),
            transitions=[[[0.3, 0.7]], [[0.6, 0.4]]],
            rewards=[[[1.0], [2.0]], [[3.0], [4.0]]],
            discount=0.5,
        )
        v = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        payoff_a, payoff_b = stage_game(game, v, 0)
        assert payoff_a.shape == (1, 1)
        assert payoff_a[0, 0] == pytest.approx(0.5 * 1.0
                                               + 0.5 * (0.3 * 1 + 0.7 * 2))
        assert payoff_b[0, 0] == pytest.approx(0.5 * 3.0
                                               + 0.5 * (0.3 * 3 + 0.7 * 4))

    def test_equilibrium_payoffs_reproduce_fixed_point(self, perturbed_game,
                                                       perturbed_mpe):
        values = [v.values
                  for v in perturbed_mpe.certificate.per_player_value]
        for s in range(3):
            payoff_a, payoff_b = stage_game(perturbed_game, values, s)
            x = perturbed_mpe.profile.strategies[0].probabilities[s]
            y = perturbed_mpe.profile.strategies[1].probabilities[s]
            assert x @ payoff_a @ y == pytest.approx(values[0][s], abs=1e-6)
            assert x @ payoff_b @ y == pytest.approx(values[1][s], abs=1e-6)

    def test_matches_per_joint_action_formula_bit_for_bit(self):
        # The sweep builds every state at once and stage_game one state;
        # both must round exactly as (1 - gamma) r + (gamma P[s, j]) @ v,
        # and so must the shared kernel for one and three players.
        rng = np.random.default_rng(21)
        for counts in [(1, 1), (2, 2), (2, 3), (4, 3), (3,), (2, 2, 2)]:
            players = len(counts)
            for num_states in (1, 3, 8, 40):
                game = random_game(rng, num_states, counts,
                                   discount=rng.uniform(0.05, 0.999))
                gamma = game.discount
                v = rng.uniform(-3.0, 3.0, size=(players, num_states))
                swept = solver._stage_payoffs(game, v)
                for s in range(num_states):
                    expected = np.zeros((players,) + counts)
                    for j, joint in enumerate(game.joint_actions()):
                        for i in range(players):
                            expected[(i,) + joint] = (
                                (1.0 - gamma) * game.rewards[i, s, j]
                                + (gamma * game.transitions[s, j]) @ v[i])
                    if players == 2:
                        built = np.stack(stage_game(game, list(v), s))
                        assert built.tobytes() == expected.tobytes()
                    assert swept[:, s].tobytes() == expected.tobytes()

    def test_rejects_non_two_player(self):
        rng = np.random.default_rng(0)
        solo = random_game(rng, action_counts=(2,))
        with pytest.raises(ValueError, match="two-player"):
            stage_game(solo, [np.zeros(3)], 0)

    def test_rejects_short_and_non_finite_values(self, perturbed_game):
        # A short vector failed inside np.vecdot with a gufunc message, and
        # a NaN entry gave NaN payoffs.
        with pytest.raises(ValueError,
                           match="player index 1 has shape .2,. for 3 states"):
            stage_game(perturbed_game, [np.zeros(3), np.zeros(2)], 0)
        with pytest.raises(ValueError, match=r"player index 0 is not finite"):
            stage_game(perturbed_game, [[0.0, np.nan, 0.0], np.zeros(3)], 0)


class TestBimatrixNash:
    def test_dominant_coordination_cell(self):
        x, y, payoffs = bimatrix_nash([[1.0, 0.0], [0.0, 0.0]],
                                      [[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(x, [1.0, 0.0])
        assert np.array_equal(y, [1.0, 0.0])
        assert payoffs == (1.0, 1.0)

    def test_matching_pennies_forces_uniform_mix(self):
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        x, y, payoffs = bimatrix_nash(a, -a)
        assert np.allclose(x, [0.5, 0.5], atol=1e-12)
        assert np.allclose(y, [0.5, 0.5], atol=1e-12)
        assert payoffs[0] == pytest.approx(0.0, abs=1e-12)
        assert payoffs[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
    def test_random_games_pass_deviation_checks(self, shape):
        rng = np.random.default_rng(shape[0])
        for _ in range(500):
            payoff_a = rng.uniform(-1, 1, size=shape)
            payoff_b = rng.uniform(-1, 1, size=shape)
            x, y, _ = bimatrix_nash(payoff_a, payoff_b)
            assert nash_deviation_gain(payoff_a, payoff_b, x, y) <= 1e-9
            for mix in (x, y):
                assert np.all(mix >= 0.0)
                assert abs(mix.sum() - 1.0) <= 1e-12

    def test_rectangular_games_supported(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            payoff_a = rng.uniform(-1, 1, size=(2, 4))
            payoff_b = rng.uniform(-1, 1, size=(2, 4))
            x, y, _ = bimatrix_nash(payoff_a, payoff_b)
            assert nash_deviation_gain(payoff_a, payoff_b, x, y) <= 1e-9

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(11)
        payoff_a = rng.uniform(size=(3, 3))
        payoff_b = rng.uniform(size=(3, 3))
        first = bimatrix_nash(payoff_a, payoff_b)
        second = bimatrix_nash(payoff_a, payoff_b)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert first[2] == second[2]

    @settings(max_examples=400, deadline=None)
    @given(bimatrix_games())
    @example((np.array([[2.0, -2.0], [-1.0, 2.0], [-1.0, -2.0], [1.0, 0.0]]),
              np.array([[1.0, 2.0], [1.0, -1.0], [0.0, 2.0], [2.0, 2.0]])))
    @example((1e8 + ULP_1E8 * np.array([[-1.0, 2.0], [0.0, -1.0]]),
              1e8 + ULP_1E8 * np.array([[1.0, 0.0], [-2.0, 0.0]])))
    @example((np.array([[-0.0, -1.0]]), np.array([[-0.0, -1.0]])))
    def test_matches_pair_by_pair_enumeration_bit_for_bit(self, game):
        # The first example selects a rectangular (1, 2) support. In the
        # second the entries differ by a few units in the last place of
        # 1e8, far inside the scaled tolerance of 0.1, so the first cell
        # (0, 0) passes. In the third the selected cell holds -0.0, and the
        # payoff is 0.0.
        payoff_a, payoff_b = game
        tol = 1e-9 * max(1.0, np.abs(payoff_a).max(), np.abs(payoff_b).max())
        x, y, payoffs = bimatrix_nash(payoff_a, payoff_b)
        ref_x, ref_y, ref_payoffs = reference_bimatrix_nash(payoff_a,
                                                            payoff_b, tol)
        assert x.tobytes() == ref_x.tobytes()
        assert y.tobytes() == ref_y.tobytes()
        assert (np.array(payoffs).tobytes()
                == np.array(ref_payoffs).tobytes())

    def test_large_payoffs_keep_their_equilibria(self):
        # Roundoff at 1e8 exceeds an absolute 1e-9; judged against the
        # scaled tolerance, a game selects the supports it selects unscaled.
        rng = np.random.default_rng(0)
        for _ in range(3000):
            shape = tuple(rng.integers(1, 5, size=2))
            payoff_a = rng.uniform(-1, 1, size=shape)
            payoff_b = rng.uniform(-1, 1, size=shape)
            big_a, big_b = payoff_a * 1e8, payoff_b * 1e8
            x, y, _ = bimatrix_nash(big_a, big_b)
            scale = max(1.0, np.abs(big_a).max(), np.abs(big_b).max())
            assert nash_deviation_gain(big_a, big_b, x, y) <= 1e-9 * scale
            small_x, small_y, _ = bimatrix_nash(payoff_a, payoff_b)
            assert np.array_equal(x > 0, small_x > 0)
            assert np.array_equal(y > 0, small_y > 0)

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError, match="shape"):
            bimatrix_nash([[1.0, 0.0]], [[1.0], [0.0]])
        with pytest.raises(ValueError, match="finite"):
            bimatrix_nash([[np.nan, 0.0], [0.0, 0.0]], np.zeros((2, 2)))


class TestSolveMpe:
    def test_bundled_perturbed_game_certifies(self, perturbed_game):
        result = solve_mpe(perturbed_game, tol=1e-6)
        assert result.converged
        assert result.certificate.max_alpha <= 1e-6
        assert result.iterations > 0

    def test_single_state_game_solves_one_shot(self):
        # prisoner's-dilemma stage payoffs: defect (action 1) dominates.
        game = MarkovGame(
            states=("only",),
            action_sets=(("c", "d"), ("c", "d")),
            transitions=[[[1.0], [1.0], [1.0], [1.0]]],
            rewards=[[[3.0, 0.0, 5.0, 1.0]], [[3.0, 5.0, 0.0, 1.0]]],
            discount=0.9,
        )
        result = solve_mpe(game, tol=1e-9)
        assert result.converged
        assert np.allclose(result.profile.strategies[0].probabilities,
                           [[0.0, 1.0]])
        assert np.allclose(result.profile.strategies[1].probabilities,
                           [[0.0, 1.0]])
        # repeated-game value equals the stage equilibrium payoff
        value = result.certificate.per_player_value[0]
        assert value.values[0] == pytest.approx(1.0, abs=1e-8)

    def test_zero_sum_game_matches_minimax_iteration(self):
        rng = np.random.default_rng(12)
        rewards = np.zeros((2, 2, 4))
        rewards[0] = rng.uniform(-1, 1, size=(2, 4))
        rewards[1] = -rewards[0]
        game = MarkovGame(
            states=("l", "r"),
            action_sets=(("a", "b"), ("c", "d")),
            transitions=rng.dirichlet(np.ones(2), size=(2, 4)),
            rewards=rewards,
            discount=0.8,
        )
        result = solve_mpe(game, tol=1e-9)
        assert result.converged
        oracle = minimax_value_iteration(game)
        value_1, value_2 = result.certificate.per_player_value
        assert np.allclose(value_1.values, oracle, atol=1e-7)
        assert np.allclose(value_2.values, -oracle, atol=1e-7)

    def test_converged_results_pass_is_mpe(self):
        rng = np.random.default_rng(13)
        solved = 0
        for _ in range(15):
            game = random_game(rng, num_states=int(rng.integers(1, 4)))
            result = solve_mpe(game, tol=1e-8, max_iter=1200)
            if result.converged:
                solved += 1
                assert is_mpe(game, result.profile, 2e-8)
                fresh = certify_profile(game, result.profile)
                assert fresh.max_alpha <= 1e-8
        assert solved >= 12  # the scheme should settle on most small games

    def test_identical_runs_are_bit_identical(self, perturbed_game):
        first = solve_mpe(perturbed_game, tol=1e-8, seed=7)
        second = solve_mpe(perturbed_game, tol=1e-8, seed=7)
        for a, b in zip(first.profile.strategies, second.profile.strategies):
            assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(first.certificate.per_player_alpha,
                              second.certificate.per_player_alpha)
        assert first.iterations == second.iterations

    def test_rejects_non_two_player(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="two-player"):
            solve_mpe(random_game(rng, action_counts=(2, 2, 2)))
        with pytest.raises(ValueError):
            solve_mpe(random_game(rng), tol=0.0)

    def test_rejects_nan_tol(self, perturbed_game):
        with pytest.raises(ValueError, match="tol"):
            solve_mpe(perturbed_game, tol=float("nan"), max_iter=200)

    @pytest.mark.parametrize("gamma", [1.5, 1.0, np.nan])
    def test_rejects_discount_outside_open_unit_interval_at_once(
            self, perturbed_game, gamma):
        # Construction checks shapes only, so the solver guards the discount.
        game = replace(perturbed_game, discount=gamma)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="discount"):
            solve_mpe(game)
        assert time.perf_counter() - start < 1.0

    def test_policy_iteration_certifies_bundled_game_exactly(self,
                                                            perturbed_game):
        result = solve_mpe(perturbed_game, tol=1e-13)
        assert result.converged
        # Warm sweeps plus exact evaluations: value iteration never ran.
        assert result.iterations <= (solver._WARM_SWEEPS
                                     + solver._MAX_EVALUATIONS)

    @pytest.mark.parametrize("num_states,counts,seeds", [
        (3, (2, 2), range(40)),
        (6, (3, 3), range(10)),
    ])
    def test_certifies_every_game_the_reference_certifies(
            self, num_states, counts, seeds):
        for seed in seeds:
            game = random_game(np.random.default_rng(seed), num_states,
                               counts, 0.9)
            result = solve_mpe(game, max_iter=300)
            if result.converged:
                continue
            reference = reference_solve_mpe(game, max_iter=300)
            assert not reference.converged, seed
            assert (result.certificate.max_alpha
                    <= reference.certificate.max_alpha)

    def test_fallback_is_value_iteration_bit_for_bit(self):
        # Policy iteration does not certify this game; value iteration
        # does, after 174 sweeps.
        game = random_game(np.random.default_rng(24), 3, (2, 2), 0.9)
        result = solve_mpe(game, max_iter=300)
        reference = reference_solve_mpe(game, max_iter=300)
        assert result.converged and reference.converged
        for ours, theirs in zip(result.profile.strategies,
                                reference.profile.strategies):
            assert (ours.probabilities.tobytes()
                    == theirs.probabilities.tobytes())
        policy_steps = result.iterations - reference.iterations
        assert 0 < policy_steps <= (solver._WARM_SWEEPS
                                    + solver._MAX_EVALUATIONS)

    def test_non_convergence_still_returns_certificate(self):
        # Neither policy nor value iteration certifies this game: its best
        # certified gap is about 0.035.
        game = random_game(np.random.default_rng(21), 3, (2, 2), 0.9)
        result = solve_mpe(game, max_iter=300)
        assert not result.converged
        assert len(result.certificate.per_player_alpha) == 2
        assert np.all(np.isfinite(result.certificate.per_player_alpha))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    best_deterministic_value,
    deterministic_policies,
    policy_value_direct,
    random_mdp,
)
from mpekit.games import MarkovStrategy, Mdp, ValueFunction, induced_mdp
from mpekit.mdp import (
    alpha_optimality,
    bellman_optimal,
    bellman_policy,
    evaluate_policy,
    solve_optimal,
)

# Frozen reference vectors for the bundled game pair: equilibrium values on
# the perturbed game, and policy/best-response values on the original game.
VALUE_HAT_P1 = [0.6327, 0.6170, 0.6187]
VALUE_HAT_P2 = [0.7258, 0.7148, 0.7148]
VALUE_P1 = [0.6341, 0.6192, 0.6209]
VALUE_P2 = [0.7252, 0.7142, 0.7154]
BEST_P1 = [0.6394, 0.6222, 0.6241]
BEST_P2 = [0.7280, 0.7158, 0.7171]


def single_state_mdp(reward, gamma):
    return Mdp(states=("s",), actions=("a",), transitions=[[[1.0]]],
               rewards=[[reward]], discount=gamma)


@st.composite
def small_mdps(draw):
    """MDPs with S <= 6, A <= 3 and gamma in [0.5, 0.999].

    Drawn entries repeat often (zeros, equal rewards), so ties and sparse,
    absorbing transitions are well represented.
    """
    s = draw(st.integers(1, 6))
    a = draw(st.integers(1, 3))
    weights = draw(arrays(np.float64, (s, a, s), elements=st.floats(0.0, 1.0)))
    weights[weights.sum(axis=-1) == 0.0] = 1.0
    rewards = draw(arrays(np.float64, (s, a), elements=st.floats(-1.0, 1.0)))
    return Mdp(states=tuple(str(i) for i in range(s)),
               actions=tuple(str(i) for i in range(a)),
               transitions=weights / weights.sum(axis=-1, keepdims=True),
               rewards=rewards,
               discount=draw(st.floats(0.5, 0.999)))


class TestBellmanPolicy:
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9, 0.99])
    def test_single_state_closed_form(self, gamma):
        mdp = single_state_mdp(3.0, gamma)
        strategy = MarkovStrategy([[1.0]])
        out = bellman_policy(mdp, strategy, ValueFunction([2.0]))
        assert out.values[0] == pytest.approx((1 - gamma) * 3.0 + gamma * 2.0)

    def test_zero_value_gives_normalized_stage_reward(self):
        rng = np.random.default_rng(0)
        mdp = random_mdp(rng)
        strategy = MarkovStrategy(rng.dirichlet(np.ones(2), size=3))
        out = bellman_policy(mdp, strategy, ValueFunction(np.zeros(3)))
        expected = (1 - mdp.discount) * (strategy.probabilities
                                         * mdp.rewards).sum(axis=1)
        assert np.allclose(out.values, expected)

    def test_two_state_cycle_by_hand(self):
        mdp = Mdp(states=("l", "r"), actions=("go",),
                  transitions=[[[0.0, 1.0]], [[1.0, 0.0]]],
                  rewards=[[1.0], [0.0]], discount=0.5)
        out = bellman_policy(mdp, MarkovStrategy([[1.0], [1.0]]),
                             ValueFunction([0.0, 0.0]))
        assert np.allclose(out.values, [0.5, 0.0])

    def test_dimension_mismatch(self):
        mdp = single_state_mdp(0.0, 0.9)
        with pytest.raises(ValueError):
            bellman_policy(mdp, MarkovStrategy([[0.5, 0.5]]),
                           ValueFunction([0.0]))
        with pytest.raises(ValueError):
            bellman_policy(mdp, MarkovStrategy([[1.0]]),
                           ValueFunction([0.0, 0.0]))


class TestBellmanOptimal:
    def test_single_action_equals_policy_operator(self):
        rng = np.random.default_rng(1)
        mdp = random_mdp(rng, num_actions=1)
        v = ValueFunction(rng.uniform(size=3))
        fixed = bellman_policy(mdp, MarkovStrategy(np.ones((3, 1))), v)
        assert np.allclose(bellman_optimal(mdp, v).values, fixed.values)

    def test_zero_value_takes_max_stage_reward(self):
        rng = np.random.default_rng(2)
        mdp = random_mdp(rng)
        out = bellman_optimal(mdp, ValueFunction(np.zeros(3)))
        assert np.allclose(out.values,
                           (1 - mdp.discount) * mdp.rewards.max(axis=1))

    def test_two_state_two_action_tableau(self):
        # state 0: action 0 pays 1 and stays, action 1 pays 0 and moves;
        # state 1: action 0 pays 0 and stays, action 1 pays 2 and moves.
        mdp = Mdp(states=("0", "1"), actions=("stay", "move"),
                  transitions=[[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                  rewards=[[1.0, 0.0], [0.0, 2.0]], discount=0.5)
        out = bellman_optimal(mdp, ValueFunction([10.0, 20.0]))
        # by hand: state 0: max(0.5 + 5, 0 + 10) = 10; state 1: max(10, 1 + 5) = 10
        assert np.allclose(out.values, [10.0, 10.0])


class TestEvaluatePolicy:
    @pytest.mark.parametrize("gamma", [0.2, 0.9, 0.999])
    def test_single_state_normalization(self, gamma):
        mdp = single_state_mdp(4.2, gamma)
        out = evaluate_policy(mdp, MarkovStrategy([[1.0]]))
        assert out.values[0] == pytest.approx(4.2)

    def test_reference_values_on_bundled_pair(self, original_game,
                                              perturbed_game, perturbed_mpe):
        profile = perturbed_mpe.profile
        achieved_1 = evaluate_policy(induced_mdp(original_game, profile, 0),
                                     profile.strategies[0])
        achieved_2 = evaluate_policy(induced_mdp(original_game, profile, 1),
                                     profile.strategies[1])
        assert np.allclose(achieved_1.values, VALUE_P1, atol=1e-4)
        assert np.allclose(achieved_2.values, VALUE_P2, atol=1e-4)

    def test_reference_equilibrium_values_on_perturbed_game(self,
                                                            perturbed_game,
                                                            perturbed_mpe):
        vhat_1, vhat_2 = perturbed_mpe.values
        assert np.allclose(vhat_1.values, VALUE_HAT_P1, atol=1e-4)
        assert np.allclose(vhat_2.values, VALUE_HAT_P2, atol=1e-4)
        profile = perturbed_mpe.profile
        again = evaluate_policy(induced_mdp(perturbed_game, profile, 1),
                                profile.strategies[1])
        assert np.allclose(again.values, vhat_2.values, atol=1e-10)

    def test_matches_direct_inversion(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mdp = random_mdp(rng, num_states=4, num_actions=3)
            strategy = MarkovStrategy(rng.dirichlet(np.ones(3), size=4))
            mine = evaluate_policy(mdp, strategy)
            assert np.allclose(mine.values, policy_value_direct(mdp, strategy),
                               atol=1e-12)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            mdp = random_mdp(rng)
            strategy = MarkovStrategy(rng.dirichlet(np.ones(2), size=3))
            value = evaluate_policy(mdp, strategy)
            again = bellman_policy(mdp, strategy, value)
            assert np.max(np.abs(again.values - value.values)) <= 1e-10


class TestSolveOptimal:
    def test_reference_best_response_values(self, original_game,
                                            perturbed_mpe):
        profile = perturbed_mpe.profile
        best_1, _ = solve_optimal(induced_mdp(original_game, profile, 0), 1e-10)
        best_2, _ = solve_optimal(induced_mdp(original_game, profile, 1), 1e-10)
        assert np.allclose(best_1.values, BEST_P1, atol=1e-4)
        assert np.allclose(best_2.values, BEST_P2, atol=1e-4)

    def test_single_action_equals_policy_value(self):
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, num_actions=1)
        value, strategy = solve_optimal(mdp, 1e-10)
        only = evaluate_policy(mdp, MarkovStrategy(np.ones((3, 1))))
        assert np.allclose(value.values, only.values, atol=1e-9)
        assert np.array_equal(strategy.probabilities, np.ones((3, 1)))

    def test_matches_exhaustive_policy_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            mdp = random_mdp(rng, num_states=int(rng.integers(1, 4)),
                             num_actions=int(rng.integers(1, 4)),
                             discount=float(rng.uniform(0.1, 0.95)))
            value, greedy = solve_optimal(mdp, 1e-10)
            oracle = best_deterministic_value(mdp)
            assert np.allclose(value.values, oracle, atol=1e-9)
            achieved = evaluate_policy(mdp, greedy)
            assert np.allclose(achieved.values, oracle, atol=1e-9)

    def test_greedy_ties_break_low(self):
        mdp = Mdp(states=("s",), actions=("a", "b"),
                  transitions=[[[1.0], [1.0]]], rewards=[[1.0, 1.0]],
                  discount=0.5)
        _, strategy = solve_optimal(mdp, 1e-10)
        assert np.array_equal(strategy.probabilities, [[1.0, 0.0]])

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            solve_optimal(single_state_mdp(0.0, 0.9), 0.0)


class TestPolicyIterationProperties:
    @settings(max_examples=150, deadline=None)
    @given(small_mdps())
    def test_exact_optimum(self, mdp):
        value, greedy = solve_optimal(mdp)
        v = value.values
        margin = 1e-12 * max(1.0, float(np.max(np.abs(v))))
        backup = bellman_optimal(mdp, value).values
        assert np.max(np.abs(backup - v)) <= margin
        assert np.all(v >= best_deterministic_value(mdp) - margin)
        achieved = evaluate_policy(mdp, greedy).values
        assert np.max(np.abs(achieved - v)) <= margin


class TestDiscountGuard:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, -0.5, np.nan, np.inf,
                                       -np.inf])
    def test_planners_reject_discount_outside_open_unit_interval(self, gamma):
        mdp = single_state_mdp(1.0, gamma)
        with pytest.raises(ValueError, match="discount"):
            evaluate_policy(mdp, MarkovStrategy([[1.0]]))
        with pytest.raises(ValueError, match="discount"):
            solve_optimal(mdp)
        with pytest.raises(ValueError, match="discount"):
            alpha_optimality(mdp, MarkovStrategy([[1.0]]))


class TestAlphaOptimality:
    def test_zero_for_computed_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mdp = random_mdp(rng)
            _, greedy = solve_optimal(mdp, 1e-10)
            assert abs(alpha_optimality(mdp, greedy, 1e-10)) <= 2e-10

    def test_dominant_action_gap_matches_enumeration(self):
        # action 0 dominates everywhere; the uniform strategy leaves value
        # on the table, measured exactly by enumerating all 4 policies.
        mdp = Mdp(states=("0", "1"), actions=("good", "bad"),
                  transitions=[[[0.7, 0.3], [0.3, 0.7]],
                               [[0.6, 0.4], [0.1, 0.9]]],
                  rewards=[[1.0, 0.2], [0.8, 0.1]], discount=0.8)
        uniform = MarkovStrategy(np.full((2, 2), 0.5))
        gap = alpha_optimality(mdp, uniform, 1e-10)
        oracle = np.max(best_deterministic_value(mdp)
                        - policy_value_direct(mdp, uniform))
        assert gap == pytest.approx(oracle, abs=1e-9)
        assert gap > 0.1


class TestOperatorProperties:
    def test_contraction_in_sup_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            mdp = random_mdp(rng, num_states=int(rng.integers(2, 5)),
                             num_actions=int(rng.integers(1, 4)),
                             discount=float(rng.uniform(0.05, 0.99)))
            v1 = ValueFunction(rng.normal(size=mdp.num_states))
            v2 = ValueFunction(rng.normal(size=mdp.num_states))
            strategy = MarkovStrategy(
                rng.dirichlet(np.ones(mdp.num_actions), size=mdp.num_states))
            gap = np.max(np.abs(v1.values - v2.values))
            fixed_gap = np.max(np.abs(
                bellman_policy(mdp, strategy, v1).values
                - bellman_policy(mdp, strategy, v2).values))
            best_gap = np.max(np.abs(bellman_optimal(mdp, v1).values
                                     - bellman_optimal(mdp, v2).values))
            slack = 1e-12
            assert fixed_gap <= mdp.discount * gap + slack
            assert best_gap <= mdp.discount * gap + slack

    def test_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            mdp = random_mdp(rng)
            low = rng.normal(size=3)
            high = low + rng.uniform(0, 1, size=3)
            out_low = bellman_optimal(mdp, ValueFunction(low)).values
            out_high = bellman_optimal(mdp, ValueFunction(high)).values
            assert np.all(out_low <= out_high + 1e-12)

    def test_values_stay_in_reward_range(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            mdp = random_mdp(rng, reward_low=-2.0, reward_high=3.0)
            strategy = MarkovStrategy(rng.dirichlet(np.ones(2), size=3))
            value = evaluate_policy(mdp, strategy).values
            assert np.all(value >= mdp.rewards.min() - 1e-10)
            assert np.all(value <= mdp.rewards.max() + 1e-10)

    def test_optimal_value_span_bounded_by_reward_span(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mdp = random_mdp(rng, reward_low=-1.0, reward_high=2.0)
            value, _ = solve_optimal(mdp, 1e-10)
            value_span = value.values.max() - value.values.min()
            reward_span = mdp.rewards.max() - mdp.rewards.min()
            assert value_span <= reward_span + 1e-9

    def test_optimal_dominates_every_policy(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            mdp = random_mdp(rng)
            optimal, _ = solve_optimal(mdp, 1e-10)
            for strategy in deterministic_policies(3, 2):
                achieved = evaluate_policy(mdp, strategy)
                assert np.all(optimal.values >= achieved.values - 1e-9)

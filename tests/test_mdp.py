import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    best_deterministic_value,
    deterministic_policies,
    policy_value_direct,
    random_game,
    random_mdp,
    reference_action_values,
    reference_profile_values,
    reference_stage_payoffs,
    reference_strategy_rewards,
    reference_strategy_transitions,
    small_mdps,
)
from mpekit.equilibrium import certify_profile
from mpekit.games import (GameValidationError, MarkovGame, MarkovStrategy,
                          StrategyProfile, ValueFunction, induced_mdp)
from mpekit.mdp import (
    _action_values,
    _best_response,
    _policy_values,
    _profile_chain,
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
    return MarkovGame(states=("s",), action_sets=[("a",)],
                      transitions=[[[1.0]]], rewards=[[[reward]]],
                      discount=gamma)


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
                                         * mdp.rewards[0]).sum(axis=1)
        assert np.allclose(out.values, expected)

    def test_two_state_cycle_by_hand(self):
        mdp = MarkovGame(states=("l", "r"), action_sets=[("go",)],
                         transitions=[[[0.0, 1.0]], [[1.0, 0.0]]],
                         rewards=[[[1.0], [0.0]]], discount=0.5)
        out = bellman_policy(mdp, MarkovStrategy([[1.0], [1.0]]),
                             ValueFunction([0.0, 0.0]))
        assert np.allclose(out.values, [0.5, 0.0])

    def test_dimension_mismatch(self):
        mdp = single_state_mdp(0.0, 0.9)
        with pytest.raises(ValueError, match=r"^strategy of player 1 has "
                           r"shape \(1, 2\), expected \(1, 1\)$"):
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
                           (1 - mdp.discount) * mdp.rewards[0].max(axis=1))

    def test_two_state_two_action_tableau(self):
        # state 0: action 0 pays 1 and stays, action 1 pays 0 and moves;
        # state 1: action 0 pays 0 and stays, action 1 pays 2 and moves.
        mdp = MarkovGame(states=("0", "1"), action_sets=[("stay", "move")],
                         transitions=[[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                         rewards=[[[1.0, 0.0], [0.0, 2.0]]], discount=0.5)
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
        vhat_1, vhat_2 = perturbed_mpe.certificate.per_player_value
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
        best_1, _ = solve_optimal(induced_mdp(original_game, profile, 0))
        best_2, _ = solve_optimal(induced_mdp(original_game, profile, 1))
        assert np.allclose(best_1.values, BEST_P1, atol=1e-4)
        assert np.allclose(best_2.values, BEST_P2, atol=1e-4)

    def test_single_action_equals_policy_value(self):
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, num_actions=1)
        value, strategy = solve_optimal(mdp)
        only = evaluate_policy(mdp, MarkovStrategy(np.ones((3, 1))))
        assert np.allclose(value.values, only.values, atol=1e-9)
        assert np.array_equal(strategy.probabilities, np.ones((3, 1)))

    def test_matches_exhaustive_policy_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            mdp = random_mdp(rng, num_states=int(rng.integers(1, 4)),
                             num_actions=int(rng.integers(1, 4)),
                             discount=float(rng.uniform(0.1, 0.95)))
            value, greedy = solve_optimal(mdp)
            oracle = best_deterministic_value(mdp)
            assert np.allclose(value.values, oracle, atol=1e-9)
            achieved = evaluate_policy(mdp, greedy)
            assert np.allclose(achieved.values, oracle, atol=1e-9)

    def test_greedy_ties_break_low(self):
        mdp = MarkovGame(states=("s",), action_sets=[("a", "b")],
                         transitions=[[[1.0], [1.0]]], rewards=[[[1.0, 1.0]]],
                         discount=0.5)
        _, strategy = solve_optimal(mdp)
        assert np.array_equal(strategy.probabilities, [[1.0, 0.0]])


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
        # The MDP is checked when it is built, so no planner ever sees it.
        with pytest.raises(GameValidationError) as excinfo:
            single_state_mdp(1.0, gamma)
        assert excinfo.value.violations == [
            f"discount {float(gamma)!r} outside the open interval (0, 1)"]


def test_policy_iteration_raises_on_a_revisited_policy(original_game):
    # A transition row that is not a distribution makes gamma P expand, and
    # Howard's policies cycle (by step 2 for player 1, 3 for player 2). No
    # game holds such a row, so the guard is reached on the raw arrays of
    # the model each player faces when the other plays uniformly. The timer
    # turns a spin into a failure instead of a hang.
    transitions = original_game.transitions.copy()
    transitions[2, 3] = [5.0, 0.2, 0.1]
    with pytest.raises(GameValidationError) as excinfo:
        replace(original_game, transitions=transitions)
    assert excinfo.value.violations == [
        "transition row (state '3', action (2,2)) sums to 5.3, not 1 within "
        "1e-09"]
    p = transitions.reshape(3, 2, 2, 3)
    r = original_game.rewards.reshape(2, 3, 2, 2)
    models = ((p.mean(axis=2), r[0].mean(axis=2)),
              (p.mean(axis=1), r[1].mean(axis=1)))

    def spin(signum, frame):
        raise TimeoutError("policy iteration still running after 1 s")

    previous = signal.signal(signal.SIGALRM, spin)
    try:
        for trans, rew in models:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(ValueError, match="revisited a policy.*"
                                                 "distribution"):
                _best_response(trans, rew, original_game.discount)
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_planners_reject_a_game_of_two_players():
    game = random_game(np.random.default_rng(13))
    strategy = MarkovStrategy(np.full((3, 2), 0.5))
    v = ValueFunction(np.zeros(3))
    calls = (lambda: bellman_policy(game, strategy, v),
             lambda: bellman_optimal(game, v),
             lambda: evaluate_policy(game, strategy),
             lambda: solve_optimal(game))
    for call in calls:
        with pytest.raises(ValueError, match="2 players"):
            call()


def bellman_calls(mdp, v):
    """Both Bellman operators on ``v``, the fixed one under uniform play."""
    num_states, num_actions = mdp.transitions.shape[:2]
    uniform = MarkovStrategy(np.full((num_states, num_actions),
                                     1.0 / num_actions))
    return (lambda: bellman_policy(mdp, uniform, v),
            lambda: bellman_optimal(mdp, v))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bellman_operators_reject_non_finite_values(bad):
    # Like every value-taking function, not a NaN result or a warning.
    mdp = random_mdp(np.random.default_rng(3))
    for call in bellman_calls(mdp, ValueFunction([0.0, bad, 0.0])):
        with pytest.raises(ValueError, match=r"^value function is not "
                                             r"finite at entry \[1\]$"):
            call()


def test_bellman_operators_take_a_plain_array():
    # A plain array is a value function, as for delta_term.
    mdp = random_mdp(np.random.default_rng(3))
    values = np.random.default_rng(4).uniform(size=3)
    for plain, wrapped in zip(bellman_calls(mdp, values),
                              bellman_calls(mdp, ValueFunction(values))):
        assert plain().values.tobytes() == wrapped().values.tobytes()
    for call in bellman_calls(mdp, values[:2]):
        with pytest.raises(ValueError, match=r"^value function has shape "
                                             r"\(2,\) for 3 states$"):
            call()


def optimality_gap(mdp, strategy):
    """An MDP strategy's optimality gap: its one-player certificate."""
    profile = StrategyProfile((strategy,))
    return certify_profile(mdp, profile).per_player_alpha[0]


class TestAlphaOptimality:
    def test_zero_for_computed_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mdp = random_mdp(rng)
            _, greedy = solve_optimal(mdp)
            assert abs(optimality_gap(mdp, greedy)) <= 2e-10

    def test_dominant_action_gap_matches_enumeration(self):
        # action 0 dominates everywhere; the uniform strategy leaves value
        # on the table, measured exactly by enumerating all 4 policies.
        mdp = MarkovGame(states=("0", "1"), action_sets=[("good", "bad")],
                         transitions=[[[0.7, 0.3], [0.3, 0.7]],
                                      [[0.6, 0.4], [0.1, 0.9]]],
                         rewards=[[[1.0, 0.2], [0.8, 0.1]]], discount=0.8)
        uniform = MarkovStrategy(np.full((2, 2), 0.5))
        gap = optimality_gap(mdp, uniform)
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
                rng.dirichlet(np.ones(mdp.action_counts[0]),
                              size=mdp.num_states))
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
            assert np.all(value >= mdp.rewards[0].min() - 1e-10)
            assert np.all(value <= mdp.rewards[0].max() + 1e-10)

    def test_optimal_value_span_bounded_by_reward_span(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mdp = random_mdp(rng, reward_low=-1.0, reward_high=2.0)
            value, _ = solve_optimal(mdp)
            value_span = value.values.max() - value.values.min()
            reward_span = mdp.rewards[0].max() - mdp.rewards[0].min()
            assert value_span <= reward_span + 1e-9

    def test_optimal_dominates_every_policy(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            mdp = random_mdp(rng)
            optimal, _ = solve_optimal(mdp)
            for strategy in deterministic_policies(3, 2):
                achieved = evaluate_policy(mdp, strategy)
                assert np.all(optimal.values >= achieved.values - 1e-9)


@st.composite
def games_with_profiles(draw, players, max_states, max_actions):
    """A game of ``players`` (low, high) players, a profile on it and one
    value vector per player.

    Each strategy is mixed or, half the time, pure, so that joint weights
    of exactly zero and one occur.
    """
    counts = tuple(draw(st.lists(st.integers(1, max_actions),
                                 min_size=players[0], max_size=players[1])))
    num_states = draw(st.integers(1, max_states))
    gamma = draw(st.floats(0.05, 0.999))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = random_game(rng, num_states, counts, gamma, -3.0, 3.0)
    strategies = []
    for count in counts:
        probs = rng.dirichlet(np.ones(count), size=num_states)
        if draw(st.booleans()):
            probs = np.eye(count)[probs.argmax(axis=1)]
        strategies.append(MarkovStrategy(probs))
    values = rng.uniform(-3.0, 3.0, size=(len(counts), num_states))
    return game, StrategyProfile(tuple(strategies)), values


class TestEvaluationKernels:
    """One Q-value kernel and one profile chain serve MDPs and games."""

    @settings(max_examples=150, deadline=None)
    @given(games_with_profiles((2, 2), max_states=40, max_actions=4))
    def test_two_player_kernels_match_the_solver_copies_bit_for_bit(
            self, case):
        game, profile, values = case
        q = _action_values(game, values)
        expected = reference_stage_payoffs(game, values)
        assert q.reshape(expected.shape).tobytes() == expected.tobytes()
        state = game.num_states - 1
        assert (_action_values(game, values, state).tobytes()
                == q[:, state].tobytes())
        pi1, pi2 = (s.probabilities for s in profile.strategies)
        chain = _policy_values(game, *_profile_chain(
            game.transitions, game.rewards, (pi1, pi2))).T
        assert (chain.tobytes()
                == reference_profile_values(game, pi1, pi2).tobytes())

    @settings(max_examples=100, deadline=None)
    @given(games_with_profiles((1, 3), max_states=12, max_actions=3))
    def test_chain_value_matches_each_induced_mdp(self, case):
        game, profile, _ = case
        chain = _policy_values(game, *_profile_chain(
            game.transitions, game.rewards,
            [s.probabilities for s in profile.strategies])).T
        for player, strategy in enumerate(profile.strategies):
            mdp = induced_mdp(game, profile, player)
            value = evaluate_policy(mdp, strategy).values
            scale = max(1.0, np.abs(value).max())
            assert np.max(np.abs(chain[player] - value)) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None)
    @given(games_with_profiles((1, 1), max_states=30, max_actions=6))
    def test_mdp_operators_match_their_first_copies_within_roundoff(
            self, case):
        # The kernels scale P by gamma before the dot product and sum the
        # expected reward by einsum, so the MDP results may move in the
        # last bits (one ulp in 3,000 drawn cases) against the copies they
        # replaced, never by more.
        mdp, profile, values = case
        strategy = profile.strategies[0]
        v = ValueFunction(values[0])
        q = reference_action_values(mdp, v.values)
        chain = (reference_strategy_transitions(mdp, strategy),
                 reference_strategy_rewards(mdp, strategy))
        old = [(strategy.probabilities * q).sum(axis=1), q.max(axis=1),
               _policy_values(mdp, *chain)]
        new = [bellman_policy(mdp, strategy, v).values,
               bellman_optimal(mdp, v).values,
               evaluate_policy(mdp, strategy).values]
        for before, after in zip(old, new):
            scale = max(1.0, np.abs(before).max())
            assert np.max(np.abs(after - before)) <= 2e-15 * scale

import hashlib
import itertools
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from helpers import (nash_deviation_gain, random_game,
                     reference_bimatrix_nash, reference_enumeration_sweep,
                     reference_solve_mpe)
from mpekit import solver
from mpekit.equilibrium import certify_profile
from mpekit.experiments import run_trial
from mpekit.games import (GameValidationError, MarkovGame, MarkovStrategy,
                          StrategyProfile, bundled_game)
from mpekit.mdp import _action_values
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


def one_sided_cells(shape, k1, k2):
    """The cells of the taller lines of a one-sided class (k1, k2), in the
    supports' scan order: its own record's."""
    return solver._support_class(*shape, k1, k2)[2]


def class_supports(shape, k1, k2):
    """The supports of a class, in scan order: support j is
    (rows[j // C], cols[j % C]) of its record's C column subsets."""
    rows, cols, _ = solver._support_class(*shape, k1, k2)
    return [(rows[r], cols[c]) for r, c in (
        divmod(j, len(cols)) for j in range(len(rows) * len(cols)))]


@st.composite
def bimatrix_games(draw):
    """Payoff pairs of shape up to 6x6, both drawn from one entry family."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    entries = draw(st.sampled_from(PAYOFF_ENTRIES))
    return (draw(arrays(np.float64, shape, elements=entries)),
            draw(arrays(np.float64, shape, elements=entries)))


#: Entries whose zeros are signed: a selected -0.0 cell pays 0.0.
SIGNED_ZEROS = st.sampled_from([-0.0, 0.0, 1.0, -1.0])


@st.composite
def payoff_stacks(draw):
    """Stage payoffs of 1-6 states, shape up to 6x6: (2, S, m, n)."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)),
             draw(st.integers(1, 6)))
    entries = draw(st.sampled_from(PAYOFF_ENTRIES + (SIGNED_ZEROS,)))
    return draw(arrays(np.float64, (2,) + shape, elements=entries))


@st.composite
def sweep_inputs(draw):
    """A game of 1-6 states with up to 6x6 actions and a value pair. The
    rewards and values share one entry family; deterministic transition
    rows keep the ties that family makes."""
    num_states = draw(st.integers(1, 6))
    counts = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    joint = counts[0] * counts[1]
    entries = draw(st.sampled_from(PAYOFF_ENTRIES))
    rewards = draw(arrays(np.float64, (2, num_states, joint),
                          elements=entries))
    values = draw(arrays(np.float64, (2, num_states), elements=entries))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        transitions = rng.dirichlet(np.ones(num_states),
                                    size=(num_states, joint))
    else:
        transitions = np.eye(num_states)[
            rng.integers(num_states, size=(num_states, joint))]
    discount = draw(st.sampled_from([0.5, 0.9, 0.99]))
    return game_from_arrays(rewards, transitions, counts, discount), values


def game_from_arrays(rewards, transitions, counts, discount):
    """A two-player game with states and actions named by index."""
    return MarkovGame(
        states=tuple(str(s) for s in range(np.shape(rewards)[1])),
        action_sets=tuple(tuple(str(a) for a in range(c)) for c in counts),
        transitions=transitions,
        rewards=rewards,
        discount=discount,
    )


def one_state_game(payoff_a, payoff_b):
    """A one-state game whose stage payoffs at zero values are exactly
    (payoff_a, payoff_b): discount 1/2 and rewards twice the payoffs."""
    counts = np.shape(payoff_a)
    rewards = 2.0 * np.stack([payoff_a, payoff_b]).reshape(2, 1, -1)
    return game_from_arrays(rewards, np.ones((1, rewards.shape[2], 1)),
                            counts, 0.5)


def boundary_game(delta):
    """A 3x2 game with no pure equilibrium whose first (1, 2) support is
    row 0 with B[0] = [0, delta]: rows 1-2 play matching pennies, row 0
    pays 0 against both columns. With payoffs at most 1, tol = 1e-9, and
    the residual bound of that support is about delta / sqrt(6): at
    delta = 4 tol the filter drops it; at 0.5, 1 and 2 tol it reaches the
    exact check, which selects it at 0.5 and 1 tol."""
    a = np.array([[0.0, 0.0], [1.0, -1.0], [-1.0, 1.0]])
    b = np.array([[0.0, delta], [-1.0, 1.0], [1.0, -1.0]])
    return a, b


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

    @pytest.mark.parametrize("state", [True, False, 1.0, -1, 3],
                             ids=["true", "false", "float", "negative", "S"])
    def test_rejects_a_state_that_is_not_a_state_index(self, perturbed_game,
                                                       state):
        # True gave every state's payoffs, False none and 1.0 a bare
        # IndexError.
        with pytest.raises(ValueError, match=r"^state "):
            stage_game(perturbed_game, np.zeros((2, 3)), state)

    def test_rejects_short_and_non_finite_values(self, perturbed_game):
        # A short vector failed inside np.vecdot with a gufunc message, and
        # a NaN entry gave NaN payoffs.
        with pytest.raises(ValueError,
                           match="^need one value vector per player$"):
            stage_game(perturbed_game, [np.zeros(3)], 0)
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
        # A NaN in the second matrix alone must fail too.
        with pytest.raises(ValueError, match="finite"):
            bimatrix_nash(np.zeros((2, 2)), [[np.nan, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_rejects_an_empty_matrix(self, shape):
        # Numpy's max over no entries raised "zero-size array to reduction
        # operation maximum which has no identity".
        with pytest.raises(ValueError, match=rf"^payoff matrices of shape "
                                             rf"\({shape[0]}, {shape[1]}\)"):
            bimatrix_nash(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("scale", [1e12, 1e200, 1e300])
    def test_huge_payoffs_raise_no_warning(self, scale):
        # At 1e200 a rectangular support's least-squares mixture came out
        # all zero, and normalizing it warned "invalid value encountered in
        # divide"; the selection never used it. From 1e9 up (tol >= 1) the
        # scan keeps every non-square support unfiltered; the 3x4 and 4x3
        # draws reach its two-sided rectangular classes there.
        rng = np.random.default_rng(5)
        for shape in [(2, 2)] * 300 + [(3, 4), (4, 3)] * 100:
            payoff_a = rng.uniform(-1, 1, size=shape) * scale
            payoff_b = rng.uniform(-1, 1, size=shape) * scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x, y, payoffs = bimatrix_nash(payoff_a, payoff_b)
            tol = 1e-9 * max(np.abs(payoff_a).max(), np.abs(payoff_b).max())
            with np.errstate(all="ignore"):
                ref_x, ref_y, ref_payoffs = reference_bimatrix_nash(
                    payoff_a, payoff_b, tol)
            assert x.tobytes() == ref_x.tobytes()
            assert y.tobytes() == ref_y.tobytes()
            assert (np.array(payoffs).tobytes()
                    == np.array(ref_payoffs).tobytes())

    def test_payoffs_beyond_the_limit_fail_fast(self):
        # Differences of payoffs near the float maximum overflowed: the
        # call warned and returned x = y = (0.5, 0.5, 0), though the third
        # row pays 0.15 M against that y.
        big = np.finfo(float).max
        payoffs = np.array([[1, -1, 0.5], [-1, 1, 0.25], [0.1, 0.2, -1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"at most 4\.49423e\+307 "):
                bimatrix_nash(payoffs * big, -payoffs.T * big)
            with pytest.raises(ValueError, match="finite"):
                bimatrix_nash(np.full((2, 2), -np.inf), np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 4), (4, 4),
                                       (6, 6)])
    def test_payoffs_at_the_limit_stay_finite(self, shape):
        # At the limit every difference the scan forms stays finite, so no
        # overflow warns and the pair returned is an equilibrium.
        rng = np.random.default_rng(3)
        for _ in range(50):
            payoff_a, payoff_b = (rng.integers(-2, 3, size=(2, *shape)) / 2
                                  * solver._PAYOFF_LIMIT)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x, y, _ = bimatrix_nash(payoff_a, payoff_b)
            gain = nash_deviation_gain(payoff_a / solver._PAYOFF_LIMIT,
                                       payoff_b / solver._PAYOFF_LIMIT, x, y)
            assert gain <= 1e-9

    @pytest.mark.parametrize("k", [4, 6])
    def test_overflowing_square_solves_are_dropped(self, k):
        # Wilkinson's growth matrix doubles its last column at each pivot,
        # so at the limit the equalizing solves of its supports from 3x3 up
        # come out non-finite, with no warning. Those supports are dropped,
        # and the scan picks the support it picks at scale 1.
        growth = np.eye(k) - np.tril(np.ones((k, k)), -1)
        growth[:, -1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, y, _ = bimatrix_nash(growth * solver._PAYOFF_LIMIT,
                                    -growth * solver._PAYOFF_LIMIT)
        small_x, small_y, _ = bimatrix_nash(growth, -growth)
        assert np.array_equal(x > 0, small_x > 0)
        assert np.array_equal(y > 0, small_y > 0)
        assert nash_deviation_gain(growth, -growth, x, y) <= 1e-9

    #: A 2x2 game one unit in the last place from integer payoffs. At tol 0
    #: no pure cell passes: the best, (row 1, column 0), gains 2**-52. The
    #: scan's one candidate, row 1 against the mixture (2/3, 1/3), passes
    #: its residual test and gains 2**-52 too, so the smallest-gain
    #: fallback decides, on a tie.
    TIE_A = np.array([[-1.0, 0.0], [2.0**-52, -2.0]])
    TIE_B = np.array([[2.0, -1.0 - 2.0**-52], [-2.0, -2.0 + 2.0**-52]])

    def test_fallback_keeps_the_earlier_pair_on_a_tie(self):
        # A later candidate that ties must not replace the seed: a ``<=``
        # in the fallback update returns the mixture instead.
        x, y = solver._mixed_supports(np.stack([self.TIE_A, self.TIE_B]), 0.0,
                                      np.array([0.0, 1.0]),
                                      np.array([1.0, 0.0]), 2.0**-52)
        assert x.tolist() == [0.0, 1.0] and y.tolist() == [1.0, 0.0]

    def test_fallback_is_seeded_by_the_best_pure_cell(self, monkeypatch):
        """A direct ``_mixed_supports`` call passes its own seed, so only a
        call through ``_stage_nash`` tells a seed of gain np.inf apart from
        the pure cell's: with it the tied candidate would win."""
        monkeypatch.setattr(solver, "_NASH_TOL", 0.0)
        x, y, (payoff_x, payoff_y) = bimatrix_nash(self.TIE_A, self.TIE_B)
        assert x.tolist() == [0.0, 1.0] and y.tolist() == [1.0, 0.0]
        assert (payoff_x, payoff_y) == (2.0**-52, -2.0)


def stacked(*games):
    """One (2, S, m, n) payoff stack from S games of one shape."""
    return np.stack([np.stack(game) for game in games], axis=1)


BOUNDARY = stacked(*(boundary_game(k * 1e-9) for k in (0.5, 1.0, 2.0, 4.0)))
#: Rank-one blocks: every square support of size 2 or more is singular.
RANK_ONE = stacked((np.outer([1.0, 2.0, -1.0, 0.5], [1.0, -1.0, 2.0, 0.5]),
                    np.outer([-1.0, 0.5, 2.0, 1.0], [0.5, 2.0, -1.0, 1.0])))
#: Matching pennies with row 0 and column 1 duplicated.
PENNIES = np.array([[1.0, -1.0, -1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]])
#: Four 4x4 stage games without a pure equilibrium that settle at supports
#: of sizes (1, 2), (3, 3), (4, 4) and (2, 2), each after 18 to 57 supports
#: that fail the deviation check. The last has a rank-one A (three equal
#: rows), so its square systems that take two of those rows are singular.
SETTLE_SIZES = stacked(
    (np.array([[0, -2, -1, -2], [-1, 0, -2, -2], [-2, 2, 1, 2],
               [-2, 0, 0, -2]], dtype=float),
     np.array([[-2, 1, -2, 2], [2, 2, 1, -2], [2, -1, -2, -2],
               [1, 1, 1, 1]], dtype=float)),
    (np.array([[0, -1, 1, 2], [0, 0, 1, 1], [1, -1, 0, 1], [0, 0, 2, 0]],
              dtype=float),
     np.array([[-1, -1, 2, -1], [1, 0, 0, 1], [-2, -2, -1, 0],
               [1, 0, 0, 0]], dtype=float)),
    (np.array([[-2, 0, 0, 1], [0, 2, 2, -2], [1, 1, -2, 1],
               [2, -1, -2, 1]], dtype=float),
     np.array([[1, -1, -1, -2], [-1, 1, -2, 2], [-1, -1, 1, 0],
               [-2, 0, 1, 0]], dtype=float)),
    (np.outer([1, 1, 1, 0], [0, 4, -4, -2]).astype(float),
     np.array([[1, -1, -2, 2], [1, -2, 2, 2], [-2, -2, -1, 1],
               [-2, 2, -2, -2]], dtype=float)))


class TestStackedKernel:
    """``solver._stage_nash`` solves every state of a stack at once; each
    state's result must be the pair-by-pair enumeration's, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(payoff_stacks())
    @example(BOUNDARY)
    @example(np.swapaxes(BOUNDARY[::-1], 2, 3))
    @example(BOUNDARY * 1e8)
    @example(RANK_ONE)
    @example(stacked((PENNIES, -PENNIES)))
    @example(stacked((np.array([[-0.0, -1.0], [-1.0, -0.0]]),
                      np.array([[-1.0, -0.0], [-0.0, -1.0]]))))
    @example(stacked((np.array([[-0.0, -1.0]]), np.array([[-0.0, -1.0]]))))
    @example(SETTLE_SIZES)
    def test_matches_reference_enumeration_per_state(self, stack):
        # BOUNDARY's first (1, 2) support pays the column player 0 and
        # delta = 0.5, 1, 2 and 4 tol, so its residual bound is about
        # delta / sqrt(6); its mirror (players swapped) puts the same line
        # in a (2, 1) support, and times 1e8 it sits at the scaled tol.
        # Duplicated rows and columns and rank-one blocks make singular
        # square systems, which a stacked solve rejects as a whole. A
        # selected -0.0 cell pays 0.0. In SETTLE_SIZES each state stops at
        # its own support size, and the failed candidates before it must
        # not displace its equilibrium.
        x, y, values = solver._stage_nash(stack)
        for s in range(stack.shape[1]):
            payoff_a, payoff_b = stack[0, s], stack[1, s]
            tol = 1e-9 * max(1.0, np.abs(payoff_a).max(),
                             np.abs(payoff_b).max())
            ref_x, ref_y, ref_values = reference_bimatrix_nash(
                payoff_a, payoff_b, tol)
            assert x[s].tobytes() == ref_x.tobytes(), s
            assert y[s].tobytes() == ref_y.tobytes(), s
            assert values[:, s].tobytes() == np.array(ref_values).tobytes()

    def test_boundary_supports_reach_the_exact_check(self):
        # The filter drops only the support whose bound is 4 tol; at 0.5
        # and 1 tol the exact check accepts it: row 0 against a uniform mix.
        cell = solver._support_class(3, 2, 1, 2)[2]
        keep = [bool(solver._one_sided_survivors(
                    BOUNDARY[:, s].reshape(-1), 1e-9, cell)[0])
                for s in range(4)]
        assert keep == [True, True, True, False]
        x, y, _ = solver._stage_nash(BOUNDARY)
        assert x[:2].tolist() == [[1.0, 0.0, 0.0]] * 2
        assert np.allclose(y[:2], 0.5, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 4), (4, 3)])
    def test_dropped_supports_fail_the_exact_residual_test(self, shape):
        # Payoffs of 0.5 moved by up to 3 tol: every taller block nearly
        # equalizes, so its residual sits around the filter's boundary.
        # The filter may keep a support the exact test rejects, never the
        # reverse.
        rng = np.random.default_rng(sum(shape))
        stack = 0.5 + 1e-9 * rng.uniform(-3.0, 3.0, size=(2, 40) + shape)
        dropped = kept = 0
        for k1, k2 in np.ndindex(shape[0] + 1, shape[1] + 1):
            if k1 == k2 or min(k1, k2) == 0:
                continue
            rows, cols, _ = solver._support_class(*shape, k1, k2)
            supports = class_supports(shape, k1, k2)
            for payoffs in np.swapaxes(stack, 0, 1):
                if min(k1, k2) == 1:
                    keep = solver._one_sided_survivors(
                        payoffs.reshape(-1), 1e-9,
                        one_sided_cells(shape, k1, k2))
                else:
                    keep = solver._rectangular_survivors(payoffs, 1e-9, rows,
                                                         cols)
                assert len(keep) == len(supports)
                for (r, c), passes in zip(supports, keep):
                    block_a = payoffs[0][np.ix_(r, c)]
                    block_b = payoffs[1][np.ix_(r, c)].T
                    taller = block_b if k1 < k2 else block_a
                    if not passes:
                        assert solver._equalizer(taller, 1e-9) is None
                        dropped += 1
                    else:
                        kept += 1
        assert dropped and kept

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 4), (4, 3),
                                       (6, 6), (2, 5), (5, 2)])
    def test_support_class_record_gathers_the_scanned_blocks(self, shape):
        # Each class's one record holds its row and column subsets, whose
        # product in scan order (rows outer, lexicographic) is its
        # supports, and the cells its scan gathers: the row and column
        # parts of both equalized blocks of a square support; the taller
        # lines of a one-sided class, B[r, C] for (1, k) and A[R, c] for
        # (k, 1), its own only; nothing for the other rectangular classes.
        payoffs = np.random.default_rng(0).normal(size=(2,) + shape)
        flat = payoffs.reshape(-1)
        for k1, k2 in np.ndindex(shape[0] + 1, shape[1] + 1):
            if min(k1, k2) == 0:
                continue
            rows, cols, cells = solver._support_class(*shape, k1, k2)
            arrays = [rows, cols] + list(cells if k1 == k2 else [cells])
            assert not any(array.flags.writeable
                           for array in arrays if array is not None)
            supports = class_supports(shape, k1, k2)
            assert [(tuple(r), tuple(c)) for r, c in supports] == list(
                itertools.product(
                    itertools.combinations(range(shape[0]), k1),
                    itertools.combinations(range(shape[1]), k2)))
            block_a = np.array([payoffs[0][np.ix_(r, c)]
                                for r, c in supports])
            block_b = np.array([payoffs[1][np.ix_(r, c)].T
                                for r, c in supports])
            if k1 == k2:
                row_part, col_part = cells
                assert row_part.shape == (2, len(rows), 1, k1, k1)
                assert col_part.shape == (2, 1, len(cols), k1, k1)
                assert np.array_equal(
                    flat[row_part + col_part].reshape(2, -1, k1, k1),
                    [block_a, block_b])
            elif k1 == 1:
                assert cells.shape == (len(supports), k2)
                assert np.array_equal(flat[cells], block_b[:, :, 0])
            elif k2 == 1:
                assert cells.shape == (len(supports), k1)
                assert np.array_equal(flat[cells], block_a[:, :, 0])
            else:
                assert cells is None

    def test_support_class_records_stay_small(self, monkeypatch):
        # A record keeps the subsets of its supports, not their product:
        # after one 8x8 zero-sum solve, the records of the classes the
        # scan reached hold at most 0.5 MB (3.7 MB with every support
        # expanded).
        reached = set()
        cached = solver._support_class
        cached.cache_clear()
        monkeypatch.setattr(solver, "_support_class", lambda *key: (
            reached.add(key) or cached(*key)))
        payoff_a = np.random.default_rng(0).normal(size=(8, 8))
        bimatrix_nash(payoff_a, -payoff_a)
        assert len(reached) > 20
        held = 0
        for key in reached:
            for part in cached(*key):
                for array in part if isinstance(part, tuple) else [part]:
                    held += 0 if array is None else array.nbytes
        assert held <= 0.5e6

    def test_stage_nash_corpus_digest_is_pinned(self, monkeypatch):
        # The corpus is every sweep input of the plug-in solves of desk
        # trials 0-7 at master seed 1, then seeded random 4x4 (20 states)
        # and 6x6 (3 states) games, integer rewards with zero values (tied
        # payoffs) and uniform rewards with normal values. Each input's
        # result runs one more sweep. Each input runs from C-order and
        # F-order values, which must give the same bytes (at 20 states a
        # value row's stride once moved them), so the digest hashes one
        # run. It runs in well under a second, so a kernel change that
        # moves any bit of any sweep fails here first.
        inputs = []
        sweep = solver._iterate
        monkeypatch.setattr(solver, "_iterate", lambda game, v: (
            inputs.append((game, v)) or sweep(game, v)))
        desk = bundled_game("two_player_original")
        for trial in range(8):
            run_trial(desk, 111_227, trial, 1)
        monkeypatch.undo()
        assert len(inputs) == 88
        rng = np.random.default_rng(29)
        for num_states, count in ((20, 4), (3, 6)):
            game = random_game(rng, num_states, (count, count), 0.9)
            tied = replace(game, rewards=rng.integers(
                -3, 4, size=game.rewards.shape).astype(float))
            inputs += [(tied, np.zeros((2, num_states))),
                       (game, rng.normal(size=(2, num_states)))]
        digest = hashlib.sha256()
        for game, v in inputs:
            runs = []
            for values in (np.ascontiguousarray(v), np.asfortranarray(v)):
                run = b""
                for _ in range(2):
                    values, pi1, pi2 = solver._iterate(game, values)
                    run += b"".join(a.tobytes() for a in (values, pi1, pi2))
                runs.append(run)
            assert runs[1] == runs[0]
            digest.update(runs[0])
        assert digest.hexdigest() == (
            "8aefdc334bbfc9ab24418429235809f9cd4f56420356eb6eb2a845fe47385b8d")

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([3, 9, 20, 50]), st.integers(2, 5),
           st.integers(2, 5), st.sampled_from([0.5, 0.9, 0.99]),
           st.integers(0, 2**32 - 1))
    def test_sweeps_round_by_values_not_layout(self, num_states, m, n,
                                               discount, seed):
        # A dot rounds by its operands' strides; action values, a sweep and
        # a stage game must come out of C-order, F-order and strided values
        # with the same bytes.
        rng = np.random.default_rng(seed)
        game = random_game(rng, num_states, (m, n), discount)
        v = rng.normal(size=(2, num_states))
        wide = np.zeros((2, 3 * num_states))
        wide[:, ::3] = v
        state = int(rng.integers(num_states))
        runs = [[array.tobytes() for array in (
            _action_values(game, values), *solver._iterate(game, values),
            *stage_game(game, values, state))]
            for values in (v, np.asfortranarray(v), wide[:, ::3])]
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    @settings(max_examples=60, deadline=None)
    @given(sweep_inputs())
    @example((one_state_game(*boundary_game(2e-9)), np.zeros((2, 1))))
    def test_sweep_matches_reference_enumeration(self, inputs):
        # _reference_sweep calls bimatrix_nash itself; this oracle solves
        # every stage game by plain enumeration. The second sweep starts
        # from the first one's values, which must not round differently
        # for their memory layout.
        game, v = inputs
        ours = solver._iterate(game, v)
        theirs = reference_enumeration_sweep(game, v)
        for _ in range(2):
            for mine, reference in zip(ours, theirs):
                assert mine.shape == reference.shape
                assert mine.tobytes() == reference.tobytes()
            ours = solver._iterate(game, ours[0])
            theirs = reference_enumeration_sweep(game, theirs[0])


def result_bytes(profile, certificate) -> list[bytes]:
    """The bytes of a profile's strategies and of its certificate."""
    return [a.tobytes() for a in (
        *(strategy.probabilities for strategy in profile.strategies),
        certificate.per_player_alpha,
        *(value.values for value in (
            *certificate.per_player_value,
            *certificate.per_player_best_response_value)))]


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

    def test_fifty_state_profile_bytes_are_pinned(self):
        # The 3-state goldens cannot see every rounding of the sweeps: this
        # pins the profile of a 50-state 6x6 solve at gamma 0.99, whose
        # policy iteration sweeps from exact profile evaluations.
        game = random_game(np.random.default_rng(0), 50, (6, 6), 0.99)
        result = solve_mpe(game, max_iter=10)
        digest = hashlib.sha256()
        for strategy in result.profile.strategies:
            digest.update(strategy.probabilities.tobytes())
        assert digest.hexdigest() == (
            "946f0b3016f68c75ae60fc64ad6049aa350dae76d6d4f685bb6055574d5e2ccb")
        assert result.iterations == 18
        assert result.converged

    def test_rejects_non_two_player(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="two-player"):
            solve_mpe(random_game(rng, action_counts=(2, 2, 2)))
        with pytest.raises(ValueError):
            solve_mpe(random_game(rng), tol=0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_a_bad_seed_before_any_sweep(self, monkeypatch, seed):
        # The seed was first used by value iteration: after policy
        # iteration, -1 failed with numpy's "expected non-negative integer"
        # and 1.5 with a TypeError, and where policy iteration certified,
        # neither was looked at.
        game = random_game(np.random.default_rng(21), 3, (2, 2), 0.9)
        monkeypatch.setattr(solver, "_iterate", None)
        with pytest.raises(ValueError, match=(
                rf"^seed must be a nonnegative integer, got {seed!r}$")):
            solve_mpe(game, max_iter=50, seed=seed)

    def test_rejects_nan_tol(self, perturbed_game):
        with pytest.raises(ValueError, match="tol"):
            solve_mpe(perturbed_game, tol=float("nan"), max_iter=200)

    @pytest.mark.parametrize("gamma", [1.5, 1.0, np.nan])
    def test_rejects_discount_outside_open_unit_interval_at_once(
            self, perturbed_game, gamma):
        # The game is checked when it is built, so the solver never sees it.
        start = time.perf_counter()
        with pytest.raises(GameValidationError) as info:
            replace(perturbed_game, discount=gamma)
        assert info.value.violations == [
            f"discount {gamma!r} outside the open interval (0, 1)"]
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("field, where, entry, message", [
        ("rewards", (0, 1, 2), np.nan,
         "reward of player 1 at (state '2', action (2,1)) is not finite"),
        ("transitions", (1, 2), [0.5, 0.2, 0.2],
         "transition row (state '2', action (2,1)) sums to "
         "0.8999999999999999, not 1 within 1e-09"),
    ], ids=["nan-reward", "short-row"])
    def test_rejects_a_broken_game_before_any_sweep(
            self, original_game, capfd, field, where, entry, message):
        # The NaN reward printed thousands of LAPACK DLASCL lines from
        # lstsq before a policy-value error; the short row converged. Now
        # neither game can be built, so no sweep can run on it.
        broken = np.array(getattr(original_game, field))
        broken[where] = entry
        with pytest.raises(GameValidationError) as info:
            replace(original_game, **{field: broken})
        assert info.value.violations == [message]
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out + captured.err

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
            # The reference keeps the strict minimum of its candidates'
            # gaps; solve_mpe certifies them all too, and keeps one within
            # its roundoff margin of the minimum.
            margin = solver._GAP_MARGIN * max(1.0,
                                              np.abs(game.rewards).max())
            assert (result.certificate.max_alpha
                    <= reference.certificate.max_alpha + margin)

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

    @pytest.mark.parametrize("seed, num_states, counts, max_iter", [
        (21, 3, (2, 2), 300),
        (0, 5, (6, 6), 60),
    ], ids=["value-iteration-kept", "policy-iteration-kept"])
    def test_non_convergence_still_returns_certificate(
            self, seed, num_states, counts, max_iter):
        # Neither policy nor value iteration certifies these games. On the
        # first the reference's profile is kept (gap about 0.035, against
        # 0.074 for policy iteration's); on the second policy iteration's
        # (about 0.0143, against 0.0236).
        game = random_game(np.random.default_rng(seed), num_states, counts,
                           0.9)
        result = solve_mpe(game, max_iter=max_iter)
        assert not result.converged
        assert len(result.certificate.per_player_alpha) == 2
        assert np.all(np.isfinite(result.certificate.per_player_alpha))
        # Every sweep of all three attempts ran, after policy iteration's
        # full budget.
        reference = reference_solve_mpe(game, max_iter=max_iter)
        assert result.iterations == (reference.iterations
                                     + solver._WARM_SWEEPS
                                     + solver._MAX_EVALUATIONS)
        same = all(
            ours.probabilities.tobytes() == theirs.probabilities.tobytes()
            for ours, theirs in zip(result.profile.strategies,
                                    reference.profile.strategies))
        assert same or (result.certificate.max_alpha
                        < reference.certificate.max_alpha)

    @pytest.mark.parametrize("seed, num_states, counts", [
        (27, 3, (2, 2)), (16, 6, (3, 3))])
    def test_kept_candidate_is_stable_under_roundoff(
            self, monkeypatch, seed, num_states, counts):
        # No candidate converges on these games, and distinct profiles on
        # value iteration's cycles have smallest gaps that agree to 13
        # digits. Moving every gap by up to a tenth of the margin (rewards
        # lie in [0, 1]), as an equally exact evaluation may, must not
        # change the profile kept.
        game = random_game(np.random.default_rng(seed), num_states, counts,
                           0.9)
        gaps = {pi1.tobytes() + pi2.tobytes(): certify_profile(
                    game, StrategyProfile((MarkovStrategy(pi1),
                                           MarkovStrategy(pi2)))).max_alpha
                for pi1, pi2, _ in solver._candidates(game, 1e-8, 1000, 0)}
        smallest = min(gaps.values())
        assert sum(gap <= smallest + solver._GAP_MARGIN
                   for gap in gaps.values()) >= 2
        expected = solve_mpe(game, max_iter=1000)
        assert not expected.converged
        for noise_seed in range(4):
            rng = np.random.default_rng(noise_seed)

            def jittered(*args):
                certificate = certify_profile(*args)
                alpha = certificate.per_player_alpha + rng.uniform(
                    -0.1, 0.1, 2) * solver._GAP_MARGIN
                return replace(certificate, per_player_alpha=alpha)

            monkeypatch.setattr(solver, "certify_profile", jittered)
            result = solve_mpe(game, max_iter=1000)
            for ours, theirs in zip(result.profile.strategies,
                                    expected.profile.strategies):
                assert (ours.probabilities.tobytes()
                        == theirs.probabilities.tobytes()), noise_seed

    def test_certifies_each_distinct_candidate_once(self, monkeypatch):
        # At the default max_iter each value-iteration attempt on this game
        # enters a cycle of period 3 after 339-343 sweeps: the stream yields
        # policy iteration's profile and each attempt's 3, only 3 of the 10
        # distinct; a loop that certified each would certify the repeats.
        game = random_game(np.random.default_rng(21), 3, (2, 2), 0.9)
        candidates = list(solver._candidates(game, 1e-8, 10_000, 0))
        assert [steps for _, _, steps in candidates] == [
            63, 406, 407, 408, 749, 750, 751, 1090, 1091, 1092]
        assert len({(pi1.tobytes(), pi2.tobytes())
                    for pi1, pi2, _ in candidates}) == 3
        margin = solver._GAP_MARGIN * max(1.0, np.abs(game.rewards).max())
        kept = None
        for pi1, pi2, _ in candidates:      # the loop that certified each
            profile = StrategyProfile((MarkovStrategy(pi1),
                                       MarkovStrategy(pi2)))
            certificate = certify_profile(game, profile)
            gap = certificate.max_alpha
            if (kept is None or gap <= 1e-8
                    or gap < kept[1].max_alpha - margin):
                kept = profile, certificate
        calls = []
        monkeypatch.setattr(solver, "certify_profile", lambda *args: (
            calls.append(args) or certify_profile(*args)))
        result = solve_mpe(game)
        assert len(calls) == 3
        assert not result.converged
        assert result.iterations == candidates[-1][2]
        assert result_bytes(result.profile, result.certificate) == \
            result_bytes(*kept)

    def test_restarts_are_two_draws_from_the_seed(self, monkeypatch):
        # One (2, 2, S) draw gives the values two (2, S) draws gave, in
        # order. At max_iter=1 each attempt is one sweep, and the last three
        # sweeps are the attempts'.
        game = random_game(np.random.default_rng(21), 3, (2, 2), 0.9)
        inputs = []
        iterate = solver._iterate
        monkeypatch.setattr(solver, "_iterate", lambda game, v: (
            inputs.append(v) or iterate(game, v)))
        list(solver._candidates(game, 1e-8, 1, 5))
        rng = np.random.default_rng(5)
        low, high = game.rewards.min(), game.rewards.max()
        assert inputs[-3].tobytes() == np.zeros((2, 3)).tobytes()
        for start in inputs[-2:]:
            assert start.tobytes() == rng.uniform(low, high,
                                                  size=(2, 3)).tobytes()

    @pytest.mark.parametrize("seed, period", [(21, 3), (27, 20)])
    def test_a_repeat_stop_leaves_no_profile_unyielded(self, seed, period):
        # A sweep is a pure function of its input values, so after the
        # first attempt's stop, two more periods of sweeps give only
        # profiles the attempt has yielded: its last and its lap's.
        game = random_game(np.random.default_rng(seed), 3, (2, 2), 0.9)
        candidates = list(solver._candidates(game, 1e-8, 10_000, 0))
        first = candidates[1:1 + period]
        assert [steps for _, _, steps in first] == list(
            range(first[0][2], first[0][2] + period))
        assert candidates[1 + period][2] > first[-1][2] + 1
        yielded = {(pi1.tobytes(), pi2.tobytes()) for pi1, pi2, _ in first}
        v, seen = np.zeros((2, 3)), set()
        while v.tobytes() not in seen:
            seen.add(v.tobytes())
            v = solver._iterate(game, v)[0]
        assert len(seen) == first[0][2] - candidates[0][2]
        for _ in range(2 * period):
            v, pi1, pi2 = solver._iterate(game, v)
            assert (pi1.tobytes(), pi2.tobytes()) in yielded

    @pytest.mark.parametrize("num_states,counts,seeds", [
        (3, (2, 2), range(40)),
        (6, (3, 3), range(20)),
    ])
    def test_cycle_stop_is_within_the_margin_of_the_reference(
            self, num_states, counts, seeds):
        # At 1000 sweeps every attempt on these games that does not settle
        # enters its cycle. The reference certifies snapshots of full
        # attempts, which may precede the cycle; a snapshot on it is one of
        # the profiles the lap yields.
        for seed in seeds:
            game = random_game(np.random.default_rng(seed), num_states,
                               counts, 0.9)
            result = solve_mpe(game, max_iter=1000)
            if result.converged:
                continue
            reference = reference_solve_mpe(game, max_iter=1000)
            assert not reference.converged, seed
            margin = solver._GAP_MARGIN * max(1.0,
                                              np.abs(game.rewards).max())
            assert (result.certificate.max_alpha
                    <= reference.certificate.max_alpha + margin), seed

    def test_rewards_beyond_the_limit_fail_before_any_sweep(self,
                                                           monkeypatch):
        # The restart draw raised "high - low range exceeds valid bounds"
        # after a full attempt; every sweep before it overflowed.
        game = random_game(np.random.default_rng(1), 3, (2, 2), 0.9)
        huge = replace(game, rewards=(game.rewards - 0.5) * 1.8
                       * np.finfo(float).max)
        monkeypatch.setattr(solver, "_iterate", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"at most 4\.49423e\+307 "):
                solve_mpe(huge)

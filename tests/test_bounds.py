import math

import numpy as np
import pytest

from helpers import perturb_game, random_game, random_mdp
from mpekit.bounds import (
    _sample_size_real,
    alpha_bound_instance,
    alpha_bound_ipm,
    alpha_bound_tv,
    alpha_bound_w,
    delta_term,
    hoeffding_tail,
    lipschitz_value_bound,
    mdp_alpha_bound,
    robustness_report,
    sample_size_game,
    sample_size_mdp,
)
from mpekit.equilibrium import certify_profile
from mpekit.games import Mdp, default_line_metric
from mpekit.mdp import alpha_optimality, solve_optimal
from mpekit.metrics import (
    TOTAL_VARIATION,
    WASSERSTEIN,
    game_approx_params,
    lipschitz_constant,
    span,
    wasserstein1,
)

# Frozen reference quantities for the bundled pair.
EXPECTED_DELTA_TERMS = (0.000784, 0.000550)
EXPECTED_INSTANCE_BOUNDS = (0.034112, 0.029900)
EXPECTED_TV_BOUNDS = (0.034116, 0.029903)
EXPECTED_W1_BOUNDS = (0.048231, 0.039782)


@pytest.fixture(scope="module")
def equilibrium_values(perturbed_game, perturbed_mpe):
    return [v.values for v in perturbed_mpe.values]


class TestDeltaTerm:
    def test_identical_games_give_zero(self, original_game):
        value = np.linspace(0.0, 1.0, 3)
        assert delta_term(original_game, original_game, value) == 0.0

    def test_reference_values(self, original_game, perturbed_game,
                              equilibrium_values):
        d1 = delta_term(original_game, perturbed_game, equilibrium_values[0])
        d2 = delta_term(original_game, perturbed_game, equilibrium_values[1])
        assert d1 == pytest.approx(EXPECTED_DELTA_TERMS[0], abs=1e-6)
        assert d2 == pytest.approx(EXPECTED_DELTA_TERMS[1], abs=1e-6)

    def test_matches_explicit_loop(self, original_game, perturbed_game):
        rng = np.random.default_rng(0)
        value = rng.normal(size=3)
        expected = 0.0
        for s in range(3):
            for j in range(4):
                gap = abs((original_game.transitions[s, j]
                           - perturbed_game.transitions[s, j]) @ value)
                expected = max(expected, gap)
        assert delta_term(original_game, perturbed_game,
                          value) == pytest.approx(expected, abs=1e-15)

    def test_accepts_mdp_pairs(self):
        rng = np.random.default_rng(1)
        mdp = random_mdp(rng)
        other = random_mdp(rng)
        value = rng.normal(size=3)
        assert delta_term(mdp, other, value) >= 0.0

    def test_shape_checks(self, original_game):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="shape"):
            delta_term(original_game, random_mdp(rng), np.zeros(3))
        with pytest.raises(ValueError, match="states"):
            delta_term(original_game, original_game, np.zeros(2))


class TestBoundArithmetic:
    def test_instance_bound_reference_inputs(self):
        assert alpha_bound_instance(0.01, 0.000784, 0.9) == pytest.approx(
            0.034112, abs=1e-12)
        assert alpha_bound_instance(0.01, 0.000550, 0.9) == pytest.approx(
            0.029900, abs=1e-12)

    def test_instance_bound_exact_model(self):
        for gamma in (0.1, 0.5, 0.99):
            assert alpha_bound_instance(0.0, 0.0, gamma) == 0.0

    def test_ipm_bound_reference_inputs(self):
        assert alpha_bound_ipm(0.01, 0.05, 0.015684, 0.9) == pytest.approx(
            0.034116, abs=1e-6)
        assert alpha_bound_ipm(0.01, 0.10, 0.015684, 0.9) == pytest.approx(
            0.048231, abs=1e-6)
        assert alpha_bound_ipm(0.01, 0.05, 0.010990, 0.9) == pytest.approx(
            0.029891, abs=1e-6)

    def test_tv_bound_plug_in(self):
        assert alpha_bound_tv(0.0, 0.0, 5.0, 0.9) == 0.0
        assert alpha_bound_tv(0.01, 0.05, 0.9, 0.9) == pytest.approx(0.83)

    def test_w_bound_plug_in(self):
        assert alpha_bound_w(0.0, 0.0, 1.0, 0.5, 0.9) == 0.0
        assert alpha_bound_w(0.01, 0.10, 1.0, 0.5, 0.9) == pytest.approx(
            2 * (0.01 + 0.09 / 0.55), abs=1e-12)
        assert alpha_bound_w(0.01, 0.10, 1.0, 0.5, 0.9) == pytest.approx(
            0.34727, abs=1e-5)

    def test_w_bound_inapplicable_at_boundary(self):
        with pytest.raises(ValueError, match="inapplicable"):
            alpha_bound_w(0.01, 0.1, 1.0, 1.0 / 0.9, 0.9)
        with pytest.raises(ValueError, match="inapplicable"):
            lipschitz_value_bound(1.0, 2.0, 0.9)

    def test_gamma_range_enforced(self):
        for bad in (0.0, 1.0, -0.5, 2.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="discount"):
                alpha_bound_instance(0.1, 0.1, bad)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            alpha_bound_ipm(-0.01, 0.05, 1.0, 0.9)

    def test_mdp_alpha_bound_shares_arithmetic(self):
        assert mdp_alpha_bound(0.01, 0.000784, 0.9) == alpha_bound_instance(
            0.01, 0.000784, 0.9)
        assert mdp_alpha_bound(0.01, 0.000784, 0.9) == pytest.approx(
            0.034112, abs=1e-12)


class TestLipschitzValueBound:
    def test_flat_rewards_give_zero(self):
        assert lipschitz_value_bound(0.0, 0.5, 0.9) == 0.0

    def test_unit_case(self):
        assert lipschitz_value_bound(1.0, 0.0, 0.9) == pytest.approx(0.1)

    def test_caps_optimal_value_smoothness(self):
        # Transitions mix a state-independent anchor with a small
        # state-dependent part, keeping the kernel's smoothness constant
        # below 1/gamma so the cap applies.
        rng = np.random.default_rng(3)
        metric = default_line_metric(3)
        checked = 0
        for _ in range(60):
            anchor = rng.dirichlet(np.ones(3))
            transitions = np.zeros((3, 2, 3))
            for s in range(3):
                for a in range(2):
                    transitions[s, a] = (0.8 * anchor
                                         + 0.2 * rng.dirichlet(np.ones(3)))
            mdp = Mdp(states=("0", "1", "2"), actions=("a", "b"),
                      transitions=transitions,
                      rewards=rng.uniform(0, 1, size=(3, 2)),
                      discount=0.9)
            l_r = max(
                lipschitz_constant(mdp.rewards[:, a], metric)
                for a in range(2))
            l_p = max(
                wasserstein1(mdp.transitions[s1, a], mdp.transitions[s2, a],
                             metric) / abs(s1 - s2)
                for a in range(2)
                for s1 in range(3) for s2 in range(3) if s1 != s2)
            if mdp.discount * l_p >= 1.0:
                continue
            checked += 1
            value, _ = solve_optimal(mdp, 1e-10)
            cap = lipschitz_value_bound(l_r, l_p, mdp.discount)
            assert lipschitz_constant(value.values, metric) <= cap + 1e-8
        assert checked >= 30


class TestHoeffdingTail:
    def test_large_gap_vanishes(self):
        assert hoeffding_tail(100, 10.0, 1.0) < 1e-300

    def test_monotone_in_n(self):
        assert hoeffding_tail(1, 0.3, 1.0) >= hoeffding_tail(2, 0.3, 1.0)

    def test_closed_form(self):
        assert hoeffding_tail(50, 0.1, 2.0) == pytest.approx(
            2.0 * math.exp(-2.0 * 50 * 0.01 / 4.0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hoeffding_tail(0, 0.1, 1.0)
        with pytest.raises(ValueError):
            hoeffding_tail(10, 0.0, 1.0)
        with pytest.raises(ValueError):
            hoeffding_tail(10, 0.1, 0.0)

    def test_bernoulli_deviation_frequency_below_bound(self):
        # Empirical mean of n coin flips: the observed frequency of
        # |mean - p| >= gap over many repetitions must stay below the tail.
        rng = np.random.default_rng(4)
        n, p, gap, reps = 40, 0.35, 0.15, 10_000
        flips = rng.random((reps, n)) < p
        deviations = np.abs(flips.mean(axis=1) - p) >= gap
        bound = hoeffding_tail(n, gap, 1.0)
        assert deviations.mean() <= bound
        assert bound < 1.0  # the check is not vacuous


class TestSampleSizes:
    def test_reference_game_budget(self):
        n = sample_size_game(0.1, 0.01, 0.9, 3, [2, 2], 2, 0.9)
        assert abs(n - 111_227) <= 1

    def test_doubling_alpha_quarters_the_budget(self):
        n1 = sample_size_game(0.1, 0.01, 0.9, 3, [2, 2], 2, 0.9)
        n2 = sample_size_game(0.2, 0.01, 0.9, 3, [2, 2], 2, 0.9)
        assert n2 == math.ceil(
            _sample_size_real(0.1, 0.01, 0.9, 3 * 4 * 2, 0.9) / 4.0)
        assert abs(n1 / n2 - 4.0) < 1e-3

    def test_single_player_reduces_to_mdp_formula(self):
        assert sample_size_game(0.1, 0.01, 0.9, 3, [4], 1, 0.9) == \
            sample_size_mdp(0.1, 0.01, 0.9, 3, 4, 0.9)

    def test_constant_rewards_floor_at_one(self):
        assert sample_size_mdp(0.1, 0.01, 0.0, 3, 4, 0.9) == 1
        assert sample_size_game(0.1, 0.01, 0.0, 3, [2, 2], 2, 0.9) == 1

    def test_halving_p_adds_fixed_increment(self):
        base = _sample_size_real(0.1, 0.01, 0.9, 3 * 4 * 2, 0.9)
        halved = _sample_size_real(0.1, 0.005, 0.9, 3 * 4 * 2, 0.9)
        increment = (0.9 / 0.1 * 0.9) ** 2 * 2.0 * math.log(2.0) / 0.01
        assert halved - base == pytest.approx(increment, rel=1e-12)

    def test_monotonicity(self):
        base = sample_size_game(0.1, 0.01, 0.9, 3, [2, 2], 2, 0.9)
        assert sample_size_game(0.05, 0.01, 0.9, 3, [2, 2], 2, 0.9) > base
        assert sample_size_game(0.1, 0.001, 0.9, 3, [2, 2], 2, 0.9) > base
        assert sample_size_game(0.1, 0.01, 0.9, 6, [2, 2], 2, 0.9) > base
        assert sample_size_game(0.1, 0.01, 0.9, 3, [3, 2], 2, 0.9) > base
        assert sample_size_game(0.1, 0.01, 0.9, 3, [2, 2, 2], 3, 0.9) > base
        assert sample_size_game(0.1, 0.01, 0.9, 3, [2, 2], 2, 0.95) > base
        assert sample_size_game(0.1, 0.01, 1.8, 3, [2, 2], 2, 0.9) > base

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_size_game(0.0, 0.01, 0.9, 3, [2, 2], 2, 0.9)
        with pytest.raises(ValueError):
            sample_size_game(0.1, 1.5, 0.9, 3, [2, 2], 2, 0.9)
        with pytest.raises(ValueError):
            sample_size_game(0.1, 0.01, 0.9, 3, [2], 2, 0.9)
        with pytest.raises(ValueError):
            sample_size_mdp(0.1, 0.01, 0.9, 0, 4, 0.9)


class TestRobustnessReport:
    def test_bundled_pair_total_variation(self, original_game, perturbed_game,
                                          perturbed_mpe):
        report = robustness_report(original_game, perturbed_game,
                                   TOTAL_VARIATION,
                                   profile=perturbed_mpe.profile)
        assert report.epsilon == pytest.approx(0.01, abs=1e-12)
        assert report.delta == pytest.approx(0.05, abs=1e-12)
        assert np.allclose(report.per_player_delta_term, EXPECTED_DELTA_TERMS,
                           atol=1e-6)
        assert np.allclose(report.alpha_ipm, EXPECTED_TV_BOUNDS, atol=1e-6)
        # the instance tier agrees with the reference arithmetic to the
        # published precision of the delta terms (6 decimals)
        assert np.allclose(report.alpha_instance, EXPECTED_INSTANCE_BOUNDS,
                           atol=2e-5)
        assert np.all(report.alpha_instance
                      <= report.alpha_ipm + 1e-12)
        assert np.all(report.alpha_ipm <= report.alpha_corollary + 1e-12)

    def test_bundled_pair_wasserstein(self, original_game, perturbed_game,
                                      perturbed_mpe):
        report = robustness_report(original_game, perturbed_game, WASSERSTEIN,
                                   profile=perturbed_mpe.profile)
        assert report.delta == pytest.approx(0.10, abs=1e-12)
        assert np.allclose(report.alpha_ipm, EXPECTED_W1_BOUNDS, atol=1e-6)
        assert np.all(report.alpha_instance <= report.alpha_ipm + 1e-12)
        if report.alpha_corollary is not None:
            assert np.all(report.alpha_ipm
                          <= report.alpha_corollary + 1e-12)

    def test_values_and_profile_are_equivalent(self, original_game,
                                               perturbed_game, perturbed_mpe,
                                               equilibrium_values):
        via_profile = robustness_report(original_game, perturbed_game,
                                        TOTAL_VARIATION,
                                        profile=perturbed_mpe.profile)
        via_values = robustness_report(original_game, perturbed_game,
                                       TOTAL_VARIATION,
                                       values=equilibrium_values)
        assert np.allclose(via_profile.alpha_instance,
                           via_values.alpha_instance, atol=1e-12)
        with pytest.raises(ValueError, match="exactly one"):
            robustness_report(original_game, perturbed_game, TOTAL_VARIATION)

    def test_ladder_monotone_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            game = random_game(rng)
            near = perturb_game(rng, game)
            profile_rng = np.random.default_rng(rng.integers(2**32))
            from helpers import random_profile

            profile = random_profile(profile_rng, game)
            for kind in (TOTAL_VARIATION, WASSERSTEIN):
                report = robustness_report(game, near, kind, profile=profile)
                assert np.all(report.alpha_instance
                              <= report.alpha_ipm + 1e-12)
                if kind == TOTAL_VARIATION:
                    assert np.all(report.alpha_ipm
                                  <= report.alpha_corollary + 1e-12)

    def test_delta_term_never_exceeds_ipm_relaxation(self, original_game,
                                                     perturbed_game,
                                                     equilibrium_values):
        metric = default_line_metric(3)
        for value in equilibrium_values:
            gap = delta_term(original_game, perturbed_game, value)
            tv_params = game_approx_params(original_game, perturbed_game,
                                           TOTAL_VARIATION)
            w_params = game_approx_params(original_game, perturbed_game,
                                          WASSERSTEIN)
            assert gap <= tv_params.delta * span(value) + 1e-12
            assert gap <= w_params.delta * lipschitz_constant(value,
                                                              metric) + 1e-12


class TestSoundness:
    """The bounds must dominate the certified gaps they claim to cap."""

    def test_mdp_bound_covers_certified_gap(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            mdp = random_mdp(rng, num_states=int(rng.integers(2, 4)),
                             num_actions=int(rng.integers(2, 4)),
                             discount=float(rng.uniform(0.3, 0.95)))
            noise_r = rng.uniform(0.0, 0.03)
            noise_p = rng.uniform(0.0, 0.1)
            rewards = mdp.rewards + rng.uniform(-noise_r, noise_r,
                                                size=mdp.rewards.shape)
            mix = rng.dirichlet(np.ones(mdp.num_states),
                                size=mdp.transitions.shape[:2])
            transitions = (1 - noise_p) * mdp.transitions + noise_p * mix
            approx = Mdp(states=mdp.states, actions=mdp.actions,
                         transitions=transitions, rewards=rewards,
                         discount=mdp.discount)
            value_hat, policy_hat = solve_optimal(approx, 1e-10)
            certified = alpha_optimality(mdp, policy_hat, 1e-10)
            epsilon = float(np.max(np.abs(mdp.rewards - approx.rewards)))
            gap = delta_term(mdp, approx, value_hat.values)
            bound = mdp_alpha_bound(epsilon, gap, mdp.discount)
            assert certified <= bound + 1e-8

    def test_game_bound_covers_certified_equilibrium_gap(self, original_game,
                                                         perturbed_game,
                                                         perturbed_mpe):
        certificate = certify_profile(original_game, perturbed_mpe.profile)
        report = robustness_report(original_game, perturbed_game,
                                   TOTAL_VARIATION,
                                   profile=perturbed_mpe.profile)
        assert np.all(certificate.per_player_alpha
                      <= report.alpha_instance + 1e-8)
        assert np.all(certificate.per_player_alpha
                      <= report.alpha_ipm + 1e-8)
        assert np.all(certificate.per_player_alpha
                      <= report.alpha_corollary + 1e-8)

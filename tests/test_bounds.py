import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import perturb_game, random_game, random_mdp, random_profile
from mpekit import metrics
from mpekit.bounds import (
    _sample_size_real,
    alpha_bound_ipm,
    delta_term,
    hoeffding_tail,
    lipschitz_value_bound,
    robustness_report,
    sample_size_game,
)
from mpekit.equilibrium import certify_profile
from mpekit.games import MarkovGame, StrategyProfile, default_line_metric
from mpekit.mdp import solve_optimal
from mpekit.metrics import (
    TOTAL_VARIATION,
    WASSERSTEIN,
    ApproximationParams,
    comparison_metric,
    game_approx_params,
    game_lipschitz_constants,
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
    return [v.values for v in perturbed_mpe.certificate.per_player_value]


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
        with pytest.raises(ValueError, match="states"):
            delta_term(original_game, original_game, np.zeros((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, original_game, perturbed_game,
                                       bad):
        with pytest.raises(ValueError, match=r"not finite at entry \[1\]"):
            delta_term(original_game, perturbed_game, [0.5, bad, 0.5])


class TestBoundArithmetic:
    def test_instance_bound_reference_inputs(self):
        # The instance bound is the IPM bound at rho = 1.
        assert alpha_bound_ipm(0.01, 0.000784, 1.0, 0.9) == pytest.approx(
            0.034112, abs=1e-12)
        assert alpha_bound_ipm(0.01, 0.000550, 1.0, 0.9) == pytest.approx(
            0.029900, abs=1e-12)

    def test_instance_bound_exact_model(self):
        for gamma in (0.1, 0.5, 0.99):
            assert alpha_bound_ipm(0.0, 0.0, 1.0, gamma) == 0.0

    def test_ipm_bound_reference_inputs(self):
        assert alpha_bound_ipm(0.01, 0.05, 0.015684, 0.9) == pytest.approx(
            0.034116, abs=1e-6)
        assert alpha_bound_ipm(0.01, 0.10, 0.015684, 0.9) == pytest.approx(
            0.048231, abs=1e-6)
        assert alpha_bound_ipm(0.01, 0.05, 0.010990, 0.9) == pytest.approx(
            0.029891, abs=1e-6)

    def test_tv_bound_plug_in(self):
        # rho is bounded by the reward span
        assert alpha_bound_ipm(0.0, 0.0, 5.0, 0.9) == 0.0
        assert alpha_bound_ipm(0.01, 0.05, 0.9, 0.9) == pytest.approx(0.83)

    def test_w_bound_plug_in(self):
        # The Wasserstein worst case is the IPM bound with rho the
        # Lipschitz value bound: 2 (epsilon + gamma L_r delta / (1 - gamma L_P)).
        def w_bound(epsilon, delta, l_r, l_p, gamma):
            return alpha_bound_ipm(epsilon, delta,
                                   lipschitz_value_bound(l_r, l_p, gamma),
                                   gamma)

        assert w_bound(0.0, 0.0, 1.0, 0.5, 0.9) == 0.0
        assert w_bound(0.01, 0.10, 1.0, 0.5, 0.9) == pytest.approx(
            2 * (0.01 + 0.09 / 0.55), abs=1e-12)
        assert w_bound(0.01, 0.10, 1.0, 0.5, 0.9) == pytest.approx(
            0.34727, abs=1e-5)

    def test_w_bound_inapplicable_at_boundary(self):
        with pytest.raises(ValueError, match="inapplicable"):
            lipschitz_value_bound(1.0, 1.0 / 0.9, 0.9)
        with pytest.raises(ValueError, match="inapplicable"):
            lipschitz_value_bound(1.0, 2.0, 0.9)

    def test_gamma_range_enforced(self):
        for bad in (0.0, 1.0, -0.5, 2.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="discount"):
                alpha_bound_ipm(0.1, 0.1, 1.0, bad)

    def test_negative_inputs_rejected(self):
        # NaN fails "value < 0" as well as "value >= 0"; it must not pass.
        calls = {
            "epsilon": [lambda x: alpha_bound_ipm(x, 0.05, 1.0, 0.9),
                        lambda x: ApproximationParams(x, 0.1, WASSERSTEIN)],
            "delta": [lambda x: alpha_bound_ipm(0.01, x, 1.0, 0.9),
                      lambda x: ApproximationParams(0.1, x, WASSERSTEIN)],
            "rho": [lambda x: alpha_bound_ipm(0.01, 0.05, x, 0.9)],
            "l_r": [lambda x: lipschitz_value_bound(x, 0.5, 0.9)],
            "l_p": [lambda x: lipschitz_value_bound(1.0, x, 0.9)],
        }
        for name, functions in calls.items():
            for function in functions:
                for bad in (-0.01, np.nan):
                    with pytest.raises(ValueError,
                                       match=f"^{name} must be nonnegative"):
                        function(bad)

    @pytest.mark.parametrize("call, name", [
        (lambda: alpha_bound_ipm(0.1, np.inf, 0.0, 0.9), "delta"),
        (lambda: lipschitz_value_bound(np.inf, 0.0, 0.9), "l_r"),
        (lambda: ApproximationParams(np.inf, 0.0, TOTAL_VARIATION),
         "epsilon"),
        (lambda: hoeffding_tail(10, np.inf, np.inf), "gap"),
        (lambda: hoeffding_tail(10, 0.1, np.inf), "span_h"),
    ], ids=["ipm", "l_r", "params", "hoeffding-gap", "hoeffding-span"])
    def test_rejects_infinite_inputs(self, call, name):
        # An infinite input makes a bound NaN: inf times zero, or inf over
        # inf.
        with pytest.raises(ValueError, match=f"^{name} must be .* finite, "
                                             f"got inf$"):
            call()

    def test_instance_bound_reference_input(self):
        assert alpha_bound_ipm(0.01, 0.000784, 1.0, 0.9) == pytest.approx(
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
            mdp = MarkovGame(states=("0", "1", "2"), action_sets=[("a", "b")],
                             transitions=transitions,
                             rewards=[rng.uniform(0, 1, size=(3, 2))],
                             discount=0.9)
            l_r = max(
                lipschitz_constant(mdp.rewards[0][:, a], metric)
                for a in range(2))
            l_p = max(
                wasserstein1(mdp.transitions[s1, a], mdp.transitions[s2, a],
                             metric) / abs(s1 - s2)
                for a in range(2)
                for s1 in range(3) for s2 in range(3) if s1 != s2)
            if mdp.discount * l_p >= 1.0:
                continue
            checked += 1
            value, _ = solve_optimal(mdp)
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
        with pytest.raises(ValueError, match="^n must"):
            hoeffding_tail(np.nan, 0.1, 1.0)
        with pytest.raises(ValueError, match="^gap must"):
            hoeffding_tail(10, np.nan, 1.0)
        with pytest.raises(ValueError, match="^span_h must"):
            hoeffding_tail(10, 0.1, np.nan)

    def test_counts_beyond_the_float_range_give_zero(self):
        # 10**400 raised OverflowError where 10**308 gave 0.0.
        assert hoeffding_tail(10 ** 308, 0.1, 1.0) == 0.0
        assert hoeffding_tail(10 ** 400, 0.1, 1.0) == 0.0

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
            math.ceil(_sample_size_real(0.1, 0.01, 0.9, 3 * 4, 0.9))

    def test_constant_rewards_floor_at_one(self):
        assert sample_size_game(0.1, 0.01, 0.0, 3, [4], 1, 0.9) == 1
        assert sample_size_game(0.1, 0.01, 0.0, 3, [2, 2], 2, 0.9) == 1
        # alpha * alpha underflows to zero here; the budget is still 1.
        assert sample_size_game(1e-300, 0.01, 0.0, 3, [2, 2], 2, 0.9) == 1

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
            sample_size_game(0.1, 0.01, 0.9, 0, [4], 1, 0.9)

    @pytest.mark.parametrize("alpha, span_reward, match", [
        (np.nan, 0.9, "^alpha must"),
        (np.inf, 0.9, "^alpha must"),
        (0.1, np.nan, "^span_reward must"),
        (0.1, np.inf, "^span_reward must"),
        (1e-300, 0.9, "^sample budget is not finite"),
        (1e-160, 0.9, "^sample budget is not finite"),
        (0.1, 1e200, "^sample budget is not finite"),
    ])
    def test_non_finite_budgets_raise_domain_errors(self, alpha, span_reward,
                                                    match):
        # These raised OverflowError, ZeroDivisionError, or a ValueError
        # naming no operand.
        with pytest.raises(ValueError, match=match):
            sample_size_game(alpha, 0.01, span_reward, 3, [2, 2], 2, 0.9)

    @pytest.mark.parametrize("num_states, action_counts, bits", [
        (10 ** 400, [2, 2], 1331),
        (np.int64(3), [10 ** 400, 2], 1332),
    ], ids=["states", "numpy-times-huge"])
    def test_union_count_beyond_the_float_range_is_named(
            self, num_states, action_counts, bits):
        # Each raised OverflowError converting the count to a float.
        with pytest.raises(ValueError, match="^" + re.escape(
                "num_states * joint actions * num_players is at least "
                f"2**{bits}, beyond the float range") + "$"):
            sample_size_game(0.1, 0.01, 0.9, num_states, action_counts, 2,
                             0.9)

    def test_numpy_counts_do_not_wrap(self):
        # The int64 product wrapped to 0 (with a RuntimeWarning); as Python
        # ints the counts give the budget of 2**101 pairs.
        counts = (np.int64(2 ** 40), [np.int64(2 ** 30)] * 2, np.int64(2))
        assert sample_size_game(0.1, 0.01, 0.9, *counts, 0.9) == \
            sample_size_game(0.1, 0.01, 0.9, 2 ** 40, [2 ** 30] * 2, 2, 0.9)

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

    @pytest.mark.parametrize("kind", [TOTAL_VARIATION, WASSERSTEIN])
    def test_mismatched_profile_fails_before_any_distance(
            self, monkeypatch, original_game, perturbed_game, perturbed_mpe,
            kind):
        def no_distance(*args):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(metrics, "_max_w1", no_distance)
        monkeypatch.setattr(metrics, "_tv", no_distance)
        one_player = StrategyProfile(perturbed_mpe.profile.strategies[:1])
        with pytest.raises(ValueError, match="1 strategies for 2 players"):
            robustness_report(original_game, perturbed_game, kind,
                              profile=one_player)

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


@st.composite
def ladder_cases(draw):
    """A game pair, a profile for the nearby game and the IPM kind.

    Transitions lean towards one shared row, so gamma L_P < 1 and the
    Wasserstein corollary exists in most draws. Two-player pairs get a random
    profile. One-player pairs get the nearby game's optimal strategy: the
    Wasserstein corollary caps the IPM tier only for a value whose Lipschitz
    constant obeys ``lipschitz_value_bound``, which holds for optimal values
    but not for every profile's values.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    players = draw(st.integers(1, 2))
    size = draw(st.integers(2, 6))
    game = random_game(rng, size, (2,) * players,
                       draw(st.floats(0.05, 0.95)))
    lean = draw(st.floats(0.0, 0.5))
    shared = rng.dirichlet(np.ones(size))
    metric = draw(st.sampled_from([None, "shuffled line"]))
    if metric is not None:
        x = rng.permutation(size) * rng.uniform(0.5, 2.0)
        metric = np.abs(x[:, None] - x[None, :])
    game = replace(game, metric=metric,
                   transitions=lean * game.transitions + (1 - lean) * shared)
    near = perturb_game(rng, game)
    if players == 1:
        profile = StrategyProfile((solve_optimal(near)[1],))
    else:
        profile = random_profile(rng, near)
    return game, near, profile, draw(st.sampled_from([TOTAL_VARIATION,
                                                       WASSERSTEIN]))


@settings(max_examples=150, deadline=None)
@given(ladder_cases())
def test_bound_ladder_is_monotone(case):
    game, near, profile, kind = case
    report = robustness_report(game, near, kind, profile=profile)
    assert np.all(report.alpha_instance <= report.alpha_ipm + 1e-12)
    if report.alpha_corollary is not None and (kind == TOTAL_VARIATION
                                               or game.num_players == 1):
        assert np.all(report.alpha_ipm <= report.alpha_corollary + 1e-12)


@settings(max_examples=100, deadline=None)
@given(ladder_cases())
def test_every_tier_is_the_ipm_formula_at_its_delta_and_rho(case):
    # Each tier is alpha_bound_ipm, bit for bit, at the (delta, rho) that
    # public names give: the instance tier at (delta_term, 1), the IPM tier
    # at (delta, rho(value)) and the corollary at (delta, worst-case rho).
    game, near, profile, kind = case
    report = robustness_report(game, near, kind, profile=profile)
    params = game_approx_params(game, near, kind)
    assert (report.epsilon, report.delta) == (params.epsilon, params.delta)
    gamma = game.discount
    values = [v.values for v in certify_profile(near, profile).per_player_value]
    if kind == TOTAL_VARIATION:
        rhos = [span(v) for v in values]
        worst = [span(r) for r in near.rewards]
    else:
        metric = comparison_metric(game, near)
        rhos = [lipschitz_constant(v, metric) for v in values]
        l_r, l_p = game_lipschitz_constants(replace(near, metric=metric))
        worst = ([lipschitz_value_bound(l_r, l_p, gamma)] * game.num_players
                 if gamma * l_p < 1.0 else None)
    instance = [alpha_bound_ipm(params.epsilon, delta_term(game, near, v),
                                1.0, gamma) for v in values]
    ipm = [alpha_bound_ipm(params.epsilon, params.delta, rho, gamma)
           for rho in rhos]
    assert report.alpha_instance.tolist() == instance
    assert report.alpha_ipm.tolist() == ipm
    if worst is None:
        assert report.alpha_corollary is None
    else:
        assert report.alpha_corollary.tolist() == [
            alpha_bound_ipm(params.epsilon, params.delta, rho, gamma)
            for rho in worst]


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
            approx = MarkovGame(states=mdp.states, action_sets=mdp.action_sets,
                                transitions=transitions, rewards=rewards,
                                discount=mdp.discount)
            value_hat, policy_hat = solve_optimal(approx)
            certified = certify_profile(
                mdp, StrategyProfile((policy_hat,))).per_player_alpha[0]
            epsilon = float(np.max(np.abs(mdp.rewards - approx.rewards)))
            gap = delta_term(mdp, approx, value_hat.values)
            bound = alpha_bound_ipm(epsilon, gap, 1.0, mdp.discount)
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

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    perturb_game,
    random_game,
    random_profile,
    reference_game_approx_params,
    reference_game_lipschitz_constants,
    reference_transport_lp,
    transport_cost_tree_oracle,
)
from mpekit import bounds, metrics
from mpekit.bounds import robustness_report
from mpekit.games import (GameValidationError, MarkovGame,
                          default_line_metric, metric_violations)
from mpekit.metrics import (
    TOTAL_VARIATION,
    WASSERSTEIN,
    ApproximationParams,
    _w1_exact,
    game_approx_params,
    game_lipschitz_constants,
    lipschitz_constant,
    span,
    tv_distance,
    wasserstein1,
)

LINE3 = default_line_metric(3)

#: Every comparison with NaN is false, so these rows pass a check written
#: as ``p < -atol or |sum - 1| > atol``.
NAN_ROWS = ([np.nan, 1.0], [np.nan, np.nan])


def planar_metric(points) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)


def random_metric(rng, size):
    """Euclidean metric of random planar points (generally not a line)."""
    return planar_metric(rng.normal(size=(size, 2)))


def grid_metric(rows, cols) -> np.ndarray:
    """Manhattan distance on a rows x cols grid: not a line metric."""
    cells = np.array([(r, c) for r in range(rows) for c in range(cols)])
    return np.abs(cells[:, None, :] - cells[None, :, :]).sum(-1).astype(float)


class TestTvDistance:
    def test_identical_distributions(self):
        mu = [0.2, 0.3, 0.5]
        assert tv_distance(mu, mu) == 0.0

    def test_half_l1_by_hand(self):
        assert tv_distance([0.40, 0.40, 0.20],
                           [0.45, 0.35, 0.20]) == pytest.approx(0.05)

    def test_disjoint_supports(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="length"):
            tv_distance([1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="distribution"):
            tv_distance([0.5, 0.6], [0.5, 0.5])

    @pytest.mark.parametrize("row", NAN_ROWS)
    def test_nan_row_rejected(self, row):
        with pytest.raises(ValueError, match="mu is not a probability"):
            tv_distance(row, [0.0, 1.0])


class TestWasserstein:
    def test_identical_distributions(self):
        mu = [0.25, 0.25, 0.5]
        assert wasserstein1(mu, mu, LINE3) == 0.0

    def test_cdf_formula_by_hand(self):
        assert wasserstein1([0.40, 0.40, 0.20], [0.45, 0.35, 0.20],
                            LINE3) == pytest.approx(0.05)

    def test_line_path_matches_lp_path(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mu = rng.dirichlet(np.ones(3))
            nu = rng.dirichlet(np.ones(3))
            assert wasserstein1(mu, nu, LINE3) == pytest.approx(
                reference_transport_lp(mu, nu, LINE3), abs=1e-9)

    @pytest.mark.parametrize("size,count", [(2, 40), (3, 40), (4, 12)])
    def test_matches_coupling_enumeration_oracle(self, size, count):
        rng = np.random.default_rng(size)
        for _ in range(count):
            metric = random_metric(rng, size)
            mu = rng.dirichlet(np.ones(size))
            nu = rng.dirichlet(np.ones(size))
            mine = wasserstein1(mu, nu, metric)
            oracle = transport_cost_tree_oracle(mu, nu, metric)
            assert mine == pytest.approx(oracle, abs=1e-14 * metric.max())

    @pytest.mark.parametrize("size,count", [(2, 40), (3, 40), (4, 12)])
    def test_line_metrics_match_oracle_too(self, size, count):
        rng = np.random.default_rng(10 + size)
        metric = default_line_metric(size)
        for _ in range(count):
            mu = rng.dirichlet(np.ones(size))
            nu = rng.dirichlet(np.ones(size))
            assert wasserstein1(mu, nu, metric) == pytest.approx(
                transport_cost_tree_oracle(mu, nu, metric), abs=1e-14)

    def test_mixed_sign_line_embedding_detected(self):
        # states sit at coordinates 0, 2, -1: still a line metric, so the
        # closed-form path must agree with coupling enumeration
        coords = np.array([0.0, 2.0, -1.0])
        metric = np.abs(coords[:, None] - coords[None, :])
        rng = np.random.default_rng(21)
        for _ in range(25):
            mu = rng.dirichlet(np.ones(3))
            nu = rng.dirichlet(np.ones(3))
            assert wasserstein1(mu, nu, metric) == pytest.approx(
                transport_cost_tree_oracle(mu, nu, metric), abs=1e-9)

    def test_scaled_line_metric_matches_oracle(self):
        coords = np.array([0.0, 0.5, 3.5, 4.0])
        metric = np.abs(coords[:, None] - coords[None, :])
        rng = np.random.default_rng(22)
        for _ in range(8):
            mu = rng.dirichlet(np.ones(4))
            nu = rng.dirichlet(np.ones(4))
            assert wasserstein1(mu, nu, metric) == pytest.approx(
                transport_cost_tree_oracle(mu, nu, metric), abs=1e-9)

    @pytest.mark.parametrize("kind", ["grid", "integer line", "line"])
    def test_w1_and_lipschitz_scale_with_the_metric(self, kind):
        # An absolute 1e-12 line check took the grid scaled by 1e-13 for a
        # line (W1 up to 92% off, L_P 0.977 against 1.490) and missed the
        # line of real points scaled by 1.1e4. That line fails the metric
        # axioms' absolute 1e-12 at 1e8, so it stops at 1.1e4.
        rng = np.random.default_rng(11)
        if kind == "grid":
            unit = grid_metric(3, 3)
        else:
            x = (rng.permutation(9) if kind == "integer line"
                 else rng.uniform(size=9))
            unit = np.abs(x[:, None] - x[None, :]).astype(float)
        scales = (1e-13, 1e-8, 1e-4, 1.1e4) + ((1e8,) if kind != "line"
                                                else ())
        game = replace(random_game(rng, 9, (2, 2)), metric=unit)
        mu, nu = rng.dirichlet(np.ones(9), size=(2, 20))
        unit_w1 = np.array([wasserstein1(m, v, unit) for m, v in zip(mu, nu)])
        unit_lp = game_lipschitz_constants(game)[1]
        for scale in scales:
            metric = scale * unit
            on_line = metrics._line_embedding(metric) is not None
            assert on_line == (kind != "grid")
            w1 = np.array([wasserstein1(m, v, metric)
                           for m, v in zip(mu, nu)])
            assert np.abs(w1 / (scale * unit_w1) - 1.0).max() < 1e-12
            l_p = game_lipschitz_constants(replace(game, metric=metric))[1]
            assert abs(l_p / unit_lp - 1.0) < 1e-12

    def test_entries_below_1e7_solve_near_the_closed_form(self):
        # At HiGHS's default tolerances this transport LP read as
        # infeasible; mu is a point mass, so W1 is d(4, .) . nu exactly.
        metric = planar_metric([[3, 0], [1, 4], [2, 3], [4, 4], [3, 2],
                                [3, 4]])
        nu = np.array([8.65360256702272e-08, 1.9600652969619168e-08,
                       0.000112207461081661, 0.9998876863732703,
                       3.680175428620209e-23, 2.8969348078008418e-11])
        exact = metric[4] @ nu
        assert exact == 2.235975750477892
        assert abs(wasserstein1(np.eye(6)[4], nu, metric)
                   - exact) <= 4 * np.spacing(exact)

    def test_rejects_broken_metric(self):
        with pytest.raises(ValueError, match="axioms"):
            wasserstein1([0.5, 0.5], [0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^metric shape \(3, 3\) != "
                                             r"expected \(2, 2\)$"):
            wasserstein1([0.5, 0.5], [0.5, 0.5], LINE3)

    @pytest.mark.parametrize("row", NAN_ROWS)
    def test_nan_row_rejected(self, row):
        with pytest.raises(ValueError, match="nu is not a probability"):
            wasserstein1([0.0, 1.0], row, default_line_metric(2))


class TestFunctionals:
    def test_span_of_constant(self):
        assert span([1.5, 1.5, 1.5]) == 0.0

    def test_span_reference_value(self, perturbed_game, perturbed_mpe):
        value = perturbed_mpe.certificate.per_player_value[0]
        assert span(value.values) == pytest.approx(0.015684, abs=1e-4)

    def test_span_of_bundled_rewards(self, original_game):
        assert span(original_game.rewards) == pytest.approx(0.9)

    def test_span_rejects_empty(self):
        with pytest.raises(ValueError):
            span([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_rejected(self, bad):
        # max and min propagate NaN, so the span and constant read NaN.
        with pytest.raises(ValueError, match=r"not finite at entry \[1\]"):
            span([0.0, bad, 1.0])
        with pytest.raises(ValueError, match=r"not finite at entry \[1, 0\]"):
            span([[0.0, 1.0], [bad, 1.0]])
        with pytest.raises(ValueError, match=r"not finite at entry \[1\]"):
            lipschitz_constant([0.0, bad, 1.0], LINE3)

    def test_lipschitz_rejects_a_matrix(self):
        # This raised IndexError from the difference quotient.
        with pytest.raises(ValueError, match=r"shape \(3, 3\)"):
            lipschitz_constant(np.zeros((3, 3)), default_line_metric(9))

    def test_lipschitz_of_constant(self):
        assert lipschitz_constant([2.0, 2.0, 2.0], LINE3) == 0.0

    def test_lipschitz_reference_value(self, perturbed_mpe):
        value = perturbed_mpe.certificate.per_player_value[0]
        assert lipschitz_constant(value.values, LINE3) == pytest.approx(
            0.015684, abs=1e-4)

    def test_lipschitz_adjacent_gap(self):
        assert lipschitz_constant([0.0, 2.0, 3.0], LINE3) == 2.0

    def test_lipschitz_rejects_zero_distance(self):
        with pytest.raises(ValueError, match="axioms"):
            lipschitz_constant([0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^metric shape \(3, 3\) != "
                                             r"expected \(2, 2\)$"):
            lipschitz_constant([0.0, 1.0], LINE3)


class TestIpmProperties:
    """Metric axioms and the pairing between each IPM and its functional."""

    def test_metric_axioms_on_random_pairs(self):
        rng = np.random.default_rng(1)
        metric = random_metric(rng, 4)
        for _ in range(100):
            mu = rng.dirichlet(np.ones(4))
            nu = rng.dirichlet(np.ones(4))
            rho = rng.dirichlet(np.ones(4))
            for dist in (tv_distance,
                         lambda a, b: wasserstein1(a, b, metric)):
                assert dist(mu, nu) >= 0.0
                assert dist(mu, nu) == pytest.approx(dist(nu, mu), abs=1e-12)
                assert dist(mu, mu) <= 1e-12
                assert dist(mu, nu) <= dist(mu, rho) + dist(rho, nu) + 1e-9

    def test_duality_bounds_on_random_functions(self):
        # |E_mu f - E_nu f| <= d(mu, nu) for span-1 f under total variation
        # and Lipschitz-1 f under the transport distance.
        rng = np.random.default_rng(2)
        metric = random_metric(rng, 5)
        for _ in range(500):
            mu = rng.dirichlet(np.ones(5))
            nu = rng.dirichlet(np.ones(5))
            f = rng.normal(size=5)
            f_span = f / span(f)
            gap = abs(f_span @ (mu - nu))
            assert gap <= tv_distance(mu, nu) + 1e-9
            f_lip = f / lipschitz_constant(f, metric)
            gap = abs(f_lip @ (mu - nu))
            assert gap <= wasserstein1(mu, nu, metric) + 1e-9

    def test_scaling_inequality_for_unnormalized_functions(self):
        # |E_mu f - E_nu f| <= rho(f) d(mu, nu) with rho = span for total
        # variation and rho = Lipschitz constant for transport distance.
        rng = np.random.default_rng(3)
        metric = random_metric(rng, 4)
        for _ in range(500):
            mu = rng.dirichlet(np.ones(4))
            nu = rng.dirichlet(np.ones(4))
            f = rng.normal(scale=rng.uniform(0.1, 10.0), size=4)
            gap = abs(f @ (mu - nu))
            assert gap <= span(f) * tv_distance(mu, nu) + 1e-9
            assert gap <= (lipschitz_constant(f, metric)
                           * wasserstein1(mu, nu, metric) + 1e-9)


class TestGameApproxParams:
    def test_bundled_pair_total_variation(self, original_game, perturbed_game):
        params = game_approx_params(original_game, perturbed_game,
                                    TOTAL_VARIATION)
        assert params.epsilon == pytest.approx(0.01, abs=1e-12)
        assert params.delta == pytest.approx(0.05, abs=1e-12)

    def test_bundled_pair_wasserstein(self, original_game, perturbed_game):
        params = game_approx_params(original_game, perturbed_game, WASSERSTEIN)
        assert params.epsilon == pytest.approx(0.01, abs=1e-12)
        assert params.delta == pytest.approx(0.10, abs=1e-12)

    def test_self_comparison_is_zero(self, original_game):
        for kind in (TOTAL_VARIATION, WASSERSTEIN):
            params = game_approx_params(original_game, original_game, kind)
            assert params.epsilon == 0.0
            assert params.delta == 0.0

    def test_shape_mismatch_rejected(self, original_game):
        from helpers import random_game

        other = random_game(np.random.default_rng(0), num_states=2)
        with pytest.raises(ValueError, match="state"):
            game_approx_params(original_game, other, TOTAL_VARIATION)
        # Same states and shapes, other action names.
        renamed = replace(original_game, action_sets=tuple(
            tuple(f"{name}'" for name in names)
            for names in original_game.action_sets))
        with pytest.raises(ValueError,
                           match="^games have different action sets$"):
            game_approx_params(original_game, renamed, TOTAL_VARIATION)
        with pytest.raises(ValueError, match="^unknown IPM kind 'bogus'$"):
            game_approx_params(original_game, original_game, "bogus")

    def test_discount_mismatch_rejected(self, original_game):
        from mpekit.games import MarkovGame

        other = MarkovGame(states=original_game.states,
                           action_sets=original_game.action_sets,
                           transitions=original_game.transitions,
                           rewards=original_game.rewards,
                           discount=0.8)
        with pytest.raises(ValueError, match="discount"):
            game_approx_params(original_game, other, TOTAL_VARIATION)

    def test_params_type_rejects_negatives(self):
        with pytest.raises(ValueError):
            ApproximationParams(epsilon=-0.1, delta=0.0,
                                ipm_kind=TOTAL_VARIATION)
        with pytest.raises(ValueError):
            ApproximationParams(epsilon=0.0, delta=0.0, ipm_kind="other")


class TestGameLipschitzConstants:
    def test_state_independent_game_is_flat(self):
        from mpekit.games import MarkovGame

        row = [0.3, 0.3, 0.4]
        game = MarkovGame(
            states=("a", "b", "c"),
            action_sets=(("x", "y"),),
            transitions=[[row, row]] * 3,
            rewards=[[[0.5, 0.7]] * 3],
            discount=0.9,
            metric=LINE3,
        )
        l_r, l_p = game_lipschitz_constants(game)
        assert l_r == 0.0
        assert l_p == 0.0

    def test_bundled_game_matches_pairwise_enumeration(self, original_game):
        l_r, l_p = game_lipschitz_constants(
            replace(original_game, metric=LINE3))
        expected_r = 0.0
        expected_p = 0.0
        for s1 in range(3):
            for s2 in range(3):
                if s1 == s2:
                    continue
                d = abs(s1 - s2)
                for j in range(original_game.num_joint_actions):
                    for i in range(2):
                        expected_r = max(
                            expected_r,
                            abs(original_game.rewards[i, s1, j]
                                - original_game.rewards[i, s2, j]) / d)
                    expected_p = max(
                        expected_p,
                        transport_cost_tree_oracle(
                            original_game.transitions[s1, j],
                            original_game.transitions[s2, j], LINE3) / d)
        assert l_r == pytest.approx(expected_r, abs=1e-12)
        assert l_p == pytest.approx(expected_p, abs=1e-9)
        assert np.isfinite(l_r) and np.isfinite(l_p)

    def test_two_state_reward_step(self):
        from mpekit.games import MarkovGame

        game = MarkovGame(
            states=("lo", "hi"),
            action_sets=(("only",),),
            transitions=[[[1.0, 0.0]], [[0.0, 1.0]]],
            rewards=[[[0.0], [1.0]]],
            discount=0.9,
            metric=default_line_metric(2),
        )
        l_r, _ = game_lipschitz_constants(game)
        assert l_r == 1.0

    def test_missing_metric_rejected(self, original_game):
        with pytest.raises(ValueError, match="metric"):
            game_lipschitz_constants(original_game)


def with_nan_row(game: MarkovGame) -> MarkovGame:
    transitions = game.transitions.copy()
    transitions[1, 2] = [np.nan, 1.0, 0.0]
    return replace(game, transitions=transitions)


#: The message a game built by ``with_nan_row`` raises: row [1, 2].
NAN_ROW = "transition row (state '2', action (2,1)) has non-finite entries"


class TestCheckedOnce:
    """A game is checked once, when it is built: game-level calls check
    neither its rows nor its metric again."""

    @pytest.mark.parametrize("kind", [TOTAL_VARIATION, WASSERSTEIN])
    def test_nan_transition_row_rejected(self, original_game, perturbed_game,
                                         kind):
        # max(0.0, nan) is 0.0: a NaN row reaching the max would read as no
        # gap. No game holds one, and the gap of two games is positive.
        with pytest.raises(GameValidationError) as excinfo:
            with_nan_row(original_game)
        assert excinfo.value.violations == [NAN_ROW]
        assert game_approx_params(original_game, perturbed_game,
                                  kind).delta > 0.0

    def test_nan_transition_row_rejected_by_lipschitz(self, original_game):
        with pytest.raises(GameValidationError) as excinfo:
            with_nan_row(replace(original_game, metric=LINE3))
        assert excinfo.value.violations == [NAN_ROW]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reward_rejected(self, perturbed_game, bad):
        # A NaN makes its block of state pairs NaN, which max(l_r, nan) drops.
        rewards = perturbed_game.rewards.copy()
        rewards[0, 1, 2] = bad
        with pytest.raises(GameValidationError) as excinfo:
            replace(perturbed_game, rewards=rewards)
        assert excinfo.value.violations == [
            "reward of player 1 at (state '2', action (2,1)) is not finite"]

    def test_metric_checked_once_and_no_per_row_calls(self, monkeypatch,
                                                      original_game,
                                                      perturbed_game):
        checks = []

        def counting(metric, *args):
            checks.append(np.shape(metric))
            return metric_violations(metric, *args)

        def per_row_call(*args):
            raise AssertionError("a public distance was called per row")

        on_line = replace(perturbed_game, metric=LINE3)
        monkeypatch.setattr(metrics, "metric_violations", counting)
        monkeypatch.setattr(metrics, "tv_distance", per_row_call)
        monkeypatch.setattr(metrics, "wasserstein1", per_row_call)
        game_approx_params(original_game, perturbed_game, TOTAL_VARIATION)
        game_approx_params(original_game, perturbed_game, WASSERSTEIN)
        game_approx_params(original_game, on_line, WASSERSTEIN)
        assert checks == []
        game_lipschitz_constants(on_line)
        assert checks == []

    def test_robustness_report_checks_each_input_once(self, monkeypatch,
                                                       original_game,
                                                       perturbed_game,
                                                       perturbed_mpe):
        checks, rows, metrics_built, vectors = [], [], [], []

        def counting(metric, *args):
            checks.append(np.shape(metric))
            return metric_violations(metric, *args)

        def row_check(p):
            rows.append(p)
            return row_problems(p)

        def comparison(*games):
            metrics_built.append(games)
            return comparison_metric(*games)

        def finite_check(values, name, *args):
            vectors.append(name)
            return finite_values(values, name, *args)

        row_problems = metrics._row_problems
        comparison_metric = metrics.comparison_metric
        finite_values = metrics._finite_values
        monkeypatch.setattr(metrics, "metric_violations", counting)
        monkeypatch.setattr(metrics, "_row_problems", row_check)
        monkeypatch.setattr(metrics, "comparison_metric", comparison)
        monkeypatch.setattr(metrics, "_finite_values", finite_check)
        monkeypatch.setattr(bounds, "_finite_values", finite_check)
        for kind, metric_builds in ((TOTAL_VARIATION, 0), (WASSERSTEIN, 1)):
            checks.clear()
            metrics_built.clear()
            robustness_report(original_game, perturbed_game, kind,
                              profile=perturbed_mpe.profile)
            assert checks == []
            assert rows == []
            assert len(metrics_built) == metric_builds
            assert vectors == []

    def test_grid_report_solves_few_transport_lps(self, monkeypatch):
        # One solve per row pair would be 36 for delta and 144 for L_P.
        calls = []

        def counting(*args):
            calls.append(args)
            return w1_exact(*args)

        w1_exact = metrics._w1_exact
        monkeypatch.setattr(metrics, "_w1_exact", counting)
        rng = np.random.default_rng(3)
        game = replace(random_game(rng, 9, (2, 2), 0.95),
                       metric=grid_metric(3, 3))
        report = robustness_report(game, perturb_game(rng, game),
                                   WASSERSTEIN,
                                   profile=random_profile(rng, game))
        assert report.delta > 0.0
        assert 2 <= len(calls) <= 10

    def test_thirty_planar_states_finish_within_seconds(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(30, 2))
        game = replace(random_game(rng, 30, (3, 3)),
                       metric=planar_metric(points))
        start = time.perf_counter()
        _, l_p = game_lipschitz_constants(game)
        assert time.perf_counter() - start < 2.0
        assert l_p > 0.0

    def test_hundred_states_finish_within_seconds(self):
        rng = np.random.default_rng(0)
        game = replace(random_game(rng, 100, (3, 3)),
                       metric=default_line_metric(100))
        near = perturb_game(rng, game)
        start = time.perf_counter()
        game_lipschitz_constants(near)
        game_approx_params(game, near, WASSERSTEIN)
        assert time.perf_counter() - start < 5.0


@st.composite
def game_pairs(draw):
    """A game, a nearby game and the metric they share.

    Metrics are the index line, a shuffled and scaled line (both take the
    closed form) or distances between random planar points (the transport
    solve; at most 5 states, to keep solves few). Rows have exact zeros,
    entries of -1e-11 that the check clips, and rows the nearby game leaves
    unchanged.
    """
    kind = draw(st.sampled_from(["line", "shuffled line", "plane"]))
    size = draw(st.integers(2, 5 if kind == "plane" else 13))
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1,
                                 max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "line":
        metric = default_line_metric(size)
    elif kind == "shuffled line":
        x = rng.permutation(size) * rng.uniform(0.1, 3.0)
        metric = np.abs(x[:, None] - x[None, :])
    else:
        points = rng.normal(size=(size, 2))
        metric = np.linalg.norm(points[:, None] - points[None], axis=2)
    joint = int(np.prod(counts))
    rows = rng.dirichlet(np.ones(size), size=(2, size, joint))
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[..., 0] += 1.0 - rows.sum(-1)
    rows[..., -1] -= 1e-11
    rows[..., 0] += 1e-11
    same = rng.random((size, joint)) < 0.3
    rows[1][same] = rows[0][same]
    rewards = rng.uniform(-1.0, 1.0, size=(2, len(counts), size, joint))
    games = [MarkovGame(tuple(str(s) for s in range(size)),
                        tuple(tuple(str(a) for a in range(c)) for c in counts),
                        rows[k], rewards[k], 0.9, metric) for k in (0, 1)]
    return games[0], games[1], metric


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestMatchesPerRowReference:
    """All rows at once give the per-row loops' results bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(game_pairs())
    def test_game_level_results(self, pair):
        g, g_hat, metric = pair
        for kind in (TOTAL_VARIATION, WASSERSTEIN):
            params = game_approx_params(g, g_hat, kind)
            epsilon, delta = reference_game_approx_params(
                g, g_hat, kind, metric, transport=_w1_exact)
            assert same_bits(params.epsilon, epsilon)
            assert same_bits(params.delta, delta)
        for mine, ref in zip(game_lipschitz_constants(g_hat),
                             reference_game_lipschitz_constants(
                                 g_hat, metric, transport=_w1_exact)):
            assert same_bits(mine, ref)


@st.composite
def off_line_game_pairs(draw):
    """A one-player game, a nearby game and a metric that embeds in no
    line, so that every W1 maximum takes the bound, filter and confirm
    steps.

    Metrics are grids, distinct points of a 5 x 5 lattice (whose collinear
    triples tie transport paths) and random planar points, up to 9
    states. Rows include point masses, entries below 1e-7, rows the nearby
    game leaves unchanged, one row pair copied to every row (so every delta
    row ties) and the identity kernel (so every L_P quotient is 1).
    """
    kind = draw(st.sampled_from(["grid", "lattice", "plane"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        metric = grid_metric(*draw(st.sampled_from([(2, 2), (2, 3), (3, 3)])))
    else:
        size = draw(st.integers(3, 9))
        cells = rng.choice(25, size, replace=False)
        points = (np.column_stack([cells // 5, cells % 5]) if kind == "lattice"
                  else rng.normal(size=(size, 2)))
        metric = planar_metric(points)
    size = len(metric)
    joint = draw(st.sampled_from([1, 2, 4]))
    rows = rng.dirichlet(np.full(size, draw(st.sampled_from([0.2, 1.0]))),
                         size=(2, size, joint))
    masses = rng.random(rows.shape[:-1]) < 0.25
    rows[masses] = np.eye(size)[rng.integers(size, size=masses.sum())]
    tiny = rng.random(rows.shape) < 0.2
    rows[tiny] = 10.0 ** rng.uniform(-23, -7, size=tiny.sum())
    rows /= rows.sum(-1, keepdims=True)
    same = rng.random((size, joint)) < 0.3
    rows[1][same] = rows[0][same]
    tie = draw(st.sampled_from(["none", "every row", "identity"]))
    if tie == "every row":
        rows[:] = rows[:, :1, :1]
    elif tie == "identity":
        rows[1] = np.eye(size)[:, None, :]
    games = [MarkovGame(tuple(str(s) for s in range(size)),
                        (tuple(str(a) for a in range(joint)),), rows[k],
                        rng.uniform(-1.0, 1.0, size=(1, size, joint)), 0.9,
                        metric) for k in (0, 1)]
    return games[0], games[1], metric


class TestMaxW1MatchesPerRowLps:
    """delta and L_P off the line equal the per-row maxima of the exact
    solve bit for bit, and delta the per-row HiGHS LP maximum within its
    tolerance."""

    @settings(max_examples=25, deadline=None)
    @given(off_line_game_pairs())
    def test_delta_and_lipschitz(self, pair):
        g, g_hat, metric = pair
        _, delta = reference_game_approx_params(g, g_hat, WASSERSTEIN, metric,
                                                transport=_w1_exact)
        assert same_bits(game_approx_params(g, g_hat, WASSERSTEIN).delta,
                         delta)
        _, l_p = reference_game_lipschitz_constants(g_hat, metric,
                                                    transport=_w1_exact)
        assert same_bits(game_lipschitz_constants(g_hat)[1], l_p)
        _, highs = reference_game_approx_params(g, g_hat, WASSERSTEIN, metric)
        assert abs(delta - highs) <= 1e-9 * metric.max()


def planar_pair(rng, size, joint, noise=0.03):
    """A game on random points of the unit square with Dirichlet(0.3) rows,
    and the perturbed game with rows (1 - noise) P + noise Dirichlet(1)."""
    return metric_pair(rng, planar_metric(rng.uniform(size=(size, 2))), joint,
                       noise)


def metric_pair(rng, metric, joint, noise=0.03):
    """``planar_pair``'s two games on a given metric."""
    size = len(metric)
    rows = rng.dirichlet(np.full(size, 0.3), size=(size, joint))
    near = ((1.0 - noise) * rows
            + noise * rng.dirichlet(np.ones(size), size=(size, joint)))
    rewards = rng.uniform(size=(size, joint))
    actions = ((("a", "b"),) * 2 if joint == 4
               else (tuple(str(a) for a in range(joint)),))
    return [MarkovGame(tuple(str(s) for s in range(size)), actions, p,
                       np.stack([rewards, 1.0 - rewards])[:len(actions)],
                       0.9, metric) for p in (rows, near)]


class TestBracket:
    """The Sinkhorn bracket drops rows without changing a bit."""

    # The per-row L_P reference makes S (S - 1) / 2 transport solves.
    @settings(max_examples=3, deadline=None)
    @given(st.integers(12, 30), st.integers(0, 2**32 - 1))
    def test_perturbed_planar_pairs_match_per_row_lps(self, size, seed):
        g, g_hat = planar_pair(np.random.default_rng(seed), size, 1)
        _, delta = reference_game_approx_params(g, g_hat, WASSERSTEIN,
                                                g.metric, transport=_w1_exact)
        assert same_bits(game_approx_params(g, g_hat, WASSERSTEIN).delta,
                         delta)
        _, l_p = reference_game_lipschitz_constants(g_hat, g.metric,
                                                    transport=_w1_exact)
        assert same_bits(game_lipschitz_constants(g_hat)[1], l_p)

    @pytest.mark.parametrize("size,seed", [(12, 0), (20, 1), (30, 2)])
    def test_blocks_of_a_few_rows_match_per_row_lps(self, monkeypatch, size,
                                                    seed):
        # Three rows a block: a row may be dropped by a lower bound found in
        # another block, before, during or after its own scalings.
        monkeypatch.setattr(metrics, "_BRACKET_ENTRIES", 3 * size * size)
        blocks, solves = [], []

        def recording(diff, metric):
            blocks.append(len(diff))
            return bracket(diff, metric)

        def counting(*args):
            solves.append(args)
            return w1_exact(*args)

        bracket, w1_exact = metrics._bracket, metrics._w1_exact
        monkeypatch.setattr(metrics, "_bracket", recording)
        monkeypatch.setattr(metrics, "_w1_exact", counting)
        g, g_hat = planar_pair(np.random.default_rng(seed), size, 1)
        _, delta = reference_game_approx_params(g, g_hat, WASSERSTEIN,
                                                g.metric, transport=_w1_exact)
        assert same_bits(game_approx_params(g, g_hat, WASSERSTEIN).delta,
                         delta)
        # Fewer rows than blocks reach the solve: whole blocks fell to lower
        # bounds found for rows outside them.
        assert 2 < len(blocks) and max(blocks) <= 3
        assert len(solves) < len(blocks)
        _, l_p = reference_game_lipschitz_constants(g_hat, g.metric,
                                                    transport=_w1_exact)
        assert same_bits(game_lipschitz_constants(g_hat)[1], l_p)

    def test_bounds_hold_at_every_metric_scale(self):
        rng = np.random.default_rng(7)
        size = 8
        unit = planar_metric(rng.uniform(size=(size, 2)))
        unit /= unit.max()
        eye = np.eye(size)
        spread = rng.dirichlet(np.full(size, 0.3), size=size)
        spread[:, 0] = 0.0
        spread[:, 1] += 1e-300
        spread /= spread.sum(-1, keepdims=True)
        mu = np.concatenate([eye, eye, spread, spread, eye[:1]])
        nu = np.concatenate([eye[::-1], spread, eye, spread[::-1], eye[:1]])
        # W1 scales with the metric: the reference is the unit metric's
        # exact solve times the diameter.
        unit_w1 = np.array([_w1_exact(m, v, unit) for m, v in zip(mu, nu)])
        for diameter in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            metric = diameter * unit
            # Every checkpoint's bounds, all rows kept in play to the cap.
            iterates = list(metrics._bracket(mu - nu, metric))
            assert len(iterates) == len(metrics._BRACKET_CHECKPOINTS)
            for low, high in iterates:
                # Only the last row, mu = nu, has no bracket.
                assert np.isfinite(low[:-1]).all()
                assert np.isfinite(high[:-1]).all()
                assert (low[-1], high[-1]) == (-np.inf, np.inf)
                slack = 1e-14 * diameter
                assert np.all(low <= diameter * unit_w1 + slack)
                assert np.all(diameter * unit_w1 <= high + slack)
            g, g_hat = (MarkovGame(tuple(str(s) for s in range(size)),
                                   (tuple(str(a) for a in range(4)),),
                                   rows.reshape(size, 4, size),
                                   np.zeros((1, size, 4)), 0.9, metric)
                        for rows in (mu[:-1], nu[:-1]))
            _, delta = reference_game_approx_params(
                g, g_hat, WASSERSTEIN, metric, transport=_w1_exact)
            assert same_bits(game_approx_params(g, g_hat, WASSERSTEIN).delta,
                             delta)

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_pair_solves_at_most_two_lps_per_maximum(self, monkeypatch,
                                                          seed):
        # Built as the benchmark's bound_w1 grid pair: 9 states, 2 x 2
        # actions, rows 0.95 P + 0.05 noise.
        # Each maximum's bracket also stops before its cap.
        calls, reached = [], []

        def counting(*args):
            calls.append(args)
            return solve(*args)

        def recording(diff, metric):
            # The scalings of the last checkpoint the caller resumed it to.
            reached.append(0)
            inner, keep = bracket(diff, metric), None
            for checkpoint in metrics._BRACKET_CHECKPOINTS:
                bounds = inner.send(keep)
                reached[-1] = checkpoint
                keep = yield bounds

        solve, bracket = metrics._transport, metrics._bracket
        monkeypatch.setattr(metrics, "_transport", counting)
        monkeypatch.setattr(metrics, "_bracket", recording)
        rng = np.random.default_rng(seed)
        game = replace(random_game(rng, 9, (2, 2), 0.95),
                       metric=grid_metric(3, 3))
        noise = random_game(rng, 9, (2, 2), 0.95)
        near = replace(game, transitions=0.95 * game.transitions
                       + 0.05 * noise.transitions)
        game_approx_params(game, near, WASSERSTEIN)
        assert 1 <= len(calls) <= 2
        assert 0 < max(reached) < metrics._BRACKET_SCALINGS, reached
        calls.clear()
        reached.clear()
        game_lipschitz_constants(near)
        assert 1 <= len(calls) <= 2
        assert 0 < max(reached) < metrics._BRACKET_SCALINGS, reached

    def test_hundred_planar_states_report_within_seconds(self):
        rng = np.random.default_rng(0)
        g, g_hat = planar_pair(rng, 100, 4)
        start = time.perf_counter()
        report = robustness_report(g, g_hat, WASSERSTEIN,
                                   profile=random_profile(rng, g_hat))
        assert time.perf_counter() - start < 10.0
        # The bits from before L_P came in blocks of whole state pairs.
        assert float(report.delta).hex() == "0x1.f0682cd192849p-8"
        assert [float(x).hex() for x in game_lipschitz_constants(g_hat)] == [
            "0x1.bf4a175e9a7f0p+5", "0x1.1f4f94834eaa7p+4"]


class TestPairBlocks:
    """L_P's blocks of whole state pairs change no bit, from one pair a
    block to all pairs in one."""

    @pytest.mark.parametrize("kind, sizes", [
        ("line", (2, 9, 30)),
        ("grid", ((2, 2), (3, 3), (5, 6))),
        ("planar", (3, 12, 30)),
    ])
    def test_any_budget_gives_the_per_row_bits(self, kind, sizes):
        # The budget also sizes the bracket's blocks, which TestBracket
        # shows change no bit either.
        rng = np.random.default_rng(27)
        max_w1, blocks = metrics._max_w1, []

        def counting(rows, *args, **kwargs):
            rows = list(rows)
            blocks.append(len(rows))
            return max_w1(rows, *args, **kwargs)

        for size in sizes:
            if kind == "line":
                points = rng.uniform(-5.0, 5.0, size)
                metric = np.abs(points[:, None] - points[None, :])
            else:
                metric = (grid_metric(*size) if kind == "grid"
                          else planar_metric(rng.uniform(size=(size, 2))))
            assert (metrics._line_embedding(metric) is None) == (kind != "line")
            g, g_hat = metric_pair(rng, metric, 2)
            _, delta = reference_game_approx_params(
                g, g_hat, WASSERSTEIN, metric, transport=_w1_exact)
            _, l_p = reference_game_lipschitz_constants(
                g_hat, metric, transport=_w1_exact)
            n = len(metric)
            for entries, count in ((1, n * (n - 1) // 2), (2 ** 62, 1)):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(metrics, "_BRACKET_ENTRIES", entries)
                    patch.setattr(metrics, "_max_w1", counting)
                    assert same_bits(
                        game_approx_params(g, g_hat, WASSERSTEIN).delta, delta)
                    assert same_bits(game_lipschitz_constants(g_hat)[1], l_p)
                assert blocks[-1] == count


class TestTransportLp:
    def test_equal_marginals_solve_no_lp(self, monkeypatch):
        # HiGHS gave such rows values of order 1e-17, one LP per row.
        calls = []

        def counting(*args):
            calls.append(args)
            return solve(*args)

        solve = metrics._transport
        monkeypatch.setattr(metrics, "_transport", counting)
        grid = grid_metric(3, 3)
        game = replace(random_game(np.random.default_rng(0), 9, (2, 2)),
                       metric=grid)
        assert game_approx_params(game, game, WASSERSTEIN).delta == 0.0
        flat = replace(game, transitions=np.broadcast_to(
            game.transitions[0], game.transitions.shape))
        assert game_lipschitz_constants(flat)[1] == 0.0
        mu = game.transitions[0, 0]
        assert wasserstein1(mu, mu.copy(), grid) == 0.0
        assert calls == []

    def test_rows_equal_in_every_state_take_no_transport_lp(self,
                                                            monkeypatch):
        # Each such row used to reach a transport LP: 20,200 calls, about
        # 1 s.
        calls = []

        def counting(*args):
            calls.append(args)
            return w1_exact(*args)

        w1_exact = metrics._w1_exact
        monkeypatch.setattr(metrics, "_w1_exact", counting)
        rng = np.random.default_rng(0)
        game = replace(random_game(rng, 100, (2, 2)),
                       metric=planar_metric(rng.uniform(size=(100, 2))))
        flat = replace(game, transitions=np.broadcast_to(
            game.transitions[:1], game.transitions.shape))
        assert game_lipschitz_constants(flat)[1] == 0.0
        assert game_approx_params(game, game, WASSERSTEIN).delta == 0.0
        assert calls == []

    def test_wasserstein1_is_the_clamped_lp_value(self):
        rng = np.random.default_rng(0)
        off_line = ([random_metric(rng, size) for size in (3, 9, 30)]
                    + [grid_metric(*shape) for shape in ((2, 2), (3, 3),
                                                         (5, 6))])
        for metric in off_line:
            for _ in range(8):
                mu, nu = rng.dirichlet(np.full(len(metric), 0.5), size=2)
                for pair in ((mu, nu), (mu, mu.copy())):
                    assert same_bits(wasserstein1(*pair, metric),
                                     max(0.0, _w1_exact(*pair, metric)))

    def test_wasserstein1_is_the_closed_form_on_a_line(self):
        rng = np.random.default_rng(3)
        for size in (2, 9, 30):
            # Integer points, state 0 leftmost: the line embedding finds
            # these coordinates exactly.
            coords = np.concatenate([[0.0], rng.permutation(
                np.cumsum(rng.integers(1, 5, size - 1))).astype(float)])
            order = np.argsort(coords, kind="stable")
            metric = np.abs(coords[:, None] - coords[None, :])
            for _ in range(8):
                mu, nu = rng.dirichlet(np.ones(size), size=2)
                cum = np.cumsum(mu[order] - nu[order])[:-1]
                assert same_bits(wasserstein1(mu, nu, metric),
                                 float(np.abs(cum) @ np.diff(coords[order])))

    def test_value_scales_with_the_metric(self):
        # A transport LP solved at HiGHS's absolute tolerances on the metric
        # as given was off by 1.58 times these rows' value at a diameter of
        # 1e-8; the exact solve has no tolerance.
        rng = np.random.default_rng(7)
        size = 8
        unit = planar_metric(rng.uniform(size=(size, 2)))
        unit /= unit.max()
        spread = rng.dirichlet(np.full(size, 0.3), size=size)
        mu = np.concatenate([np.eye(size), spread])
        nu = np.concatenate([spread, spread[::-1]])
        unit_w1 = np.array([_w1_exact(m, v, unit) for m, v in zip(mu, nu)])
        assert np.all(unit_w1 > 0.0)
        for diameter in (1e-8, 1e-4, 1e4, 1e8):
            w1 = np.array([_w1_exact(m, v, diameter * unit)
                           for m, v in zip(mu, nu)])
            assert np.abs(w1 / (diameter * unit_w1) - 1.0).max() < 1e-14


@st.composite
def transport_pairs(draw):
    """Two checked distributions and a metric with many ties or none.

    Metrics are L1 grids, distinct points of a 5 x 5 lattice under L1 (the
    two tie-heavy kinds), a grid scaled by 1e-8 to 1e8 and random planar
    points, up to 15 states. Rows include point masses, entries below 1e-7
    and entries of about -1e-9 that the check clips, and their masses differ
    from 1 by as much as the row rule lets them.
    """
    kind = draw(st.sampled_from(["grid", "lattice", "scaled grid", "plane"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("grid", "scaled grid"):
        metric = grid_metric(*draw(st.sampled_from(
            [(1, 2), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (3, 5)])))
        if kind == "scaled grid":
            metric *= 10.0 ** rng.uniform(-8.0, 8.0)
    else:
        size = draw(st.integers(2, 15))
        cells = rng.choice(25, size, replace=False)
        metric = (grid_metric(5, 5)[np.ix_(cells, cells)] if kind == "lattice"
                  else planar_metric(rng.uniform(size=(size, 2))))
    size = len(metric)
    rows = rng.dirichlet(np.full(size, draw(st.sampled_from([0.2, 1.0]))),
                         size=2)
    masses = rng.random(2) < 0.3
    rows[masses] = np.eye(size)[rng.integers(size, size=masses.sum())]
    tiny = rng.random(rows.shape) < 0.2
    rows[tiny] = 10.0 ** rng.uniform(-23.0, -7.0, size=tiny.sum())
    rows /= rows.sum(-1, keepdims=True)
    clipped = rng.random(rows.shape) < 0.1
    rows[clipped] = -0.9e-9 * rng.random(clipped.sum())
    rows[[0, 1], rows.argmax(-1)] += 1.0 - rows.sum(-1)
    rows *= 1.0 + rng.uniform(-0.9e-9, 0.9e-9, size=(2, 1))
    return (*(metrics._check_distribution("row", row) for row in rows),
            metric)


class TestExactTransport:
    """The transport solve is exact: it matches an independent LP, and its
    potentials certify its flow."""

    @settings(max_examples=200, deadline=None)
    @given(transport_pairs())
    def test_matches_highs_and_certifies_itself(self, pair):
        mu, nu, metric = pair
        diameter = metric.max()
        value = _w1_exact(mu, nu, metric)
        assert abs(value - reference_transport_lp(mu, nu, metric)) \
            <= 1e-9 * diameter
        diff = mu - nu if (mu - nu).sum() >= 0.0 else nu - mu
        src, snk = diff > 0.0, diff < 0.0
        if not (src.any() and snk.any()):
            assert value == 0.0
            return
        cost = metric[src][:, snk]
        supply, demand = diff[src], -diff[snk]
        flow, u, v = metrics._transport(cost, supply, demand)
        roundoff = 1e-13 * diameter
        reduced = cost + u[:, None] - v
        assert flow.min() >= 0.0 and u.min() >= 0.0
        assert reduced.min() >= -roundoff
        assert np.abs(reduced[flow > 0.0]).max() <= roundoff
        assert np.abs(flow.sum(0) - demand).max() <= 1e-15
        assert np.all(flow.sum(1) <= supply + 1e-15)
        # With u >= 0, demand . v - supply . u bounds every transport of
        # all the demand from below.
        primal = (flow * cost).sum()
        assert primal == value
        assert abs(primal - (demand @ v - supply @ u)) <= roundoff

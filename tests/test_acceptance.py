"""Acceptance gate: every release criterion, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them
inline). The bundled three-state two-player game pair drives the numeric
criteria; the property criteria draw their own random corpora with fixed
seeds. Reference constants are frozen here at their published precision.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    best_deterministic_value,
    nash_deviation_gain,
    random_mdp,
    transport_cost_tree_oracle,
)
from mpekit.bounds import (
    alpha_bound_ipm,
    delta_term,
    robustness_report,
    sample_size_game,
)
from mpekit.cli import main as cli_main
from mpekit.equilibrium import certify_profile
from mpekit.experiments import records_csv, run_experiments, summarize
from mpekit.games import (
    MarkovGame,
    MarkovStrategy,
    StrategyProfile,
    ValueFunction,
    default_line_metric,
    induced_mdp,
    serialize_game,
)
from mpekit.mdp import (
    bellman_optimal,
    bellman_policy,
    evaluate_policy,
    solve_optimal,
)
from mpekit.metrics import (
    TOTAL_VARIATION,
    WASSERSTEIN,
    game_approx_params,
    lipschitz_constant,
    span,
    tv_distance,
    wasserstein1,
)
from mpekit.solver import bimatrix_nash

# Reference values for the bundled pair, at published precision.
REF_ALPHA = np.array([0.005300, 0.002785])
REF_VALUE_P1 = np.array([0.6341, 0.6192, 0.6209])
REF_VALUE_P2 = np.array([0.7252, 0.7142, 0.7154])
REF_BEST_P1 = np.array([0.6394, 0.6222, 0.6241])
REF_BEST_P2 = np.array([0.7280, 0.7158, 0.7171])
REF_EPSILON = 0.01
REF_DELTA_TV = 0.05
REF_DELTA_W1 = 0.10
REF_DELTA_TERMS = np.array([0.000784, 0.000550])
REF_INSTANCE_BOUNDS = np.array([0.034112, 0.029900])
REF_TV_BOUNDS = np.array([0.034116, 0.029903])
REF_W1_BOUNDS = np.array([0.048231, 0.039782])
REF_SAMPLE_SIZE = 111_227
# records.csv of the 50-trial desk run at master_seed 2024, byte for byte.
GOLDEN_RECORDS = Path(__file__).parent / "golden" / "desk_records_seed2024.csv"


def check(criterion: str, label: str, condition: bool) -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[{status}] {criterion}: {label}")
    assert condition, f"{criterion} failed: {label}"


def test_criterion_1_certified_gaps(original_game, perturbed_mpe):
    start = time.perf_counter()
    certificate = certify_profile(original_game, perturbed_mpe.profile)
    elapsed = time.perf_counter() - start
    close = np.allclose(certificate.per_player_alpha, REF_ALPHA, atol=1e-5)
    check("criterion 1", "certified gap pair matches reference within 1e-5",
          close)
    check("criterion 1", f"certification runtime {elapsed:.3f}s < 1s",
          elapsed < 1.0)


def test_criterion_2_value_functions(original_game, perturbed_mpe):
    profile = perturbed_mpe.profile
    mdp_1 = induced_mdp(original_game, profile, 0)
    mdp_2 = induced_mdp(original_game, profile, 1)
    achieved_1 = evaluate_policy(mdp_1, profile.strategies[0]).values
    achieved_2 = evaluate_policy(mdp_2, profile.strategies[1]).values
    best_1 = solve_optimal(mdp_1)[0].values
    best_2 = solve_optimal(mdp_2)[0].values
    ok = (np.allclose(achieved_1, REF_VALUE_P1, atol=1e-4)
          and np.allclose(achieved_2, REF_VALUE_P2, atol=1e-4)
          and np.allclose(best_1, REF_BEST_P1, atol=1e-4)
          and np.allclose(best_2, REF_BEST_P2, atol=1e-4))
    check("criterion 2",
          "all four reference value vectors reproduced within 1e-4", ok)


def test_criterion_3_approximation_parameters(original_game, perturbed_game):
    tv = game_approx_params(original_game, perturbed_game, TOTAL_VARIATION)
    w1 = game_approx_params(original_game, perturbed_game, WASSERSTEIN)
    ok = (abs(tv.epsilon - REF_EPSILON) <= 1e-12
          and abs(tv.delta - REF_DELTA_TV) <= 1e-12
          and abs(w1.epsilon - REF_EPSILON) <= 1e-12
          and abs(w1.delta - REF_DELTA_W1) <= 1e-12)
    check("criterion 3",
          "epsilon 0.01, delta 0.05 (TV), delta 0.10 (W1) within 1e-12", ok)


def test_criterion_4_delta_terms(original_game, perturbed_game,
                                 perturbed_mpe):
    gaps = np.array([
        delta_term(original_game, perturbed_game, value.values)
        for value in perturbed_mpe.certificate.per_player_value
    ])
    check("criterion 4", "expected-value gap terms match within 1e-6",
          np.allclose(gaps, REF_DELTA_TERMS, atol=1e-6))


def test_criterion_5_bound_ladder(original_game, perturbed_game,
                                  perturbed_mpe):
    # Instance tier at published precision: the reference constants encode
    # the plug-in arithmetic on the 6-decimal gap terms.
    plugged = np.array([
        alpha_bound_ipm(REF_EPSILON, d, 1.0, 0.9) for d in REF_DELTA_TERMS
    ])
    check("criterion 5", "instance bounds (plug-in arithmetic) within 1e-6",
          np.allclose(plugged, REF_INSTANCE_BOUNDS, atol=1e-6))

    tv_report = robustness_report(original_game, perturbed_game,
                                  TOTAL_VARIATION,
                                  profile=perturbed_mpe.profile)
    w1_report = robustness_report(original_game, perturbed_game, WASSERSTEIN,
                                  profile=perturbed_mpe.profile)
    check("criterion 5", "exact instance bounds agree to published precision",
          np.allclose(tv_report.alpha_instance, REF_INSTANCE_BOUNDS,
                      atol=2e-5))
    check("criterion 5", "total-variation relaxed bounds within 1e-6",
          np.allclose(tv_report.alpha_ipm, REF_TV_BOUNDS, atol=1e-6))
    check("criterion 5", "transport-metric relaxed bounds within 1e-6",
          np.allclose(w1_report.alpha_ipm, REF_W1_BOUNDS, atol=1e-6))

    certified = certify_profile(original_game,
                                perturbed_mpe.profile).per_player_alpha
    every_bound = np.vstack([
        tv_report.alpha_instance, tv_report.alpha_ipm,
        tv_report.alpha_corollary, w1_report.alpha_instance,
        w1_report.alpha_ipm,
    ])
    check("criterion 5", "certified gaps sit below every bound tier",
          bool(np.all(certified <= every_bound + 1e-12)))


def test_criterion_6_sample_size():
    n = sample_size_game(0.1, 0.01, 0.9, 3, [2, 2], 2, 0.9)
    check("criterion 6", f"sample budget {n} within 1 of {REF_SAMPLE_SIZE}",
          abs(n - REF_SAMPLE_SIZE) <= 1)


@pytest.fixture(scope="module")
def full_scale_run(original_game):
    """Records of the paper's 1000 trials (n = 111,227, seed 2024), seconds.

    Trials are order-independent, so its first 50 records are the 50-trial
    desk run and its first 200 the alpha = 0.1 budget run.
    """
    budget = sample_size_game(0.1, 0.01, 0.9, 3, [2, 2], 2, 0.9)
    start = time.perf_counter()
    records = run_experiments(original_game, budget, 1000, master_seed=2024)
    return records, time.perf_counter() - start


def check_experiment(criterion: str, records) -> None:
    worst = max(float(record.alpha_pair.max()) for record in records)
    summary = summarize(records)
    check(criterion, f"all {len(records)} certified gaps <= 0.1 "
                     f"(worst {worst:.2e})", worst <= 0.1)
    check(criterion, "median per-player gap <= 1e-3",
          bool(np.all(summary.alpha_median <= 1e-3)))
    check(criterion, "every trial's solver converged",
          summary.convergence_rate == 1.0)


def test_criterion_7_desk_scale_experiment(full_scale_run):
    records = full_scale_run[0][:50]
    check_experiment("criterion 7", records)
    check("criterion 7",
          f"records.csv byte-identical to {GOLDEN_RECORDS.name}",
          records_csv(records).encode() == GOLDEN_RECORDS.read_bytes())


def test_criterion_7_full_scale_experiment(full_scale_run):
    records, elapsed = full_scale_run
    check("criterion 7 (full)",
          f"{len(records)} trials took {elapsed:.1f}s < 300s", elapsed < 300.0)
    check_experiment("criterion 7 (full)", records)


def test_criterion_7_gap_exceeds_alpha_rarely(original_game, full_scale_run):
    # The paper's guarantee at three budgets: with n from sample_size_game,
    # a trial's certified gap exceeds alpha with probability at most p.
    trials, p = 200, 0.01
    budgets, quantiles = [], []
    for alpha in (0.4, 0.2, 0.1):
        n = sample_size_game(alpha, p, 0.9, 3, [2, 2], 2, 0.9)
        if alpha == 0.1:
            records = full_scale_run[0][:trials]
        else:
            records = run_experiments(original_game, n, trials,
                                      master_seed=2024)
        gaps = np.array([record.alpha_pair.max() for record in records])
        share = float(np.mean(gaps > alpha))
        q = np.quantile(gaps, [0.5, 0.9, 0.99])
        print(f"alpha={alpha} n={n}: share above alpha {share:.3f}, "
              f"gap q50/q90/q99 {q[0]:.3e} {q[1]:.3e} {q[2]:.3e}")
        check("criterion 7 (budgets)",
              f"share of gaps above {alpha} at n={n} is {share:.3f} <= {p}",
              share <= p)
        budgets.append(n)
        quantiles.append(q)
    # Gaps should fall like n^(-1/2); reported, not gated.
    slopes = np.polyfit(np.log(budgets), np.log(quantiles), 1)[0]
    print("log-log slope of gap quantiles against n (q50, q90, q99): "
          + ", ".join(f"{slope:.2f}" for slope in slopes))


def test_criterion_8_bellman_contraction():
    rng = np.random.default_rng(81)
    worst_ratio = 0.0
    for _ in range(200):
        mdp = random_mdp(rng, num_states=int(rng.integers(2, 5)),
                         num_actions=int(rng.integers(1, 4)),
                         discount=float(rng.uniform(0.05, 0.99)))
        v1 = ValueFunction(rng.normal(size=mdp.num_states))
        v2 = ValueFunction(rng.normal(size=mdp.num_states))
        strategy = MarkovStrategy(
            rng.dirichlet(np.ones(mdp.action_counts[0]), size=mdp.num_states))
        gap = np.max(np.abs(v1.values - v2.values))
        fixed = np.max(np.abs(bellman_policy(mdp, strategy, v1).values
                              - bellman_policy(mdp, strategy, v2).values))
        best = np.max(np.abs(bellman_optimal(mdp, v1).values
                             - bellman_optimal(mdp, v2).values))
        worst_ratio = max(worst_ratio,
                          fixed / (mdp.discount * gap),
                          best / (mdp.discount * gap))
        if worst_ratio > 1.0 + 1e-12:
            break
    check("criterion 8a", "discount-factor contraction on 200 random MDPs",
          worst_ratio <= 1.0 + 1e-12)


def test_criterion_8_ipm_axioms_and_scaling():
    rng = np.random.default_rng(82)
    points = rng.normal(size=(4, 2))
    metric = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    ok = True
    for _ in range(500):
        mu, nu, rho = rng.dirichlet(np.ones(4), size=3)
        f = rng.normal(scale=rng.uniform(0.1, 5.0), size=4)
        for dist in (tv_distance, lambda a, b: wasserstein1(a, b, metric)):
            ok &= dist(mu, nu) >= 0.0
            ok &= abs(dist(mu, nu) - dist(nu, mu)) <= 1e-12
            ok &= dist(mu, mu) <= 1e-12
            ok &= dist(mu, nu) <= dist(mu, rho) + dist(rho, nu) + 1e-9
        gap = abs(f @ (mu - nu))
        ok &= gap <= span(f) * tv_distance(mu, nu) + 1e-9
        ok &= gap <= (lipschitz_constant(f, metric)
                      * wasserstein1(mu, nu, metric) + 1e-9)
        if not ok:
            break
    check("criterion 8b",
          "IPM metric axioms and functional-scaling inequality on 500 draws",
          ok)


def test_criterion_8_transport_equivalence():
    rng = np.random.default_rng(83)
    ok = True
    for size, count in ((2, 40), (3, 40), (4, 12)):
        line = default_line_metric(size)
        for _ in range(count):
            mu = rng.dirichlet(np.ones(size))
            nu = rng.dirichlet(np.ones(size))
            via_cdf = wasserstein1(mu, nu, line)
            via_lp = transport_cost_tree_oracle(mu, nu, line)
            ok &= abs(via_cdf - via_lp) <= 1e-9
            points = rng.normal(size=(size, 2))
            general = np.linalg.norm(points[:, None, :] - points[None, :, :],
                                     axis=2)
            ok &= abs(wasserstein1(mu, nu, general)
                      - transport_cost_tree_oracle(mu, nu, general)) <= 1e-9
    check("criterion 8c",
          "transport distance matches coupling enumeration on sizes 2-4", ok)


def test_criterion_8_planner_vs_enumeration():
    rng = np.random.default_rng(84)
    ok = True
    for _ in range(100):
        mdp = random_mdp(rng, num_states=int(rng.integers(1, 4)),
                         num_actions=int(rng.integers(1, 4)),
                         discount=float(rng.uniform(0.1, 0.95)))
        value, _ = solve_optimal(mdp)
        ok &= bool(np.allclose(value.values, best_deterministic_value(mdp),
                               atol=1e-9))
        if not ok:
            break
    check("criterion 8d",
          "planner matches exhaustive policy enumeration on 100 small MDPs",
          ok)


def test_criterion_8_stage_equilibria():
    rng = np.random.default_rng(85)
    ok = True
    for shape in ((2, 2), (3, 3)):
        for _ in range(500):
            payoff_a = rng.uniform(-1, 1, size=shape)
            payoff_b = rng.uniform(-1, 1, size=shape)
            x, y, _ = bimatrix_nash(payoff_a, payoff_b)
            ok &= nash_deviation_gain(payoff_a, payoff_b, x, y) <= 1e-9
            if not ok:
                break
    check("criterion 8e",
          "one-shot equilibria pass deviation checks on 1000 random games",
          ok)


def test_criterion_8_perturbation_soundness():
    rng = np.random.default_rng(86)
    ok = True
    for _ in range(100):
        mdp = random_mdp(rng, num_states=int(rng.integers(2, 4)),
                         num_actions=int(rng.integers(2, 4)),
                         discount=float(rng.uniform(0.3, 0.95)))
        noise = rng.uniform(0.0, 0.08)
        mix = rng.dirichlet(np.ones(mdp.num_states),
                            size=mdp.transitions.shape[:2])
        approx = MarkovGame(
            states=mdp.states, action_sets=mdp.action_sets,
            transitions=(1 - noise) * mdp.transitions + noise * mix,
            rewards=mdp.rewards + rng.uniform(-0.02, 0.02,
                                              size=mdp.rewards.shape),
            discount=mdp.discount)
        value_hat, policy_hat = solve_optimal(approx)
        certified = certify_profile(
            mdp, StrategyProfile((policy_hat,))).per_player_alpha[0]
        epsilon = float(np.max(np.abs(mdp.rewards - approx.rewards)))
        bound = alpha_bound_ipm(epsilon,
                                delta_term(mdp, approx, value_hat.values),
                                1.0, mdp.discount)
        ok &= certified <= bound + 1e-8
        if not ok:
            break
    check("criterion 8f",
          "plug-in bound covers the certified gap on 100 perturbed MDPs", ok)


def test_criterion_9_determinism(tmp_path, capsys, original_game,
                                 perturbed_game):
    game_path = tmp_path / "perturbed.json"
    game_path.write_text(serialize_game(perturbed_game))
    original_path = tmp_path / "original.json"
    original_path.write_text(serialize_game(original_game))

    outputs = []
    for _ in range(2):
        assert cli_main(["solve", str(game_path), "--seed", "5"]) == 0
        outputs.append(capsys.readouterr().out)
    solve_identical = outputs[0] == outputs[1]

    csv_bytes = []
    for name in ("x.csv", "y.csv"):
        path = tmp_path / name
        assert cli_main(["experiment", str(original_path), "--n", "300",
                         "--trials", "2", "--seed", "17",
                         "--out", str(path)]) == 0
        capsys.readouterr()
        csv_bytes.append(path.read_bytes())
    experiment_identical = csv_bytes[0] == csv_bytes[1]

    sizes = []
    for _ in range(2):
        assert cli_main(["sample-size", "--alpha", "0.1", "--p", "0.01",
                         "--span", "0.9", "--states", "3", "--actions", "2",
                         "2", "--gamma", "0.9"]) == 0
        sizes.append(capsys.readouterr().out)
    size_identical = sizes[0] == sizes[1]

    check("criterion 9", "seeded commands produce byte-identical output",
          solve_identical and experiment_identical and size_identical)


def test_library_records_round_trip(original_game):
    # The acceptance experiment's CSV must carry full precision.
    records = run_experiments(original_game, 300, 2, 55)
    text = records_csv(records)
    parsed = [line.split(",") for line in text.splitlines()[1:]]
    for record, row in zip(records, parsed):
        assert float(row[1]) == pytest.approx(record.alpha_pair[0],
                                              rel=1e-10)
        assert float(row[2]) == pytest.approx(record.alpha_pair[1],
                                              rel=1e-10)


def test_reference_sample_budget_math_is_stable():
    # Guard the exact arithmetic the budget reproduces: scale^2 * 2 ln(.)/a^2.
    raw = (0.9 / 0.1 * 0.9) ** 2 * 2.0 * math.log(2 * 3 * 4 * 2 / 0.01) / 0.01
    assert math.ceil(raw) == REF_SAMPLE_SIZE

"""Equilibrium certification and robustness analysis for finite Markov games.

The package certifies strategy profiles as approximate Markov perfect
equilibria, quantifies how model perturbations degrade equilibria (under
total-variation or Wasserstein transition error), sizes generative-model
sampling budgets, solves small two-player games, and runs reproducible
plug-in experiments.
"""

from .bounds import (
    RobustnessReport,
    alpha_bound_ipm,
    delta_term,
    hoeffding_tail,
    lipschitz_value_bound,
    robustness_report,
    sample_size_game,
)
from .equilibrium import CertificateAlpha, certify_profile
from .experiments import (
    EmpiricalModel,
    ExperimentRecord,
    ExperimentSummary,
    estimate_model,
    records_csv,
    run_experiments,
    run_trial,
    summarize,
    summary_csv,
)
from .games import (
    GameFormatError,
    GameValidationError,
    MarkovGame,
    MarkovStrategy,
    StrategyProfile,
    ValueFunction,
    bundled_game,
    default_line_metric,
    induced_mdp,
    parse_game,
    parse_profile,
    serialize_game,
    serialize_profile,
)
from .mdp import (
    bellman_optimal,
    bellman_policy,
    evaluate_policy,
    solve_optimal,
)
from .metrics import (
    ApproximationParams,
    TOTAL_VARIATION,
    WASSERSTEIN,
    game_approx_params,
    game_lipschitz_constants,
    lipschitz_constant,
    span,
    tv_distance,
    wasserstein1,
)
from .solver import SolveResult, bimatrix_nash, solve_mpe, stage_game

__version__ = "0.1.0"

__all__ = [
    "ApproximationParams",
    "CertificateAlpha",
    "EmpiricalModel",
    "ExperimentRecord",
    "ExperimentSummary",
    "GameFormatError",
    "GameValidationError",
    "MarkovGame",
    "MarkovStrategy",
    "RobustnessReport",
    "SolveResult",
    "StrategyProfile",
    "TOTAL_VARIATION",
    "ValueFunction",
    "WASSERSTEIN",
    "alpha_bound_ipm",
    "bellman_optimal",
    "bellman_policy",
    "bimatrix_nash",
    "bundled_game",
    "certify_profile",
    "default_line_metric",
    "delta_term",
    "estimate_model",
    "evaluate_policy",
    "game_approx_params",
    "game_lipschitz_constants",
    "hoeffding_tail",
    "induced_mdp",
    "lipschitz_constant",
    "lipschitz_value_bound",
    "parse_game",
    "parse_profile",
    "records_csv",
    "robustness_report",
    "run_experiments",
    "run_trial",
    "sample_size_game",
    "serialize_game",
    "serialize_profile",
    "solve_mpe",
    "solve_optimal",
    "span",
    "stage_game",
    "summarize",
    "summary_csv",
    "tv_distance",
    "wasserstein1",
]

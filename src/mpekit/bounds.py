"""Closed-form robustness and sample-complexity bounds.

Three nested bounds connect a certified equilibrium of a perturbed game to
the original game: an instance bound built from the worst expected-value gap
of the perturbed equilibrium values under the two transition kernels, an
IPM bound that replaces that gap with (transition IPM) x (functional of the
value), and worst-case specializations that need only the perturbed game's
reward span (total variation) or Lipschitz constants (Wasserstein).

Sample sizes invert a Hoeffding tail; logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import (
    MarkovGame,
    Mdp,
    StrategyProfile,
    check_discount,
    induced_mdp,
)
from .mdp import evaluate_policy
from .metrics import (
    TOTAL_VARIATION,
    WASSERSTEIN,
    comparison_metric,
    game_approx_params,
    game_lipschitz_constants,
    lipschitz_constant,
    span,
)


@dataclass(frozen=True, eq=False)
class RobustnessReport:
    """The full bound ladder for one game pair and equilibrium profile.

    ``alpha_instance`` uses the exact per-player expected-value gaps
    (``per_player_delta_term``); ``alpha_ipm`` relaxes each gap to
    delta x rho(value); ``alpha_corollary`` further relaxes rho to its
    worst case over value functions, and is None for the Wasserstein kind
    when the Lipschitz specialization does not apply (gamma L_P >= 1).
    The three tiers loosen monotonically.
    """

    epsilon: float
    delta: float
    per_player_delta_term: np.ndarray
    alpha_instance: np.ndarray
    alpha_ipm: np.ndarray
    alpha_corollary: np.ndarray | None
    ipm_kind: str


def _check_nonnegative(**values: float) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value!r}")


def delta_term(g: MarkovGame | Mdp, g_hat: MarkovGame | Mdp, v_hat) -> float:
    """Worst expected-value gap of a fixed vector under two kernels.

    max over (state, action) of |sum_s' (P - P_hat)(s'|s, a) v_hat(s')|.
    Accepts games or MDPs of identical shape; v_hat is any per-state vector
    (equilibrium values are the usual choice, but not required).
    """
    v = np.asarray(getattr(v_hat, "values", v_hat), dtype=np.float64)
    if g.transitions.shape != g_hat.transitions.shape:
        raise ValueError(
            f"shape mismatch: {g.transitions.shape} vs {g_hat.transitions.shape}"
        )
    if v.shape != (g.transitions.shape[0],):
        raise ValueError(
            f"value vector has shape {v.shape} for "
            f"{g.transitions.shape[0]} states"
        )
    gaps = (g.transitions - g_hat.transitions) @ v
    return float(np.max(np.abs(gaps)))


def alpha_bound_instance(epsilon: float, delta_term: float,
                         gamma: float) -> float:
    """Instance bound 2 (epsilon + gamma Delta / (1 - gamma))."""
    _check_nonnegative(epsilon=epsilon, delta_term=delta_term)
    check_discount(gamma)
    return 2.0 * (epsilon + gamma * delta_term / (1.0 - gamma))


def alpha_bound_ipm(epsilon: float, delta: float, rho: float,
                    gamma: float) -> float:
    """IPM bound 2 (epsilon + gamma delta rho / (1 - gamma))."""
    _check_nonnegative(epsilon=epsilon, delta=delta, rho=rho)
    check_discount(gamma)
    return 2.0 * (epsilon + gamma * delta * rho / (1.0 - gamma))


def alpha_bound_tv(epsilon: float, delta: float, span_reward: float,
                   gamma: float) -> float:
    """Total-variation worst case: rho bounded by the reward span."""
    _check_nonnegative(epsilon=epsilon, delta=delta, span_reward=span_reward)
    check_discount(gamma)
    return 2.0 * (epsilon + gamma * delta * span_reward / (1.0 - gamma))


def alpha_bound_w(epsilon: float, delta: float, l_r: float, l_p: float,
                  gamma: float) -> float:
    """Wasserstein worst case 2 (epsilon + gamma L_r delta / (1 - gamma L_P)).

    Only meaningful when gamma L_P < 1; otherwise raises.
    """
    _check_nonnegative(epsilon=epsilon, delta=delta, l_r=l_r, l_p=l_p)
    check_discount(gamma)
    if gamma * l_p >= 1.0:
        raise ValueError(
            f"bound inapplicable: gamma * L_P = {gamma * l_p!r} >= 1"
        )
    return 2.0 * (epsilon + gamma * l_r * delta / (1.0 - gamma * l_p))


def lipschitz_value_bound(l_r: float, l_p: float, gamma: float) -> float:
    """Bound (1 - gamma) L_r / (1 - gamma L_P) on the optimal value's
    Lipschitz constant; requires gamma L_P < 1."""
    _check_nonnegative(l_r=l_r, l_p=l_p)
    check_discount(gamma)
    if gamma * l_p >= 1.0:
        raise ValueError(
            f"bound inapplicable: gamma * L_P = {gamma * l_p!r} >= 1"
        )
    return (1.0 - gamma) * l_r / (1.0 - gamma * l_p)


def mdp_alpha_bound(epsilon: float, delta_term: float, gamma: float) -> float:
    """Single-agent counterpart of :func:`alpha_bound_instance`.

    Same arithmetic, kept as its own entry point: here the bound reads on
    the suboptimality of a perturbed-model optimal strategy in the original
    MDP.
    """
    return alpha_bound_instance(epsilon, delta_term, gamma)


def hoeffding_tail(n: int, gap: float, span_h: float) -> float:
    """Two-sided Hoeffding tail 2 exp(-2 n gap^2 / H^2).

    Bounds the probability that the empirical mean of a span-H function of
    n i.i.d. samples misses its expectation by at least ``gap``.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if gap <= 0 or span_h <= 0:
        raise ValueError("gap and span_h must be positive")
    return 2.0 * math.exp(-2.0 * n * gap * gap / (span_h * span_h))


def _sample_size_real(alpha: float, p: float, span_reward: float,
                      union_count: float, gamma: float) -> float:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if span_reward < 0:
        raise ValueError("span_reward must be nonnegative")
    check_discount(gamma)
    scale = (gamma / (1.0 - gamma)) * span_reward
    return scale * scale * 2.0 * math.log(2.0 * union_count / p) / (alpha * alpha)


def sample_size_mdp(alpha: float, p: float, span_reward: float,
                    num_states: int, num_actions: int, gamma: float) -> int:
    """Per-pair sample count sufficient for an alpha-optimal plug-in policy
    with probability 1 - p. Ceiling with a floor of one sample."""
    if num_states < 1 or num_actions < 1:
        raise ValueError("num_states and num_actions must be positive")
    real = _sample_size_real(alpha, p, span_reward,
                             num_states * num_actions, gamma)
    return max(1, math.ceil(real))


def sample_size_game(alpha: float, p: float, span_reward: float,
                     num_states: int, action_counts: list[int],
                     num_players: int, gamma: float) -> int:
    """Per-pair sample count sufficient for a plug-in equilibrium of the
    sampled game to be an alpha-equilibrium of the true game with
    probability 1 - p. Reduces to :func:`sample_size_mdp` for one player."""
    if num_states < 1 or num_players < 1:
        raise ValueError("num_states and num_players must be positive")
    if len(action_counts) != num_players or any(c < 1 for c in action_counts):
        raise ValueError("action_counts must list one positive count per player")
    joint = 1
    for count in action_counts:
        joint *= count
    real = _sample_size_real(alpha, p, span_reward,
                             num_states * joint * num_players, gamma)
    return max(1, math.ceil(real))


def robustness_report(g: MarkovGame, g_hat: MarkovGame, ipm_kind: str, *,
                      profile: StrategyProfile | None = None,
                      values: list | None = None) -> RobustnessReport:
    """Assemble the full bound ladder for a game pair.

    The per-player perturbed-equilibrium values can be given directly via
    ``values`` (one vector per player) or derived from ``profile`` by
    evaluating it on the perturbed game. Exactly one of the two must be
    provided.
    """
    if (profile is None) == (values is None):
        raise ValueError("provide exactly one of profile or values")
    params = game_approx_params(g, g_hat, ipm_kind)
    gamma = g.discount
    num_players = g.num_players
    if values is None:
        value_vectors = []
        for player in range(num_players):
            mdp_hat = induced_mdp(g_hat, profile, player)
            value_vectors.append(
                evaluate_policy(mdp_hat, profile.strategies[player]).values
            )
    else:
        if len(values) != num_players:
            raise ValueError(
                f"got {len(values)} value vectors for {num_players} players"
            )
        value_vectors = [
            np.asarray(getattr(v, "values", v), dtype=np.float64)
            for v in values
        ]

    deltas = np.array([delta_term(g, g_hat, v) for v in value_vectors])
    instance = np.array([
        alpha_bound_instance(params.epsilon, d, gamma) for d in deltas
    ])
    if ipm_kind == TOTAL_VARIATION:
        rhos = [span(v) for v in value_vectors]
        corollary = np.array([
            alpha_bound_tv(params.epsilon, params.delta,
                           span(g_hat.rewards[i]), gamma)
            for i in range(num_players)
        ])
    elif ipm_kind == WASSERSTEIN:
        metric = comparison_metric(g, g_hat)
        rhos = [lipschitz_constant(v, metric) for v in value_vectors]
        l_r, l_p = game_lipschitz_constants(g_hat, metric=metric)
        if gamma * l_p < 1.0:
            bound = alpha_bound_w(params.epsilon, params.delta, l_r, l_p, gamma)
            corollary = np.full(num_players, bound)
        else:
            corollary = None
    else:
        raise ValueError(f"unknown IPM kind {ipm_kind!r}")
    ipm_bounds = np.array([
        alpha_bound_ipm(params.epsilon, params.delta, rho, gamma)
        for rho in rhos
    ])
    return RobustnessReport(
        epsilon=params.epsilon,
        delta=params.delta,
        per_player_delta_term=deltas,
        alpha_instance=instance,
        alpha_ipm=ipm_bounds,
        alpha_corollary=corollary,
        ipm_kind=ipm_kind,
    )

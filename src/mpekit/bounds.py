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

from .games import (MarkovGame, StrategyProfile, _check_count,
                    _finite_values, check_discount, check_profile)
from .mdp import _profile_values, _require_finite
from .metrics import (
    TOTAL_VARIATION,
    _approx_params,
    _check_nonnegative,
    _lipschitz,
    _lipschitz_constants,
    _span,
)


@dataclass(frozen=True, eq=False)
class RobustnessReport:
    """The full bound ladder for a game pair and a profile of the second game.

    ``alpha_instance`` uses the exact per-player expected-value gaps
    (``per_player_delta_term``); ``alpha_ipm`` relaxes each gap to
    delta x rho(value); ``alpha_corollary`` further relaxes rho to its
    worst case over value functions, and is None for the Wasserstein kind
    when the Lipschitz specialization does not apply (gamma L_P >= 1).

    ``alpha_instance <= alpha_ipm`` always holds, since each IPM bounds the
    expected-value gap of any vector by delta x rho(vector). Under total
    variation ``alpha_ipm <= alpha_corollary`` holds too: a normalized
    value's span is at most its player's reward span. Under Wasserstein
    the corollary rests on the Lipschitz bound for an MDP's optimal value,
    which a player's value against state-dependent opponent strategies need
    not obey, so for two-player profiles ``alpha_corollary`` can fall below
    ``alpha_ipm``.
    """

    epsilon: float
    delta: float
    per_player_delta_term: np.ndarray
    alpha_instance: np.ndarray
    alpha_ipm: np.ndarray
    alpha_corollary: np.ndarray | None
    ipm_kind: str


def delta_term(g: MarkovGame, g_hat: MarkovGame, v_hat) -> float:
    """Worst expected-value gap of a fixed vector under two kernels.

    max over (state, action) of |sum_s' (P - P_hat)(s'|s, a) v_hat(s')|.
    Accepts games of identical shape, one-player games (MDPs) included;
    v_hat is any per-state vector (equilibrium values are the usual choice,
    but not required).
    """
    if g.transitions.shape != g_hat.transitions.shape:
        raise ValueError(
            f"shape mismatch: {g.transitions.shape} vs {g_hat.transitions.shape}"
        )
    return _delta_term(g, g_hat,
                       _finite_values(v_hat, "value vector", g.num_states))


def _delta_term(g: MarkovGame, g_hat: MarkovGame, v: np.ndarray) -> float:
    """``delta_term`` of a finite vector, for games of one shape."""
    return float(np.max(np.abs((g.transitions - g_hat.transitions) @ v)))


def alpha_bound_ipm(epsilon: float, delta: float, rho: float,
                    gamma: float) -> float:
    """IPM bound 2 (epsilon + gamma delta rho / (1 - gamma)).

    With rho = 1 and a ``delta_term`` as delta, this is the instance bound
    2 (epsilon + gamma Delta / (1 - gamma)).
    """
    _check_nonnegative(epsilon=epsilon, delta=delta, rho=rho)
    check_discount(gamma)
    return 2.0 * (epsilon + gamma * delta * rho / (1.0 - gamma))


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


def hoeffding_tail(n: int, gap: float, span_h: float) -> float:
    """Two-sided Hoeffding tail 2 exp(-2 n gap^2 / H^2).

    Bounds the probability that the empirical mean of a span-H function of
    n i.i.d. samples misses its expectation by at least ``gap``.
    """
    _check_count(n, "n")
    for name, value in (("gap", gap), ("span_h", span_h)):
        # NaN fails the comparison, so it is rejected too.
        if not 0 < value < math.inf:
            raise ValueError(
                f"{name} must be positive and finite, got {value!r}")
    return 2.0 * math.exp(-2.0 * n * gap * gap / (span_h * span_h))


def _sample_size_real(alpha: float, p: float, span_reward: float,
                      union_count: float, gamma: float) -> float:
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if not (span_reward >= 0 and math.isfinite(span_reward)):
        raise ValueError(
            f"span_reward must be finite and nonnegative, got {span_reward!r}")
    check_discount(gamma)
    scale = (gamma / (1.0 - gamma)) * span_reward
    numerator = scale * scale * 2.0 * math.log(2.0 * union_count / p)
    if numerator == 0.0:
        return 0.0
    # alpha * alpha underflows to zero below about 1e-162.
    real = numerator / (alpha * alpha) if alpha * alpha > 0.0 else math.inf
    if not math.isfinite(real):
        raise ValueError(
            f"sample budget is not finite for alpha {alpha!r}, p {p!r} and "
            f"span_reward {span_reward!r}")
    return real


def sample_size_game(alpha: float, p: float, span_reward: float,
                     num_states: int, action_counts: list[int],
                     num_players: int, gamma: float) -> int:
    """Per-pair sample count sufficient for a plug-in equilibrium of the
    sampled game to be an alpha-equilibrium of the true game with
    probability 1 - p. With one player this is the MDP sample size."""
    _check_count(num_states, "num_states")
    _check_count(num_players, "num_players")
    if len(action_counts) != num_players:
        raise ValueError("action_counts must list one count per player")
    for player, count in enumerate(action_counts):
        _check_count(count, f"action_counts[{player}]")
    joint = 1
    for count in action_counts:
        joint *= count
    real = _sample_size_real(alpha, p, span_reward,
                             num_states * joint * num_players, gamma)
    return max(1, math.ceil(real))


def robustness_report(g: MarkovGame, g_hat: MarkovGame, ipm_kind: str, *,
                      profile: StrategyProfile) -> RobustnessReport:
    """Assemble the full bound ladder for a game pair and a profile of
    ``g_hat``, usually an equilibrium of it.

    The profile is checked against ``g_hat`` before any distance work, then
    evaluated on ``g_hat``, every player in one solve of the Markov chain
    the profile induces.
    """
    check_profile(g_hat, profile)
    params, rows, metric, coords = _approx_params(g, g_hat, ipm_kind)
    gamma = g.discount
    num_players = g.num_players
    value_vectors = _profile_values(
        g_hat, [s.probabilities for s in profile.strategies])
    _require_finite("policy value", value_vectors.T)

    deltas = np.array([_delta_term(g, g_hat, v) for v in value_vectors])
    instance = np.array([
        alpha_bound_ipm(params.epsilon, d, 1.0, gamma) for d in deltas
    ])
    if ipm_kind == TOTAL_VARIATION:
        rhos = [_span(v) for v in value_vectors]
        corollary = np.array([
            alpha_bound_ipm(params.epsilon, params.delta,
                            _span(g_hat.rewards[i]), gamma)
            for i in range(num_players)
        ])
    else:
        rhos = [_lipschitz(v, metric) for v in value_vectors]
        l_r, l_p = _lipschitz_constants(g_hat.rewards, rows, metric, coords)
        if gamma * l_p < 1.0:
            bound = alpha_bound_w(params.epsilon, params.delta, l_r, l_p, gamma)
            corollary = np.full(num_players, bound)
        else:
            corollary = None
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

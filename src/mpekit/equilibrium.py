"""Equilibrium certification for Markov games.

A strategy profile is certified by reduction: fixing everyone else turns the
game into one MDP per player, and the profile is an equilibrium exactly when
each player's strategy is optimal for their induced MDP. The certificate
records, per player, the achieved value, the best-response value, and the
gap between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import (MarkovGame, StrategyProfile, ValueFunction,
                    _induced_model, check_profile)
from .mdp import (_best_response, _policy_values, _profile_chain,
                  _require_finite)

#: ``CertificateAlpha.alpha_clamped`` zeroes gaps in [-2 DEFAULT_TOL, 0).
DEFAULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CertificateAlpha:
    """Per-player equilibrium gaps for a strategy profile.

    ``per_player_alpha`` holds raw gaps max_s (best-response value minus
    achieved value); they can dip a hair below zero through numerics.
    ``alpha_clamped`` zeroes that noise, any gap in [-2 DEFAULT_TOL, 0), for
    reporting while the raw values stay available.
    """

    per_player_alpha: np.ndarray
    per_player_value: tuple[ValueFunction, ...]
    per_player_best_response_value: tuple[ValueFunction, ...]

    def alpha_clamped(self) -> np.ndarray:
        alpha = self.per_player_alpha
        return np.where((alpha < 0.0) & (alpha >= -2.0 * DEFAULT_TOL), 0.0,
                        alpha)

    @property
    def max_alpha(self) -> float:
        return float(np.max(self.per_player_alpha))


def certify_profile(game: MarkovGame, profile: StrategyProfile
                    ) -> CertificateAlpha:
    """Measure each player's incentive to deviate from a profile.

    Each player's induced MDP gives the value their own strategy achieves
    (one linear solve stacked over all players) and the best-response value
    (Howard policy iteration), bit for bit those of ``evaluate_policy`` and
    ``solve_optimal`` on ``induced_mdp``. The gap alpha_i = max_s (best -
    achieved) is nonnegative up to numerics and is zero for every player iff
    the profile is an equilibrium.

    An MDP is a one-player game, so for ``StrategyProfile((strategy,))``
    the one gap ``per_player_alpha[0]`` is the strategy's optimality gap:
    its largest per-state shortfall against the optimal value.
    """
    check_profile(game, profile)
    strategies = [strat.probabilities for strat in profile.strategies]
    models = [_induced_model(game, strategies, player)
              for player in range(game.num_players)]
    chains = zip(*(_profile_chain(trans, rew[None], [probs])
                   for probs, (trans, rew) in zip(strategies, models)))
    achieved = _policy_values(game, *map(np.stack, chains))[..., 0]
    values, best_values = [], []
    for player, (trans, rew) in enumerate(models):
        values.append(_require_finite("policy value", achieved[player]))
        best_values.append(_best_response(trans, rew, game.discount)[0])
    alphas = np.array([np.max(b - a) for a, b in zip(values, best_values)])
    return CertificateAlpha(alphas, tuple(map(ValueFunction, values)),
                            tuple(map(ValueFunction, best_values)))


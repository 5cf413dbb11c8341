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
from .mdp import _best_response, _profile_values, _require_finite

#: ``CertificateAlpha.alpha_clamped`` zeroes gaps in [-2 DEFAULT_TOL, 0).
DEFAULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CertificateAlpha:
    """Per-player equilibrium gaps for a strategy profile.

    ``per_player_alpha`` holds raw gaps max_s (best-response value minus
    achieved value, each its own solve); numerics can dip them below zero.
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

    Every player's achieved value comes from one solve of the profile's
    Markov chain, the evaluation ``robustness_report`` makes: bit for bit
    ``evaluate_policy`` for one player, within roundoff of it on each
    ``induced_mdp`` otherwise. Each best-response value is bit for bit
    ``solve_optimal`` on ``induced_mdp``. The gap alpha_i = max_s (best -
    achieved) is nonnegative up to numerics and is zero for every player iff
    the profile is an equilibrium.

    An MDP is a one-player game, so for ``StrategyProfile((strategy,))``
    the one gap ``per_player_alpha[0]`` is the strategy's optimality gap:
    its largest per-state shortfall against the optimal value.
    """
    check_profile(game, profile)
    strategies = [strat.probabilities for strat in profile.strategies]
    achieved = _profile_values(game, strategies)
    _require_finite("policy value", achieved.T)
    best = [_best_response(*_induced_model(game, strategies, player),
                           game.discount)[0]
            for player in range(game.num_players)]
    alphas = np.array([np.max(b - a) for a, b in zip(achieved, best)])
    return CertificateAlpha(alphas, tuple(map(ValueFunction, achieved)),
                            tuple(map(ValueFunction, best)))

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

from .games import MarkovGame, StrategyProfile, ValueFunction, induced_mdp
from .mdp import evaluate_policy, solve_optimal

#: Default tolerance for clamping noise and deciding equilibria.
DEFAULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CertificateAlpha:
    """Per-player equilibrium gaps for a strategy profile.

    ``per_player_alpha`` holds raw gaps max_s (best-response value minus
    achieved value); they can dip a hair below zero through numerics, never
    below -2 tol. ``alpha_clamped`` zeroes that noise for reporting while
    the raw values stay available.
    """

    per_player_alpha: np.ndarray
    per_player_value: tuple[ValueFunction, ...]
    per_player_best_response_value: tuple[ValueFunction, ...]
    tol: float

    def alpha_clamped(self) -> np.ndarray:
        alpha = self.per_player_alpha
        return np.where((alpha < 0.0) & (alpha >= -2.0 * self.tol), 0.0, alpha)

    @property
    def max_alpha(self) -> float:
        return float(np.max(self.per_player_alpha))


def certify_profile(game: MarkovGame, profile: StrategyProfile,
                    tol: float = DEFAULT_TOL) -> CertificateAlpha:
    """Measure each player's incentive to deviate from a profile.

    For player i, the induced MDP is solved twice: policy evaluation of the
    player's own strategy, and the optimal (best-response) value. The gap
    alpha_i = max_s (best - achieved) is nonnegative up to numerics and is
    zero for every player iff the profile is an equilibrium.

    An MDP is a one-player game, so for ``StrategyProfile((strategy,))``
    the one gap ``per_player_alpha[0]`` is the strategy's optimality gap:
    its largest per-state shortfall against the optimal value.

    Per-player certifications are independent; results are assembled in
    player order.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    alphas = np.zeros(game.num_players)
    values = []
    best_values = []
    for player in range(game.num_players):
        mdp = induced_mdp(game, profile, player)
        achieved = evaluate_policy(mdp, profile.strategies[player])
        best, _ = solve_optimal(mdp)
        alphas[player] = float(np.max(best.values - achieved.values))
        values.append(achieved)
        best_values.append(best)
    return CertificateAlpha(
        per_player_alpha=alphas,
        per_player_value=tuple(values),
        per_player_best_response_value=tuple(best_values),
        tol=tol,
    )


def is_mpe(game: MarkovGame, profile: StrategyProfile,
           tol: float = DEFAULT_TOL) -> bool:
    """True iff no player can gain more than tol by deviating."""
    certificate = certify_profile(game, profile, tol)
    return bool(np.all(certificate.per_player_alpha <= tol))

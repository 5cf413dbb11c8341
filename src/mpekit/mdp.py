"""Bellman operators and exact planning for finite discounted MDPs.

Two private kernels here serve games of any number of players, and an MDP
is their N = 1 case: ``_action_values`` gives each player's one-shot value
(1 - gamma) r + gamma P v, and ``_profile_values`` the package's one profile
evaluation, a solve of the chain (P_pi, r_pi) ``_profile_chain`` builds.
The solver, ``stage_game``, ``certify_profile`` and ``robustness_report``
use them too.

An MDP is a one-player :class:`~mpekit.games.MarkovGame`: ``rewards`` has
shape ``(1, S, A)`` and its one action set is the agent's. Every public
function here rejects a game with any other number of players.

Rewards are normalized: every backup scales the stage reward by (1 - gamma),
so value functions stay inside the reward range. Policy evaluation is a
direct linear solve; optimal values come from ``_best_response``, Howard
policy iteration, exact and finite (Puterman, *Markov Decision Processes*,
1994, section 6.4), which ``solve_optimal`` and ``certify_profile`` share.
"""

from __future__ import annotations

import functools

import numpy as np

from .games import (MarkovGame, MarkovStrategy, StrategyProfile,
                    ValueFunction, _finite_values, _joint_weights,
                    check_profile)


def _check_dims(mdp: MarkovGame, *strategy: MarkovStrategy) -> None:
    if mdp.num_players != 1:
        raise ValueError(
            f"an MDP is a one-player game, got {mdp.num_players} players"
        )
    if strategy:
        check_profile(mdp, StrategyProfile(strategy))


def _require_finite(what: str, array: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(array)
    if bad.any():
        raise ValueError(
            f"{what} not finite at state {np.argwhere(bad)[0][0]}; check "
            "the rewards and transitions for NaN, infinite or huge entries"
        )
    return array


@functools.cache
def _identity(size: int) -> np.ndarray:
    """The identity matrix of a size, cached and read-only: for action and
    support counts, not state counts, whose squares would stay pinned."""
    eye = np.eye(size)
    eye.setflags(write=False)
    return eye


def _action_values(game: MarkovGame, values, states=slice(None)
                   ) -> np.ndarray:
    """Each player's one-shot values at ``states``: shape (N, ..., A).

    Entry [i, s, j] is (1 - gamma) r_i(s, j) + (gamma P[s, j]) @ values[i];
    ``np.vecdot`` rounds each row as that ``@`` does, a batched matmul not.
    A dot rounds by its operands' strides, so the values are taken in C
    order: the bits depend on the values alone, not on the caller's layout.
    """
    gamma = game.discount
    cont = gamma * game.transitions[states]
    values = np.ascontiguousarray(values)
    return ((1.0 - gamma) * game.rewards[:, states]
            + np.vecdot(cont, values[(slice(None),)
                                     + (None,) * (cont.ndim - 1)]))


def bellman_policy(mdp: MarkovGame, strategy: MarkovStrategy,
                   v) -> ValueFunction:
    """One application of the fixed-strategy Bellman operator.

    ``v`` is a :class:`ValueFunction` or array of one finite entry per
    state; anything else raises ``ValueError``.
    """
    _check_dims(mdp, strategy)
    q = _action_values(mdp, [_finite_values(v, "value function",
                                            mdp.num_states)])[0]
    return ValueFunction((strategy.probabilities * q).sum(axis=1))


def bellman_optimal(mdp: MarkovGame, v) -> ValueFunction:
    """One application of the optimality Bellman operator (max over actions),
    on ``v`` as ``bellman_policy`` takes it."""
    _check_dims(mdp)
    q = _action_values(mdp, [_finite_values(v, "value function",
                                            mdp.num_states)])[0]
    return ValueFunction(q.max(axis=1))


def _profile_chain(transitions: np.ndarray, rewards: np.ndarray, strategies
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(P_pi[s, s'], r_pi[s, i]) of the Markov chain that a profile of
    (S, A_i) probability arrays induces on transitions and rewards."""
    joint = _joint_weights(strategies, len(transitions))
    p_pi = np.einsum("sj,sjt->st", joint, transitions)
    r_pi = np.einsum("sj,isj->si", joint, rewards)
    return p_pi, r_pi


def _profile_values(game: MarkovGame, strategies) -> np.ndarray:
    """Every player's values under a profile of (S, A_i) arrays, (N, S),
    from one solve of its chain."""
    p_pi, r_pi = _profile_chain(game.transitions, game.rewards, strategies)
    gamma = game.discount
    matrix = np.eye(game.num_states) - gamma * p_pi
    return np.linalg.solve(matrix, (1.0 - gamma) * r_pi).T


def evaluate_policy(mdp: MarkovGame,
                    strategy: MarkovStrategy) -> ValueFunction:
    """The unique fixed point of the fixed-strategy operator.

    Solves (I - gamma P_pi) V = (1 - gamma) r_pi directly, so the result is
    exact up to linear-algebra roundoff. The system is nonsingular, as the
    game's discount was checked to lie in (0, 1) when it was built; values
    that come out non-finite (huge rewards) raise ``ValueError``.
    """
    _check_dims(mdp, strategy)
    values = _profile_values(mdp, [strategy.probabilities])[0]
    return ValueFunction(_require_finite("policy value", values))


def _best_response(trans, rew, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Howard policy iteration on (S, A, S) transitions and (S, A) rewards:
    (optimal values, one-hot greedy policy of the final Q). gamma P and
    (1 - gamma) r are formed once; q rounds as ``_action_values``'s does.
    Each step improves strictly on a valid model, so a revisit cannot happen
    on a checked game's arrays; it raises rather than spins if it does."""
    cont, base = gamma * trans, (1.0 - gamma) * rew
    states, identity = np.arange(len(rew)), np.eye(len(rew))
    policy = rew.argmax(axis=1)
    seen = set()
    while (key := policy.tobytes()) not in seen:
        seen.add(key)
        values = np.linalg.solve(identity - cont[states, policy],
                                 base[states, policy])
        q = base + np.vecdot(cont, values)
        # The largest magnitude is NaN or infinite iff some entry is.
        scale = np.abs(q).max()
        if not np.isfinite(scale):
            _require_finite("action value", q)
        greedy = q.argmax(axis=1)
        improve = q.max(axis=1) > q[states, policy] + 1e-13 * max(1.0, scale)
        if not improve.any():
            return values, _identity(rew.shape[1])[greedy]
        policy = np.where(improve, greedy, policy)
    raise ValueError("policy iteration revisited a policy; the transition "
                     "rows are not all distributions")


def solve_optimal(mdp: MarkovGame) -> tuple[ValueFunction, MarkovStrategy]:
    """Optimal value function and a deterministic greedy strategy.

    Howard policy iteration: evaluate exactly, then switch the states whose
    greedy action gains more than a roundoff margin (so ties cannot cycle),
    until none does. Greedy ties break toward the lowest action index.
    The game was checked when it was built; a non-finite action value
    (huge rewards) raises ``ValueError``.
    """
    _check_dims(mdp)
    v, greedy = _best_response(mdp.transitions, mdp.rewards[0], mdp.discount)
    return ValueFunction(v), MarkovStrategy(greedy)

"""Bellman operators and exact planning for finite discounted MDPs.

Rewards are normalized: every backup scales the stage reward by (1 - gamma),
so value functions stay inside the reward range. Policy evaluation is a
direct linear solve; optimal values come from Howard policy iteration, exact
and finite (Puterman, *Markov Decision Processes*, 1994, section 6.4).
"""

from __future__ import annotations

import numpy as np

from .games import MarkovStrategy, Mdp, ValueFunction, check_discount

#: Default tolerance for clamping noise and deciding equilibria.
DEFAULT_TOL = 1e-10


def _check_dims(mdp: Mdp, strategy: MarkovStrategy | None = None,
                v: ValueFunction | None = None) -> None:
    if strategy is not None:
        expected = (mdp.num_states, mdp.num_actions)
        if strategy.probabilities.shape != expected:
            raise ValueError(
                f"strategy shape {strategy.probabilities.shape} does not "
                f"match MDP shape {expected}"
            )
    if v is not None and len(v) != mdp.num_states:
        raise ValueError(
            f"value function has {len(v)} entries for {mdp.num_states} states"
        )


def _action_values(mdp: Mdp, values: np.ndarray) -> np.ndarray:
    """q[s, a] = (1 - gamma) r(s, a) + gamma * sum_s' P(s'|s, a) v(s')."""
    gamma = mdp.discount
    return (1.0 - gamma) * mdp.rewards + gamma * mdp.transitions @ values


def bellman_policy(mdp: Mdp, strategy: MarkovStrategy,
                   v: ValueFunction) -> ValueFunction:
    """One application of the fixed-strategy Bellman operator."""
    _check_dims(mdp, strategy, v)
    q = _action_values(mdp, v.values)
    return ValueFunction((strategy.probabilities * q).sum(axis=1))


def bellman_optimal(mdp: Mdp, v: ValueFunction) -> ValueFunction:
    """One application of the optimality Bellman operator (max over actions)."""
    _check_dims(mdp, v=v)
    return ValueFunction(_action_values(mdp, v.values).max(axis=1))


def strategy_transitions(mdp: Mdp, strategy: MarkovStrategy) -> np.ndarray:
    """State transition matrix under a strategy: P_pi[s, s']."""
    _check_dims(mdp, strategy)
    return np.einsum("sa,sat->st", strategy.probabilities, mdp.transitions)


def strategy_rewards(mdp: Mdp, strategy: MarkovStrategy) -> np.ndarray:
    """Expected stage reward under a strategy: r_pi[s]."""
    _check_dims(mdp, strategy)
    return (strategy.probabilities * mdp.rewards).sum(axis=1)


def _policy_values(mdp: Mdp, p_pi: np.ndarray, r_pi: np.ndarray) -> np.ndarray:
    check_discount(mdp.discount)
    gamma = mdp.discount
    matrix = np.eye(mdp.num_states) - gamma * p_pi
    return np.linalg.solve(matrix, (1.0 - gamma) * r_pi)


def evaluate_policy(mdp: Mdp, strategy: MarkovStrategy) -> ValueFunction:
    """The unique fixed point of the fixed-strategy operator.

    Solves (I - gamma P_pi) V = (1 - gamma) r_pi directly, so the result is
    exact up to linear-algebra roundoff. The system is nonsingular for any
    discount in (0, 1); any other discount raises ``ValueError``.
    """
    return ValueFunction(_policy_values(mdp, strategy_transitions(mdp, strategy),
                                        strategy_rewards(mdp, strategy)))


def solve_optimal(mdp: Mdp, tol: float = DEFAULT_TOL
                  ) -> tuple[ValueFunction, MarkovStrategy]:
    """Optimal value function and a deterministic greedy strategy.

    Howard policy iteration: evaluate exactly, then switch the states whose
    greedy action gains more than a roundoff margin (so ties cannot cycle),
    until none does. Greedy ties break toward the lowest action index.
    ``tol`` need only be positive; a discount outside (0, 1) raises.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    states = np.arange(mdp.num_states)
    policy = np.argmax(mdp.rewards, axis=1)
    while True:
        values = _policy_values(mdp, mdp.transitions[states, policy],
                                mdp.rewards[states, policy])
        q = _action_values(mdp, values)
        margin = 1e-13 * max(1.0, np.abs(q).max())
        improve = q.max(axis=1) > q[states, policy] + margin
        if not improve.any():
            break
        policy = np.where(improve, np.argmax(q, axis=1), policy)
    greedy = np.eye(mdp.num_actions)[np.argmax(q, axis=1)]
    return ValueFunction(values), MarkovStrategy(greedy)


def alpha_optimality(mdp: Mdp, strategy: MarkovStrategy,
                     tol: float = DEFAULT_TOL) -> float:
    """Largest per-state shortfall of a strategy against the optimum.

    Zero (up to tol) exactly for optimal strategies.
    """
    optimal, _ = solve_optimal(mdp, tol)
    achieved = evaluate_policy(mdp, strategy)
    return float(np.max(optimal.values - achieved.values))

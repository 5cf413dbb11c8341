"""Shared generators and independent oracles used across the test suite.

Oracles here deliberately avoid the library's computation paths: policy
values come from exhaustive enumeration or direct linear algebra, transport
costs from scanning every basic coupling or from scipy's HiGHS LP, and
equilibrium checks from raw deviation enumeration.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from mpekit.equilibrium import certify_profile
from mpekit.games import (GameFormatError, MarkovGame, MarkovStrategy,
                          StrategyProfile, ValueFunction, _check_names,
                          _document_keys, _keyed_values, _load_object,
                          _number, _require, check_profile)
from mpekit.mdp import (_action_values, _check_dims, _profile_chain,
                        _require_finite)
from mpekit.metrics import TOTAL_VARIATION, WASSERSTEIN, _line_embedding
from mpekit.solver import SolveResult, bimatrix_nash


def random_mdp(rng, num_states=3, num_actions=2, discount=0.9,
               reward_low=0.0, reward_high=1.0) -> MarkovGame:
    """A random MDP: a one-player game with ``num_actions`` actions."""
    return random_game(rng, num_states, (num_actions,), discount,
                       reward_low, reward_high)


def with_duplicate(doc: dict, key: str, value, occurrence: int = 0) -> str:
    """``json.dumps(doc)`` with the ``occurrence``-th member named ``key``
    written twice, as ``"key": value`` and then as in ``doc``."""
    name = json.dumps(key) + ": "
    text = json.dumps(doc)
    at = -1
    for _ in range(occurrence + 1):
        at = text.index(name, at + 1)
    return text[:at] + name + json.dumps(value) + ", " + text[at:]


def random_game(rng, num_states=3, action_counts=(2, 2), discount=0.9,
                reward_low=0.0, reward_high=1.0) -> MarkovGame:
    num_players = len(action_counts)
    num_joint = int(np.prod(action_counts))
    transitions = rng.dirichlet(np.ones(num_states),
                                size=(num_states, num_joint))
    rewards = rng.uniform(reward_low, reward_high,
                          size=(num_players, num_states, num_joint))
    return MarkovGame(
        states=tuple(str(s) for s in range(num_states)),
        action_sets=tuple(tuple(str(a) for a in range(c))
                          for c in action_counts),
        transitions=transitions,
        rewards=rewards,
        discount=discount,
    )


@st.composite
def small_mdps(draw):
    """MDPs with S <= 6, A <= 3 and gamma in [0.5, 0.999].

    Drawn entries repeat often (zeros, equal rewards), so ties and sparse,
    absorbing transitions are well represented.
    """
    s = draw(st.integers(1, 6))
    a = draw(st.integers(1, 3))
    weights = draw(arrays(np.float64, (s, a, s), elements=st.floats(0.0, 1.0)))
    weights[weights.sum(axis=-1) == 0.0] = 1.0
    rewards = draw(arrays(np.float64, (s, a), elements=st.floats(-1.0, 1.0)))
    transitions = weights / weights.sum(axis=-1, keepdims=True)
    return MarkovGame(states=tuple(str(i) for i in range(s)),
                      action_sets=[tuple(str(i) for i in range(a))],
                      transitions=transitions, rewards=[rewards],
                      discount=draw(st.floats(0.5, 0.999)))


def random_strategy(rng, num_states, num_actions) -> MarkovStrategy:
    return MarkovStrategy(rng.dirichlet(np.ones(num_actions), size=num_states))


def random_profile(rng, game: MarkovGame) -> StrategyProfile:
    return StrategyProfile(tuple(
        random_strategy(rng, game.num_states, count)
        for count in game.action_counts
    ))


def perturb_game(rng, game: MarkovGame, reward_noise=0.01,
                 transition_noise=0.05) -> MarkovGame:
    """A nearby game: bounded reward shift, renormalized transition shift."""
    rewards = game.rewards + rng.uniform(-reward_noise, reward_noise,
                                         size=game.rewards.shape)
    mix = rng.dirichlet(np.ones(game.num_states),
                        size=game.transitions.shape[:2])
    transitions = (1.0 - transition_noise) * game.transitions \
        + transition_noise * mix
    return MarkovGame(
        states=game.states,
        action_sets=game.action_sets,
        transitions=transitions,
        rewards=rewards,
        discount=game.discount,
        metric=game.metric,
    )


def deterministic_policies(num_states, num_actions):
    """Every deterministic strategy as a one-hot probability matrix."""
    for assignment in itertools.product(range(num_actions), repeat=num_states):
        probs = np.zeros((num_states, num_actions))
        probs[np.arange(num_states), assignment] = 1.0
        yield MarkovStrategy(probs)


def policy_value_direct(mdp: MarkovGame,
                        strategy: MarkovStrategy) -> np.ndarray:
    """Policy value by direct matrix inversion, independent of the library."""
    pi = strategy.probabilities
    p_pi = np.einsum("sa,sat->st", pi, mdp.transitions)
    r_pi = (pi * mdp.rewards[0]).sum(axis=1)
    gamma = mdp.discount
    return np.linalg.inv(np.eye(mdp.num_states) - gamma * p_pi) \
        @ ((1.0 - gamma) * r_pi)


def best_deterministic_value(mdp: MarkovGame) -> np.ndarray:
    """Componentwise best value over every deterministic strategy."""
    best = None
    for strategy in deterministic_policies(mdp.num_states,
                                           mdp.action_counts[0]):
        value = policy_value_direct(mdp, strategy)
        best = value if best is None else np.maximum(best, value)
    return best


def transport_cost_tree_oracle(mu, nu, metric) -> float:
    """Minimum transport cost by scanning every basic coupling.

    A basic feasible solution of the transportation polytope is supported
    on a spanning forest of the complete bipartite graph, so scanning all
    edge sets of size n + m - 1 that span the nodes (solving each by leaf
    elimination) visits every vertex. Exponential, fine for <= 4 points.
    """
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    n, m = len(mu), len(nu)
    cells = [(i, j) for i in range(n) for j in range(m)]
    best = np.inf
    for edges in itertools.combinations(cells, n + m - 1):
        degree: dict = {}
        incident: dict = {}
        for (i, j) in edges:
            u, v = ("r", i), ("c", j)
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
            incident.setdefault(u, []).append(((i, j), v))
            incident.setdefault(v, []).append(((i, j), u))
        if len(degree) != n + m:
            continue
        remaining = {("r", i): mu[i] for i in range(n)}
        remaining.update({("c", j): nu[j] for j in range(m)})
        unused = set(edges)
        flow = {}
        feasible = True
        for _ in range(n + m - 1):
            leaf = next((u for u, d in degree.items() if d == 1), None)
            if leaf is None:  # contains a cycle
                feasible = False
                break
            edge, other = next(
                (e for e in incident[leaf] if e[0] in unused)
            )
            flow[edge] = remaining[leaf]
            remaining[other] -= remaining[leaf]
            remaining[leaf] = 0.0
            unused.discard(edge)
            degree[leaf] -= 1
            degree[other] -= 1
        if not feasible:
            continue
        amounts = np.array(list(flow.values()))
        if np.all(amounts >= -1e-12):
            cost = sum(amount * metric[edge] for edge, amount in flow.items())
            best = min(best, float(cost))
    return best


def nash_deviation_gain(payoff_a, payoff_b, x, y) -> float:
    """Largest unilateral improvement available against (x, y)."""
    row = payoff_a @ y
    col = x @ payoff_b
    return max(float(row.max() - x @ row), float(col.max() - col @ y))


def _reference_support_candidate(payoff_a, payoff_b, rows, cols, tol):
    """The pair-by-pair support solve ``bimatrix_nash`` was first written
    with: both equalizing systems are built and solved before either is
    checked. Residuals are judged against tol, support probabilities against
    an absolute -1e-9."""
    k1, k2 = len(rows), len(cols)
    # Column player's mixture equalizes the row player's supported payoffs.
    m1 = np.zeros((k1 + 1, k2 + 1))
    m1[:k1, :k2] = payoff_a[np.ix_(rows, cols)]
    m1[:k1, k2] = -1.0
    m1[k1, :k2] = 1.0
    rhs1 = np.zeros(k1 + 1)
    rhs1[k1] = 1.0
    # Row player's mixture equalizes the column player's supported payoffs.
    m2 = np.zeros((k2 + 1, k1 + 1))
    m2[:k2, :k1] = payoff_b[np.ix_(rows, cols)].T
    m2[:k2, k1] = -1.0
    m2[k2, :k1] = 1.0
    rhs2 = np.zeros(k2 + 1)
    rhs2[k2] = 1.0
    try:
        if k1 == k2:
            sol1 = np.linalg.solve(m1, rhs1)
            sol2 = np.linalg.solve(m2, rhs2)
        else:
            sol1 = np.linalg.lstsq(m1, rhs1, rcond=None)[0]
            sol2 = np.linalg.lstsq(m2, rhs2, rcond=None)[0]
            if np.max(np.abs(m1 @ sol1 - rhs1)) > tol:
                return None
            if np.max(np.abs(m2 @ sol2 - rhs2)) > tol:
                return None
    except np.linalg.LinAlgError:
        return None
    y_support, x_support = sol1[:k2], sol2[:k1]
    if np.any(y_support < -1e-9) or np.any(x_support < -1e-9):
        return None
    x = np.zeros(payoff_a.shape[0])
    y = np.zeros(payoff_a.shape[1])
    x[list(rows)] = np.clip(x_support, 0.0, None)
    y[list(cols)] = np.clip(y_support, 0.0, None)
    x /= x.sum()
    y /= y.sum()
    return x, y


def reference_bimatrix_nash(payoff_a, payoff_b, tol=1e-9):
    """Plain support enumeration, one support pair at a time, pure pairs
    included: the oracle for ``mpekit.solver.bimatrix_nash``'s selection.

    Pairs are scanned by total support size, then row support size, then
    lexicographically; the first passing the deviation check within tol is
    returned, else the one with the smallest gain (the earliest on ties).
    """
    payoff_a = np.asarray(payoff_a, dtype=np.float64)
    payoff_b = np.asarray(payoff_b, dtype=np.float64)
    m, n = payoff_a.shape
    fallback = None
    fallback_gain = np.inf
    for total in range(2, m + n + 1):
        for k1 in range(max(1, total - n), min(m, total - 1) + 1):
            k2 = total - k1
            for rows in itertools.combinations(range(m), k1):
                for cols in itertools.combinations(range(n), k2):
                    candidate = _reference_support_candidate(
                        payoff_a, payoff_b, rows, cols, tol)
                    if candidate is None:
                        continue
                    x, y = candidate
                    gain = nash_deviation_gain(payoff_a, payoff_b, x, y)
                    if gain <= tol:
                        return x, y, (float(x @ payoff_a @ y),
                                      float(x @ payoff_b @ y))
                    if gain < fallback_gain:
                        fallback, fallback_gain = (x, y), gain
    x, y = fallback
    return x, y, (float(x @ payoff_a @ y), float(x @ payoff_b @ y))


def _reference_sweep(game, v):
    """One sweep of equilibrium value iteration; returns (v', pi1, pi2)."""
    payoffs = reference_stage_payoffs(game, v)
    new_v = np.zeros_like(v)
    pi1 = np.zeros((game.num_states, game.action_counts[0]))
    pi2 = np.zeros((game.num_states, game.action_counts[1]))
    for s in range(game.num_states):
        x, y, (pay_x, pay_y) = bimatrix_nash(payoffs[0, s], payoffs[1, s])
        pi1[s], pi2[s] = x, y
        new_v[0, s], new_v[1, s] = pay_x, pay_y
    return new_v, pi1, pi2


def reference_enumeration_sweep(game, v):
    """One sweep of equilibrium value iteration whose stage games are solved
    by ``reference_bimatrix_nash`` at the solver's scaled tol, 1e-9 times
    the largest payoff magnitude (at least 1): the oracle for
    ``mpekit.solver._iterate``. Returns (v', pi1, pi2)."""
    payoffs = reference_stage_payoffs(game, v)
    new_v = np.zeros((2, game.num_states))
    pi1 = np.zeros((game.num_states, game.action_counts[0]))
    pi2 = np.zeros((game.num_states, game.action_counts[1]))
    for s in range(game.num_states):
        payoff_a, payoff_b = payoffs[0, s], payoffs[1, s]
        tol = 1e-9 * max(1.0, np.abs(payoff_a).max(), np.abs(payoff_b).max())
        x, y, (pay_x, pay_y) = reference_bimatrix_nash(payoff_a, payoff_b,
                                                       tol)
        pi1[s], pi2[s] = x, y
        new_v[0, s], new_v[1, s] = pay_x, pay_y
    return new_v, pi1, pi2


def reference_solve_mpe(game, tol=1e-8, max_iter=10_000, seed=0):
    """Equilibrium value iteration with seeded restarts, as
    ``mpekit.solver.solve_mpe`` was written before game policy iteration:
    the oracle for its coverage.

    Sweeps run from zero values until successive values differ by at most
    tol (1 - gamma) / (2 gamma); up to ten snapshots of each attempt are
    certified, latest first, and up to two restarts draw values inside the
    reward envelope. The best certified iterate is returned.
    """
    gamma = game.discount
    threshold = tol * (1.0 - gamma) / (2.0 * gamma)
    rng = np.random.default_rng(seed)
    rmin, rmax = float(game.rewards.min()), float(game.rewards.max())
    snapshot_every = max(1, max_iter // 10)
    iterations = 0
    best = None
    for attempt in range(3):
        if attempt == 0:
            v = np.zeros((2, game.num_states))
        else:
            v = rng.uniform(rmin, rmax, size=(2, game.num_states))
        candidates = []
        for sweep in range(max_iter):
            new_v, pi1, pi2 = _reference_sweep(game, v)
            change = float(np.max(np.abs(new_v - v)))
            v = new_v
            iterations += 1
            if change <= threshold:
                break
            if (sweep + 1) % snapshot_every == 0:
                candidates.append((pi1.copy(), pi2.copy()))
        candidates.append((pi1, pi2))
        seen = set()
        for cand1, cand2 in reversed(candidates):
            key = (cand1.tobytes(), cand2.tobytes())
            if key in seen:
                continue
            seen.add(key)
            profile = StrategyProfile(
                (MarkovStrategy(cand1), MarkovStrategy(cand2)))
            certificate = certify_profile(game, profile)
            gap = certificate.max_alpha
            if best is None or gap < best[0]:
                best = (gap, profile, certificate)
            if gap <= tol:
                break
        if best[0] <= tol:
            break
    gap, profile, certificate = best
    return SolveResult(profile=profile, certificate=certificate,
                       iterations=iterations, converged=gap <= tol)


def triple_loop_triangle(metric, atol):
    """The first (i, j, k) with d(i, k) > d(i, j) + d(j, k) + atol, by a
    triple loop, or None."""
    n = len(metric)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if metric[i, k] > metric[i, j] + metric[j, k] + atol:
                    return i, j, k
    return None


def per_row_triangle(metric, atol):
    """``triple_loop_triangle`` one row i at a time, as ``metric_violations``
    checked it before its block check."""
    for i in range(len(metric)):
        # bad[j, k]: d(i, k) > d(i, j) + d(j, k) + atol, summed in that order
        bad = metric[i] > metric[i][:, None] + metric + atol
        if np.any(bad):
            j, k = np.argwhere(bad)[0]
            return i, j, k
    return None


def reference_metric_violations(metric, atol=1e-12,
                                triangle=triple_loop_triangle) -> list[str]:
    """``metric_violations`` as first written, its triangle check by
    ``triangle``: the oracle for the array form's list of messages."""
    out = []
    metric = np.asarray(metric, dtype=np.float64)
    if metric.ndim != 2 or metric.shape[0] != metric.shape[1]:
        return [f"metric is not square: shape {metric.shape}"]
    bad = ~np.isfinite(metric)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return [f"metric entry ({i}, {j}) is not finite"]
    n = metric.shape[0]
    diag = np.abs(np.diag(metric))
    if np.any(diag > atol):
        s = int(np.argmax(diag > atol))
        out.append(f"metric d(s,s) != 0 at state index {s}")
    asym = np.abs(metric - metric.T)
    if np.any(asym > atol):
        i, j = np.argwhere(asym > atol)[0]
        out.append(f"metric not symmetric at ({i}, {j})")
    off = metric + np.eye(n)  # exclude the diagonal from positivity
    if np.any(off <= 0):
        i, j = np.argwhere(off <= 0)[0]
        out.append(f"metric d(s,s') <= 0 for distinct states ({i}, {j})")
    first = triangle(metric, atol)
    if first is not None:
        out.append("metric triangle inequality fails on ({}, {}, {})".format(
            *first))
    return out


def _reference_row(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < -1e-9) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("not a probability distribution")
    return np.clip(p, 0.0, None)


def reference_transport_lp(mu, nu, metric) -> float:
    """Wasserstein-1 by scipy's HiGHS transportation LP over couplings of mu
    and nu, solved on the metric scaled to a diameter of 1 at primal and
    dual feasibility tolerances of 1e-10, without presolve (which can read
    entries below 1e-7 as infeasible). The larger of the two masses is only
    an upper bound on its marginal, so the smaller mass moves. Equal
    marginals give exactly 0 without a solve."""
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if np.array_equal(mu, nu):
        return 0.0
    n = len(mu)
    cells = np.arange(n * n)
    row_sums = np.zeros((n, n * n))
    row_sums[cells // n, cells] = 1.0
    col_sums = np.zeros((n, n * n))
    col_sums[cells % n, cells] = 1.0
    if mu.sum() >= nu.sum():
        bounded = {"A_ub": row_sums, "b_ub": mu, "A_eq": col_sums, "b_eq": nu}
    else:
        bounded = {"A_ub": col_sums, "b_ub": nu, "A_eq": row_sums, "b_eq": mu}
    diameter = float(metric.max())
    result = linprog((metric / diameter).reshape(-1), bounds=(0, None),
                     method="highs", options={
                         "primal_feasibility_tolerance": 1e-10,
                         "dual_feasibility_tolerance": 1e-10,
                         "presolve": False}, **bounded)
    if not result.success:
        raise RuntimeError(f"reference transport LP failed: {result.message}")
    return diameter * float(result.fun)


def _reference_ipm(mu, nu, ipm_kind, metric, transport) -> float:
    """One row pair at a time, as ``tv_distance`` and ``wasserstein1`` were
    first written: half the L1 difference, the 1-D cumulative-mass dot
    product on a line metric, else ``transport(mu, nu, metric)``."""
    mu, nu = _reference_row(mu), _reference_row(nu)
    if ipm_kind == TOTAL_VARIATION:
        return float(0.5 * np.abs(mu - nu).sum())
    coords = _line_embedding(metric)
    if coords is None:
        return transport(mu, nu, metric)
    order = np.argsort(coords, kind="stable")
    gaps = np.diff(coords[order])
    cum = np.cumsum(mu[order] - nu[order])[:-1]
    return float(np.abs(cum) @ gaps)


def reference_game_approx_params(g, g_hat, ipm_kind, metric,
                                 transport=reference_transport_lp):
    """(epsilon, delta) by the per-row loop ``game_approx_params`` was first
    written with, each off-line W1 by ``transport``."""
    epsilon = float(np.max(np.abs(g.rewards - g_hat.rewards)))
    delta = 0.0
    for s in range(g.num_states):
        for j in range(g.num_joint_actions):
            delta = max(delta, _reference_ipm(g.transitions[s, j],
                                              g_hat.transitions[s, j],
                                              ipm_kind, metric, transport))
    return epsilon, delta


def reference_game_lipschitz_constants(game, metric,
                                       transport=reference_transport_lp):
    """(L_r, L_P) by the loop over state pairs and joint actions
    ``game_lipschitz_constants`` was first written with, each off-line W1
    by ``transport``."""
    l_r = 0.0
    l_p = 0.0
    for s1 in range(game.num_states):
        for s2 in range(s1 + 1, game.num_states):
            d = metric[s1, s2]
            for j in range(game.num_joint_actions):
                gap = float(np.max(np.abs(game.rewards[:, s1, j]
                                          - game.rewards[:, s2, j])))
                l_r = max(l_r, gap / d)
                w = _reference_ipm(game.transitions[s1, j],
                                   game.transitions[s2, j], WASSERSTEIN,
                                   metric, transport)
                l_p = max(l_p, w / d)
    return l_r, l_p


# The three row checks as they stood before one kernel replaced them. Each
# rejects a negative entry its own way: the game and strategy checks any
# entry below 0, the metrics check only entries below -1e-9.


def reference_stochastic_violations(transitions, row_name) -> list[str]:
    """The game check's loop over transition rows, as first written."""
    out = []
    for s in range(transitions.shape[0]):
        for a in range(transitions.shape[1]):
            row = transitions[s, a]
            if not np.all(np.isfinite(row)):
                out.append(f"transition row {row_name(s, a)} has non-finite entries")
                continue
            if np.any(row < 0):
                out.append(f"transition row {row_name(s, a)} has negative entries")
            total = float(row.sum())
            if abs(total - 1.0) > 1e-9:
                out.append(
                    f"transition row {row_name(s, a)} sums to {total!r}, "
                    f"not 1 within {1e-9}"
                )
    return out


def reference_strategy_rows(probs) -> None:
    """``MarkovStrategy``'s row checks, as first written; raises
    ``ValueError``."""
    if not np.all(np.isfinite(probs)):
        s, a = np.argwhere(~np.isfinite(probs))[0]
        raise ValueError(f"non-finite probability at state {s}, action {a}")
    if np.any(probs < 0):
        s, a = np.argwhere(probs < 0)[0]
        raise ValueError(f"negative probability at state {s}, action {a}")
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(
            f"strategy row for state {bad[0]} sums to "
            f"{float(sums[bad[0]])!r}, "
            f"not 1 within {1e-9}"
        )


def reference_check_distribution(name: str, p: np.ndarray) -> np.ndarray:
    """``metrics._check_distribution``, as first written."""
    ok = np.all(p >= -1e-9, axis=-1) & (np.abs(p.sum(-1) - 1.0) <= 1e-9)
    if not np.all(ok):
        where = f" at row {np.argwhere(~ok)[0].tolist()}" if p.ndim > 1 else ""
        raise ValueError(f"{name} is not a probability distribution{where}")
    return np.clip(p, 0.0, None)


# The two evaluation computations as they stood in their five copies before
# ``mdp._action_values`` and ``mdp._profile_chain`` replaced them: the
# solver's two-player copies, and the MDP layer's one-player copies.


def reference_stage_payoffs(game: MarkovGame, values, states=slice(None)
                            ) -> np.ndarray:
    """``solver._stage_payoffs``, as first written."""
    gamma = game.discount
    cont = gamma * game.transitions[states]
    payoffs = np.stack([(1.0 - gamma) * game.rewards[i, states]
                        + np.vecdot(cont, values[i]) for i in range(2)])
    return payoffs.reshape(payoffs.shape[:-1] + game.action_counts)


def reference_profile_values(game: MarkovGame, strategies) -> np.ndarray:
    """``solver._profile_values``, as first written for two players and
    widened to N: one solve of the profile's chain, shape (N, S)."""
    joint = strategies[0]
    for probs in strategies[1:]:
        joint = (joint[:, :, None] * probs[:, None, :]).reshape(
            game.num_states, -1)
    p_pi = np.einsum("sj,sjt->st", joint, game.transitions)
    r_pi = np.einsum("sj,isj->si", joint, game.rewards)
    gamma = game.discount
    return np.linalg.solve(np.eye(game.num_states) - gamma * p_pi,
                           (1.0 - gamma) * r_pi).T


def reference_action_values(mdp: MarkovGame, values: np.ndarray) -> np.ndarray:
    """``mdp._action_values``, as first written: q[s, a] of an MDP."""
    gamma = mdp.discount
    return (1.0 - gamma) * mdp.rewards[0] + gamma * mdp.transitions @ values


def reference_strategy_transitions(mdp: MarkovGame,
                                   strategy: MarkovStrategy) -> np.ndarray:
    """``mdp.strategy_transitions``, as first written: P_pi[s, s']."""
    _check_dims(mdp, strategy)
    return np.einsum("sa,sat->st", strategy.probabilities, mdp.transitions)


def reference_strategy_rewards(mdp: MarkovGame,
                               strategy: MarkovStrategy) -> np.ndarray:
    """``mdp.strategy_rewards``, as first written: r_pi[s]."""
    _check_dims(mdp, strategy)
    return (strategy.probabilities * mdp.rewards[0]).sum(axis=1)


# The certificate path as it stood before ``games._induced_model`` and
# ``mdp._best_response``: one induced MDP per player, accumulated one joint
# action at a time, then evaluated and solved on its own.


def reference_induced_mdp(game: MarkovGame, profile: StrategyProfile,
                          player: int) -> MarkovGame:
    """``games.induced_mdp``, one joint action per step."""
    check_profile(game, profile)
    if not 0 <= player < game.num_players:
        raise ValueError(f"player {player} out of range [0, {game.num_players})")
    s_count = game.num_states
    a_count = game.action_counts[player]
    trans = np.zeros((s_count, a_count, s_count))
    rew = np.zeros((s_count, a_count))
    for j, joint in enumerate(game.joint_actions()):
        weight = np.ones(s_count)
        for q, act in enumerate(joint):
            if q != player:
                weight = weight * profile.strategies[q].probabilities[:, act]
        own = joint[player]
        trans[:, own, :] += weight[:, None] * game.transitions[:, j, :]
        rew[:, own] += weight * game.rewards[player, :, j]
    return MarkovGame(game.states, (game.action_sets[player],), trans,
                      rew[None], game.discount, game.metric)


def _reference_evaluate_policy(mdp: MarkovGame,
                               strategy: MarkovStrategy) -> ValueFunction:
    """``mdp.evaluate_policy``, one player's chain solved alone."""
    _check_dims(mdp, strategy)
    p_pi, r_pi = _profile_chain(mdp.transitions, mdp.rewards,
                                [strategy.probabilities])
    gamma = mdp.discount
    values = np.linalg.solve(np.eye(mdp.num_states) - gamma * p_pi,
                             (1.0 - gamma) * r_pi)
    return ValueFunction(_require_finite("policy value", values[:, 0]))


def reference_solve_optimal(mdp: MarkovGame
                            ) -> tuple[ValueFunction, MarkovStrategy]:
    """``mdp.solve_optimal``, forming gamma P and (1 - gamma) r each step."""
    _check_dims(mdp)
    rewards, gamma = mdp.rewards[0], mdp.discount
    states = np.arange(mdp.num_states)
    policy = np.argmax(rewards, axis=1)
    while True:
        values = np.linalg.solve(
            np.eye(mdp.num_states) - gamma * mdp.transitions[states, policy],
            (1.0 - gamma) * rewards[states, policy])
        q = _require_finite("action value",
                            _action_values(mdp, [values])[0])
        margin = 1e-13 * max(1.0, np.abs(q).max())
        improve = q.max(axis=1) > q[states, policy] + margin
        if not improve.any():
            break
        policy = np.where(improve, np.argmax(q, axis=1), policy)
    greedy = np.eye(mdp.action_counts[0])[np.argmax(q, axis=1)]
    return ValueFunction(values), MarkovStrategy(greedy)


def reference_certify_profile(game: MarkovGame, profile: StrategyProfile
                              ) -> tuple[list, list]:
    """``equilibrium.certify_profile`` one player at a time, each achieved
    value from that player's own induced chain: (achieved values,
    best-response values) as arrays."""
    values = []
    best_values = []
    for player in range(game.num_players):
        mdp = reference_induced_mdp(game, profile, player)
        values.append(_reference_evaluate_policy(
            mdp, profile.strategies[player]).values)
        best_values.append(reference_solve_optimal(mdp)[0].values)
    return values, best_values


# The document readers as first written: every number through ``_number``,
# one entry at a time. Each hands its fields to a constructor that a test
# may replace, to see the arrays a model check would reject.


def reference_parse_game(text: str, build=MarkovGame):
    """``parse_game`` as first written, building the game by ``build``."""
    doc = _load_object(text)
    players = _require(doc, "players", int, "an integer")
    if players < 1:
        raise GameFormatError("field 'players' must be a positive integer")
    states = _require(doc, "states", list, "an array")
    if not all(isinstance(s, str) for s in states):
        raise GameFormatError("field 'states' must be a string array")
    actions = _require(doc, "actions", list, "an array")
    if len(actions) != players:
        raise GameFormatError(
            f"field 'actions' has {len(actions)} entries for {players} players"
        )
    for i, acts in enumerate(actions):
        if (not isinstance(acts, list)
                or not all(isinstance(a, str) for a in acts)):
            raise GameFormatError(
                f"actions of player {i + 1} must be a string array")
    try:
        _check_names(states, actions)
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc
    gamma = _number(_require(doc, "gamma", (int, float), "a number"),
                    "field 'gamma'")
    trans_doc = _require(doc, "transitions", dict, "an object")
    rew_doc = _require(doc, "rewards", list, "an array")
    if len(rew_doc) != players:
        raise GameFormatError(
            f"field 'rewards' has {len(rew_doc)} entries for {players} players"
        )
    s_count = len(states)
    keys = _document_keys(states, actions)
    trans = []
    for key, row in zip(keys, _keyed_values(trans_doc, keys, "transitions")):
        if not isinstance(row, list) or len(row) != s_count:
            raise GameFormatError(
                f"transition row '{key}' must be an array of {s_count} numbers"
            )
        where = f"transitions['{key}']"
        trans.append([_number(x, where) for x in row])
    rew = [[_number(x, f"rewards[{i + 1}]['{key}']")
            for key, x in zip(keys, _keyed_values(
                entries, keys, f"rewards of player {i + 1}"))]
           for i, entries in enumerate(rew_doc)]
    metric = None
    if "metric" in doc:
        metric_doc = doc["metric"]
        if (not isinstance(metric_doc, list) or len(metric_doc) != s_count
                or any(not isinstance(r, list) or len(r) != s_count
                       for r in metric_doc)):
            raise GameFormatError(
                f"field 'metric' must be a {s_count}x{s_count} array"
            )
        metric = [[_number(x, f"metric entry ({s}, {t})")
                   for t, x in enumerate(row)]
                  for s, row in enumerate(metric_doc)]
    return build(states=states, action_sets=[tuple(a) for a in actions],
                 transitions=np.reshape(trans, (s_count, -1, s_count)),
                 rewards=np.reshape(rew, (players, s_count, -1)),
                 discount=gamma, metric=metric)


def reference_parse_profile(text: str, build=MarkovStrategy,
                            profile=StrategyProfile):
    """``parse_profile`` as first written, building strategies by ``build``
    and the profile by ``profile``."""
    doc = _load_object(text)
    strategies = _require(doc, "strategies", list, "an array")
    if ("players" in doc
            and _number(doc["players"], "field 'players'") != len(strategies)):
        raise GameFormatError(
            f"field 'players' is {doc['players']} but 'strategies' has "
            f"{len(strategies)} entries"
        )
    if not strategies:
        raise GameFormatError("field 'strategies' must be non-empty")
    parsed = []
    for i, rows in enumerate(strategies):
        if (not isinstance(rows, list) or not rows
                or not all(isinstance(row, list) for row in rows)):
            raise GameFormatError(
                f"strategy of player {i + 1} must be a non-empty array of rows"
            )
        probs = [[_number(p, f"probability of player {i + 1} at state {s}")
                  for p in row] for s, row in enumerate(rows)]
        try:
            parsed.append(build(probs))
        except ValueError as exc:
            raise GameFormatError(f"strategy of player {i + 1}: {exc}") from exc
    return profile(tuple(parsed))

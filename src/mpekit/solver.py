"""Two-player equilibrium solver with a-posteriori certification.

Best-response dynamics in general-sum games are not a contraction, so no
iterative scheme is guaranteed to converge. The contract here is therefore
the certificate, not the iteration: the solver runs one scheme, certifies
the profile it lands on against the input game, and falls back to a second
scheme when the certificate fails. Non-convergence is reported, with the
best certified profile still returned so the caller can decide.

The first scheme is game policy iteration (Pollatschek and Avi-Itzhak,
*Management Science* 15(7), 1969): evaluate the current profile exactly
with one linear solve, then re-solve every state's one-shot game whose
payoffs fold in those values. It usually settles in a few dozen steps, but
in general-sum games it can cycle. The fallback is equilibrium value
iteration, which re-solves the one-shot games at its own running values
until they settle, with seeded restarts.

Each step builds the stage games of every state in one vectorized pass.
They are solved exactly by support enumeration, with deterministic selection
(smallest support first, then lexicographic), which keeps the iteration and
the experiments reproducible bit for bit. The pure profiles, first in that
order and the usual outcome, are checked all at once from one array of
deviation gains; only a stage game without a pure equilibrium pays for the
per-support linear solves. Deviation gains and residuals are judged
against 1e-9 times the largest payoff magnitude (at least 1), so stage
games with large payoffs keep their equilibria. The stage payoffs and the
exact evaluations come from the two kernels :mod:`mpekit.mdp` shares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .equilibrium import CertificateAlpha, certify_profile
from .games import (MarkovGame, MarkovStrategy, StrategyProfile,
                    _check_count, _finite_values, check_discount)
from .mdp import _action_values, _policy_values, _profile_chain

_NASH_TOL = 1e-9
#: Value-iteration sweeps from zero values before policy iteration starts.
_WARM_SWEEPS = 3
#: Exact profile evaluations allowed to policy iteration.
_MAX_EVALUATIONS = 60

#: A certified candidate: (gap, profile, certificate).
_Certified = tuple[float, StrategyProfile, CertificateAlpha]


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A solved profile plus the evidence for it.

    ``certificate`` is always computed against the input game, and the
    profile's per-player values are ``certificate.per_player_value``;
    ``converged`` means the certified gap met the requested tolerance.
    ``iterations`` counts value-iteration sweeps plus exact policy
    evaluations.
    """

    profile: StrategyProfile
    certificate: CertificateAlpha
    iterations: int
    converged: bool


def _stage_payoffs(game: MarkovGame, values, states=slice(None)
                   ) -> np.ndarray:
    """Each player's one-shot payoffs at ``states``: shape (N, ..., A1, A2)."""
    q = _action_values(game, values, states)
    return q.reshape(q.shape[:-1] + game.action_counts)


def stage_game(game: MarkovGame, values, state: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """One-shot payoff matrices at a state, given continuation values.

    Entry (a1, a2) for player i is the normalized stage reward plus the
    discounted expected continuation value.
    """
    if game.num_players != 2:
        raise ValueError("stage games are built for two-player games only")
    if not 0 <= state < game.num_states:
        raise ValueError(f"state {state} out of range [0, {game.num_states})")
    if len(values) != 2:
        raise ValueError("need one value vector per player")
    vals = [_finite_values(v, f"value vector of player index {i}",
                           game.num_states)
            for i, v in enumerate(values)]
    payoff_a, payoff_b = _stage_payoffs(game, vals, state)
    return payoff_a, payoff_b


def _equalizer(block: np.ndarray, tol: float) -> np.ndarray | None:
    """Mixture over the columns of ``block`` that makes every row pay the
    same, with that payoff appended, or None if no exact solution exists.

    A square system is solved directly (a singular one raises
    ``LinAlgError``); a rectangular one by least squares, accepted only if
    its residual is within tol.
    """
    k, l = block.shape
    system = np.zeros((k + 1, l + 1))
    system[:k, :l] = block
    system[:k, l] = -1.0
    system[k, :l] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    if k == l:
        return np.linalg.solve(system, rhs)
    solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    if np.abs(system @ solution - rhs).max() > tol:
        return None
    return solution


def _support_candidate(payoff_a, payoff_b, rows, cols, tol):
    """Mixed pair supported on (rows, cols), or None if the equalizing
    system has no solution within tol or a support probability below
    -1e-9."""
    rows, cols = list(rows), list(cols)
    # Column player's mixture equalizes the row player's supported payoffs,
    # and the row player's mixture the column player's.
    block_a = payoff_a[rows][:, cols]
    block_b = payoff_b[rows][:, cols].T
    try:
        # On a rectangular support the taller block is overdetermined and
        # usually fails its residual, so it goes first and spares the other
        # least-squares solve. Both must pass, so the order decides nothing.
        if len(rows) < len(cols):
            sol2 = _equalizer(block_b, tol)
            sol1 = None if sol2 is None else _equalizer(block_a, tol)
        else:
            sol1 = _equalizer(block_a, tol)
            sol2 = None if sol1 is None else _equalizer(block_b, tol)
    except np.linalg.LinAlgError:
        return None
    if sol1 is None or sol2 is None:
        return None
    y_support, x_support = sol1[:len(cols)], sol2[:len(rows)]
    if (y_support < -_NASH_TOL).any() or (x_support < -_NASH_TOL).any():
        return None
    x = np.zeros(payoff_a.shape[0])
    y = np.zeros(payoff_a.shape[1])
    x[rows] = np.clip(x_support, 0.0, None)
    y[cols] = np.clip(y_support, 0.0, None)
    x /= x.sum()
    y /= y.sum()
    return x, y


def _deviation_gain(payoff_a, payoff_b, x, y) -> float:
    row_payoffs = payoff_a @ y
    col_payoffs = x @ payoff_b
    return max(float(row_payoffs.max() - x @ row_payoffs),
               float(col_payoffs.max() - col_payoffs @ y))


def _one_hot(size: int, index: int) -> np.ndarray:
    out = np.zeros(size)
    out[index] = 1.0
    return out


def bimatrix_nash(payoff_a, payoff_b
                  ) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """A Nash equilibrium of a finite two-player game, by support enumeration.

    Support pairs are scanned in a fixed order (total support size, then row
    support size, then lexicographic supports) and the first pair passing
    the deviation check within tol = 1e-9 max(1, max|A|, max|B|) is
    returned, which makes the selection deterministic and biased toward pure
    equilibria. The same tol bounds the residual of a rectangular support's
    equalizing system; a support probability below -1e-9 rejects the
    support whatever the scale. The pure pairs come first in that order and
    are scanned at once: the deviation gain of cell (r, c) is
    max(colmax(A)[c] - A[r, c], rowmax(B)[r] - B[r, c]), and the first
    row-major cell within tol is returned, exactly as the pair-by-pair check
    would find it. Only when no cell passes are the mixed supports
    enumerated. Existence is guaranteed for finite games, so the scan cannot
    come up empty; on numerically degenerate input the candidate with the
    smallest deviation gain (the earliest on ties) is returned.

    Returns:
        (x, y, (payoff_x, payoff_y)) with x, y mixed strategies.
    """
    payoff_a = np.asarray(payoff_a, dtype=np.float64)
    payoff_b = np.asarray(payoff_b, dtype=np.float64)
    if payoff_a.shape != payoff_b.shape or payoff_a.ndim != 2:
        raise ValueError("payoff matrices must share a 2-D shape")
    if not (np.isfinite(payoff_a).all() and np.isfinite(payoff_b).all()):
        raise ValueError("payoff entries must be finite")
    m, n = payoff_a.shape
    tol = _NASH_TOL * max(1.0, np.abs(payoff_a).max(),
                          np.abs(payoff_b).max())
    pure_gain = np.maximum(payoff_a.max(axis=0) - payoff_a,
                           payoff_b.max(axis=1, keepdims=True) - payoff_b)
    passing = np.flatnonzero(pure_gain <= tol)
    if passing.size:
        r, c = divmod(int(passing[0]), n)
        x, y = _one_hot(m, r), _one_hot(n, c)
        # The products, not A[r, c] itself: they turn a -0.0 cell into 0.0.
        return x, y, (float(x @ payoff_a @ y), float(x @ payoff_b @ y))
    r, c = divmod(int(pure_gain.argmin()), n)
    fallback = (_one_hot(m, r), _one_hot(n, c))
    fallback_gain = pure_gain[r, c]
    for total in range(3, m + n + 1):
        for k1 in range(max(1, total - n), min(m, total - 1) + 1):
            k2 = total - k1
            for rows in itertools.combinations(range(m), k1):
                for cols in itertools.combinations(range(n), k2):
                    candidate = _support_candidate(payoff_a, payoff_b,
                                                   rows, cols, tol)
                    if candidate is None:
                        continue
                    x, y = candidate
                    gain = _deviation_gain(payoff_a, payoff_b, x, y)
                    if gain <= tol:
                        return x, y, (float(x @ payoff_a @ y),
                                      float(x @ payoff_b @ y))
                    if gain < fallback_gain:
                        fallback, fallback_gain = (x, y), gain
    x, y = fallback
    return x, y, (float(x @ payoff_a @ y), float(x @ payoff_b @ y))


def _iterate(game: MarkovGame, v: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sweep of equilibrium value iteration; returns (v', pi1, pi2)."""
    num_states = game.num_states
    payoffs = _stage_payoffs(game, v)
    new_v = np.zeros_like(v)
    pi1 = np.zeros((num_states, game.action_counts[0]))
    pi2 = np.zeros((num_states, game.action_counts[1]))
    for s in range(num_states):
        x, y, (pay_x, pay_y) = bimatrix_nash(payoffs[0, s], payoffs[1, s])
        pi1[s], pi2[s] = x, y
        new_v[0, s], new_v[1, s] = pay_x, pay_y
    return new_v, pi1, pi2


def _policy_iteration(game: MarkovGame, max_iter: int
                      ) -> tuple[np.ndarray, np.ndarray, int]:
    """Game policy iteration from a few warm sweeps; returns (pi1, pi2,
    sweeps plus evaluations).

    Each step evaluates the profile exactly and re-solves every stage game
    at those values. It stops once two evaluations agree within roundoff,
    not on a repeated profile: mixed stage strategies jitter in the last
    bit, so they need never repeat exactly.
    """
    v = np.zeros((2, game.num_states))
    steps = 0
    for _ in range(min(_WARM_SWEEPS, max_iter)):
        v, pi1, pi2 = _iterate(game, v)
        steps += 1
    previous = None
    for _ in range(_MAX_EVALUATIONS):
        v = _policy_values(game, *_profile_chain(game, (pi1, pi2))).T
        steps += 1
        if previous is not None and (np.abs(v - previous).max()
                                     <= 1e-13 * max(1.0, np.abs(v).max())):
            break
        previous = v
        _, pi1, pi2 = _iterate(game, v)
    return pi1, pi2, steps


def _value_iteration(game: MarkovGame, tol: float, max_iter: int, seed: int,
                     best: _Certified) -> tuple[_Certified, int]:
    """Equilibrium value iteration with seeded restarts; returns the best
    (gap, profile, certificate) seen, ``best`` included, and the sweeps.

    Sweeps run from zero values until successive values differ by at most
    tol (1 - gamma) / (2 gamma), or for max_iter sweeps. Up to ten snapshots
    of the attempt are certified, latest first. If none meets tol, the
    iteration restarts from seeded random values (up to two restarts).
    """
    gamma = game.discount
    threshold = tol * (1.0 - gamma) / (2.0 * gamma)
    rng = np.random.default_rng(seed)
    rmin, rmax = float(game.rewards.min()), float(game.rewards.max())

    snapshot_every = max(1, max_iter // 10)
    iterations = 0

    for attempt in range(3):
        if attempt == 0:
            v = np.zeros((2, game.num_states))
        else:
            v = rng.uniform(rmin, rmax, size=(2, game.num_states))
        candidates = []
        for sweep in range(max_iter):
            new_v, pi1, pi2 = _iterate(game, v)
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
                (MarkovStrategy(cand1), MarkovStrategy(cand2))
            )
            certificate = certify_profile(game, profile)
            gap = certificate.max_alpha
            if gap < best[0]:
                best = (gap, profile, certificate)
            if gap <= tol:
                break
        if best[0] <= tol:
            break
        # Either the sweeps cycled, or they settled on a profile that still
        # fails the certificate; the next attempt restarts from random
        # values inside the reward envelope.
    return best, iterations


def solve_mpe(game: MarkovGame, tol: float = 1e-8, max_iter: int = 10_000,
              seed: int = 0) -> SolveResult:
    """Compute and certify a Markov perfect equilibrium of a two-player game.

    Game policy iteration first: three sweeps of equilibrium value
    iteration from zero values, then up to 60 rounds of evaluating the
    profile exactly and re-solving every stage game at those values, until
    two evaluations agree within roundoff. Its profile is certified against
    the input game. If the gap exceeds tol (policy iteration can cycle in
    general-sum games), equilibrium value iteration runs: sweeps from zero
    values until successive values differ by at most
    tol (1 - gamma) / (2 gamma), then up to two restarts from seeded random
    values when the sweep budget runs out. The best certified profile seen
    anywhere, the policy-iteration one included, is returned; ``converged``
    is true iff its certified gap is at most tol.

    ``max_iter`` bounds the warm sweeps and the sweeps of each
    value-iteration attempt. ``SolveResult.iterations`` counts every sweep
    plus every exact evaluation.

    Raises ``ValueError`` before any sweep for a discount outside (0, 1),
    a tol that is not positive (NaN included) or a max_iter that is not a
    positive integer.
    """
    if game.num_players != 2:
        raise ValueError("two-player solver only")
    check_discount(game.discount)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _check_count(max_iter, "max_iter")

    pi1, pi2, iterations = _policy_iteration(game, max_iter)
    profile = StrategyProfile((MarkovStrategy(pi1), MarkovStrategy(pi2)))
    certificate = certify_profile(game, profile)
    best = (certificate.max_alpha, profile, certificate)
    if best[0] > tol:
        best, sweeps = _value_iteration(game, tol, max_iter, seed, best)
        iterations += sweeps

    gap, profile, certificate = best
    return SolveResult(
        profile=profile,
        certificate=certificate,
        iterations=iterations,
        converged=gap <= tol,
    )

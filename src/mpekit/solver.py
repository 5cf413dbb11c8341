"""Two-player equilibrium solver with a-posteriori certification.

Best-response dynamics in general-sum games are not a contraction, so no
iterative scheme is guaranteed to converge. The contract here is therefore
the certificate, not the iteration: the solver certifies candidate
profiles one at a time against the input game, keeps the best, and stops at
the first that meets the tolerance. Non-convergence is reported, with the
best certified profile still returned so the caller can decide.

The first candidate comes from game policy iteration (Pollatschek and
Avi-Itzhak, *Management Science* 15(7), 1969): evaluate the current profile
exactly with one linear solve, then re-solve every state's one-shot game
whose payoffs fold in those values. It usually settles in a few dozen
steps, but in general-sum games it can cycle. The rest come from
equilibrium value iteration, which re-solves the one-shot games at its own
running values until they settle, with seeded restarts: each attempt gives
its last profile, then its snapshots, latest first.

Each step builds the stage games of every state in one vectorized pass and
solves them by support enumeration with deterministic selection (smallest
support first, then lexicographic), which keeps the iteration and the
experiments reproducible bit for bit. The pure profiles, first in that
order and the usual outcome, are checked for every state at once from one
array of deviation gains. Each state without a pure equilibrium then scans
the mixed support classes of its own stage game, one stage game at a time,
with the supports of a class batched: a rectangular support whose
least-squares residual is certified to exceed the tolerance (a closed-form
or QR lower bound, with a margin for roundoff) is dropped unsolved, and the
square supports are solved as one stack. Each class has one cached,
read-only record: its supports and the cells of the payoff blocks its scan
gathers, built when a scan first reaches it. The survivors are confirmed in
order by the exact support solve and deviation check, so each state gets
the equilibrium the pair-by-pair scan selects (B. von Stengel, "Computing
equilibria for two-person games", *Handbook of Game Theory* 3, 2002,
ch. 45). Deviation gains and residuals are judged against 1e-9 times the
largest payoff magnitude (at least 1), so stage games with large payoffs
keep their equilibria. The stage payoffs and the exact evaluations come
from the two kernels :mod:`mpekit.mdp` shares.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .equilibrium import CertificateAlpha, certify_profile
from .games import (MarkovGame, MarkovStrategy, StrategyProfile,
                    _check_count, _finite_values)
from .mdp import _action_values, _profile_values

_NASH_TOL = 1e-9
#: Relative margin by which a rectangular support's residual bound must
#: exceed tol before the support is dropped unsolved (see ``_may_pass``).
_DROP_MARGIN = 1e-2
#: Most supports one stacked step of the mixed-support scan holds: it
#: bounds the temporary arrays of large games and changes no result.
_STACK_LIMIT = 1 << 14
#: Value-iteration sweeps from zero values before policy iteration starts.
_WARM_SWEEPS = 3
#: Exact profile evaluations allowed to policy iteration.
_MAX_EVALUATIONS = 60

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
    _check_count(state, "state", minimum=0)
    if state >= game.num_states:
        raise ValueError(f"state {state} out of range [0, {game.num_states})")
    if len(values) != 2:
        raise ValueError("need one value vector per player")
    vals = [_finite_values(v, f"value vector of player index {i}",
                           game.num_states)
            for i, v in enumerate(values)]
    payoff_a, payoff_b = _stage_payoffs(game, vals, state)
    return payoff_a, payoff_b


def _equalizer(block: np.ndarray, tol: float) -> np.ndarray | None:
    """Mixture over the columns of a rectangular ``block`` that makes every
    row pay the same, with that payoff appended, or None if the
    least-squares solution's residual exceeds tol."""
    k = len(block)
    system = _equalizing_systems(block)
    rhs = _identity(k + 1)[k]
    solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    if np.abs(system @ solution - rhs).max() > tol:
        return None
    return solution


def _equalizing_systems(blocks: np.ndarray) -> np.ndarray:
    """[[block, -1], [1, 0]] for every (k, l) block of a stack: the rows
    equalize the payoffs at the mixture's value, the last row sums it to
    1."""
    k, l = blocks.shape[-2:]
    systems = np.zeros(blocks.shape[:-2] + (k + 1, l + 1))
    systems[..., :k, :l] = blocks
    systems[..., :k, l] = -1.0
    systems[..., k, :l] = 1.0
    return systems


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
    return _support_pair(x_support, y_support, rows, cols, payoff_a.shape)


def _support_pair(x_support, y_support, rows, cols, shape):
    """The mixed pair (x, y) of an m x n game from its support mixtures,
    which have no probability below -1e-9, or None if one does not sum to
    a positive finite number."""
    x = np.zeros(shape[0])
    y = np.zeros(shape[1])
    # Roundoff below zero becomes 0.0 (np.clip's bits, without its wrapper).
    x[rows] = np.maximum(x_support, 0.0)
    y[cols] = np.maximum(y_support, 0.0)
    x_sum, y_sum = x.sum(), y.sum()
    # A zero sum (a least-squares mixture that comes out all zero at huge
    # payoffs) leaves NaN entries, whose deviation gain is NaN, so such a
    # pair is never returned nor kept as the fallback; an infinite one
    # (an overflowed solution) leaves no mixed strategy either.
    if not (0.0 < x_sum < np.inf and 0.0 < y_sum < np.inf):
        return None
    x /= x_sum
    y /= y_sum
    return x, y


def _deviation_gain(payoff_a, payoff_b, x, y) -> float:
    row_payoffs = payoff_a @ y
    col_payoffs = x @ payoff_b
    return max(float(row_payoffs.max() - x @ row_payoffs),
               float(col_payoffs.max() - col_payoffs @ y))


@functools.cache
def _identity(size: int) -> np.ndarray:
    """The identity matrix of a size, cached and read-only."""
    eye = np.eye(size)
    eye.setflags(write=False)
    return eye


def _combinations(size: int, k: int) -> np.ndarray:
    """The k-subsets of range(size) in lexicographic order, shape (C, k)."""
    return np.array(list(itertools.combinations(range(size), k)),
                    dtype=np.intp).reshape(-1, k)


@functools.cache
def _support_class(m: int, n: int, k1: int, k2: int) -> tuple:
    """(rows, cols, cells) for one class of an m x n game: the index arrays
    rows (N, k1) and cols (N, k2), one support per row in scan order
    (lexicographic, rows outer), and the cells of the payoff blocks the
    class's scan gathers from the flattened payoffs (2, m, n). A square
    class has both equalized blocks, A[R, C] and B[R, C].T, as
    (2, N, k, k); a one-sided class its taller line, B[r, C] (the pure row
    must equalize it) or A[R, c], as (N, k); any other class None. Built
    in place when a scan first reaches the class; cached, read-only."""
    row_sets, col_sets = _combinations(m, k1), _combinations(n, k2)
    rows = np.repeat(row_sets, len(col_sets), axis=0)
    cols = np.tile(col_sets, (len(row_sets), 1))
    cells = None
    if k1 == k2:
        cells = np.empty((2, len(rows), k1, k1), dtype=np.intp)
        np.add(rows[:, :, None] * n, cols[:, None, :], out=cells[0])
        np.add(m * n + rows[:, None, :] * n, cols[:, :, None], out=cells[1])
    elif min(k1, k2) == 1:
        cells = (m * n if k1 == 1 else 0) + rows * n + cols
    for arr in (rows, cols, cells):
        if arr is not None:
            arr.setflags(write=False)
    return rows, cols, cells


def _may_pass(rho2, tol, rows) -> np.ndarray:
    """Mask of the rectangular supports that the exact residual test may
    accept, from the squared least-squares residual rho2 of each one's
    taller block of ``rows`` equalized rows; the rest are certified to
    fail it. Where tol >= 1 every support may pass.

    The exact test rejects a support when the least-squares solution s of
    the taller block's system M s = e (the equalized rows and the
    normalization row, fewer unknowns than rows) leaves a residual above
    tol in max norm. Every s has ||M s - e||_2 >= rho, so its max-norm
    residual is at least rho / sqrt(rows + 1), and a support is dropped
    when that exceeds (1 + 1e-2) tol.

    The 1% margin covers roundoff. The exact code keeps a support only if
    the taller block's mixture z (l entries) passes the residual test, so
    sum(z) is within tol of 1, and the sign test, z >= -1e-9: then
    ||z||_1 <= 1 + tol + 2e-9 l and its value |v| <= max|b| ||z||_1 + tol.
    Evaluating M s in floating point errs by at most
    (l + 2) u (2 max|b| ||z||_1 + tol) per row (u = 2^-53), and rho comes
    from a closed form or a Householder QR, which is columnwise backward
    stable (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, Thm 19.4): exact for columns moved by O(k l u) of their norms.
    As tol = 1e-9 max(1, max|A|, max|B|), both errors stay below 1e-3 tol
    for any shape support enumeration can reach. No support is dropped
    where tol >= 1 (payoffs of 1e9 and more): s = 0 gives rho <= 1. Only
    there can payoffs pass 1e9, so the callers clamp them to +-1e9 and
    nothing overflows.
    """
    if tol >= 1.0:
        return np.ones(rho2.shape, dtype=bool)
    return ~(rho2 > (rows + 1.0) * ((1.0 + _DROP_MARGIN) * tol) ** 2)


def _clamped(payoffs: np.ndarray) -> np.ndarray:
    """Payoffs clamped to +-1e9, which changes none that tol < 1 allows."""
    return np.minimum(np.maximum(payoffs, -1e9), 1e9)


def _one_sided_survivors(flat, tol, cells) -> np.ndarray:
    """``_may_pass`` for one-sided rectangular supports, from the cells
    (N, k) of their taller lines in the flattened payoffs ``flat``.

    The least-squares residual rho of a taller block b has
    rho^2 = S / (1 + S), S = sum((b - mean b)^2): a weight z on the pure
    side is best matched by the value z mean(b), which leaves
    z^2 S + (z - 1)^2, least at z = 1 / (1 + S).
    """
    lines = _clamped(flat[cells])
    k = lines.shape[1]
    spread = lines - lines.sum(axis=1, keepdims=True) / k
    total = (spread * spread).sum(axis=1)
    return _may_pass(total / (1.0 + total), tol, k)


def _rectangular_survivors(payoffs, tol, rows, cols) -> np.ndarray:
    """``_may_pass`` for rectangular supports of one class with both sides
    of size 2 or more: rho is the norm of the trailing entries of Q^T e
    from a complete QR of the taller block's system."""
    index = (rows[:, :, None], cols[:, None, :])
    if rows.shape[1] < cols.shape[1]:
        blocks = np.swapaxes(payoffs[1][index], -1, -2)
    else:
        blocks = payoffs[0][index]
    k, l = blocks.shape[-2:]
    systems = _equalizing_systems(_clamped(blocks))
    trailing = np.linalg.qr(systems, mode="complete")[0][..., k, l + 1:]
    return _may_pass((trailing * trailing).sum(axis=-1), tol, k)


def _square_solutions(flat, cells):
    """Both equalizing solutions of every square support of one class, from
    the cells (2, N, k, k) of its blocks in the flattened payoffs ``flat``:
    (keep (N,), solutions (2, N, k + 1)), where keep marks the supports
    whose two systems are nonsingular with no support probability below
    -1e-9, and solutions[0] solves the row player's block A[R, C].

    The stacked ``np.linalg.solve`` runs the same LAPACK gesv on each
    matrix, copied into the same layout, as a one-system call, so it gives
    the same bits. A stack that holds a singular system raises as a whole;
    it is then solved one system at a time.
    """
    k = cells.shape[-1]
    systems = _equalizing_systems(flat[cells])
    rhs = _identity(k + 1)[k]
    try:
        solutions = np.linalg.solve(systems, rhs)
        singular = False
    except np.linalg.LinAlgError:
        solutions = np.zeros(systems.shape[:-1])
        singular = np.zeros(systems.shape[:-2], dtype=bool)
        for at in np.ndindex(singular.shape):
            try:
                solutions[at] = np.linalg.solve(systems[at], rhs)
            except np.linalg.LinAlgError:
                singular[at] = True
    negative = (solutions[..., :k] < -_NASH_TOL).any(axis=-1)
    return ~(negative | singular).any(axis=0), solutions


def _mixed_supports(payoffs, tol, x, y, gain):
    """Scan the mixed supports of one stage game (2, m, n), one support
    class at a time; returns (x, y).

    x, y and gain are the fallback on entry: the pure pair of smallest
    deviation gain. Rectangular supports certified to fail their residual
    test are dropped unsolved; square ones are solved as one stack and
    kept if both systems are nonsingular with no negative probability. The
    survivors are confirmed in scan order by the exact residual and sign
    tests and the deviation check: the first within tol is returned, and
    else the candidate of smallest gain (the earliest on ties). A dropped
    support is one the exact code rejects, so the result is that of the
    pair-by-pair scan. A class is taken in blocks of at most
    ``_STACK_LIMIT`` supports.
    """
    payoff_a, payoff_b = payoffs
    m, n = payoff_a.shape
    flat = payoffs.reshape(-1)
    for total in range(3, m + n + 1):
        for k1 in range(max(1, total - n), min(m, total - 1) + 1):
            k2 = total - k1
            rows, cols, cells = _support_class(m, n, k1, k2)
            for start in range(0, len(rows), _STACK_LIMIT):
                block = slice(start, start + _STACK_LIMIT)
                solutions = None
                if k1 == k2:
                    keep, solutions = _square_solutions(flat, cells[:, block])
                elif cells is not None:
                    keep = _one_sided_survivors(flat, tol, cells[block])
                else:
                    keep = _rectangular_survivors(payoffs, tol, rows[block],
                                                  cols[block])
                for j in np.flatnonzero(keep):
                    if solutions is None:
                        candidate = _support_candidate(
                            payoff_a, payoff_b, rows[start + j],
                            cols[start + j], tol)
                    else:
                        candidate = _support_pair(
                            solutions[1, j, :k1], solutions[0, j, :k2],
                            rows[start + j], cols[start + j], (m, n))
                    if candidate is None:
                        continue
                    found = _deviation_gain(payoff_a, payoff_b, *candidate)
                    if found <= tol:
                        return candidate
                    if found < gain:
                        (x, y), gain = candidate, found
    return x, y


def _stage_nash(payoffs: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A Nash equilibrium of every stage game of a stack, by support
    enumeration: payoffs (2, S, m, n) -> (x (S, m), y (S, n), values (2, S)).

    Each state's result is the one ``bimatrix_nash`` documents, bit for
    bit. The pure scan runs for all states in one array pass. A one-hot
    pair's payoff is A[r, c] + 0.0, which is what x @ A @ y rounds to:
    every other term is a signed zero, and the sums start from +0.0, which
    turns a -0.0 cell into 0.0. Each state without a passing cell goes on
    to ``_mixed_supports``, one stage game at a time.
    """
    payoff_a, payoff_b = payoffs
    num_states, m, n = payoff_a.shape
    states = np.arange(num_states)
    tol = _NASH_TOL * np.maximum(1.0, np.abs(payoffs).max(axis=(0, 2, 3)))
    pure_gain = np.maximum(
        payoff_a.max(axis=1, keepdims=True) - payoff_a,
        payoff_b.max(axis=2, keepdims=True) - payoff_b,
    ).reshape(num_states, m * n)
    passing = pure_gain <= tol[:, None]
    pure = passing.any(axis=1)
    cell = np.where(pure, passing.argmax(axis=1), pure_gain.argmin(axis=1))
    r, c = np.divmod(cell, n)
    x, y = _identity(m)[r], _identity(n)[c]
    # C order, as the next sweep's matrix products round by the layout.
    values = np.stack([payoff_a[states, r, c], payoff_b[states, r, c]]) + 0.0
    gain = pure_gain[states, cell]
    for s in np.flatnonzero(~pure):
        x[s], y[s] = _mixed_supports(payoffs[:, s], tol[s], x[s], y[s],
                                     gain[s])
        values[0, s] = x[s] @ payoff_a[s] @ y[s]
        values[1, s] = x[s] @ payoff_b[s] @ y[s]
    return x, y, values


def bimatrix_nash(payoff_a, payoff_b
                  ) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """A Nash equilibrium of a finite two-player game, by support enumeration.

    Support pairs are scanned in a fixed order (total support size, then row
    support size, then lexicographic supports) and the first pair passing
    the deviation check within tol = 1e-9 max(1, max|A|, max|B|) is
    returned, which makes the selection deterministic and biased toward pure
    equilibria. The same tol bounds the residual of a rectangular support's
    equalizing system; a support probability below -1e-9 rejects the
    support whatever the scale. Existence is guaranteed for finite games, so
    the scan cannot come up empty; on numerically degenerate input the
    candidate with the smallest deviation gain (the earliest on ties) is
    returned.

    This is the one-state call of the kernel the solver's sweeps use: the
    pure pairs are checked at once from one array of deviation gains,
    max(colmax(A)[c] - A[r, c], rowmax(B)[r] - B[r, c]) for cell (r, c);
    then the mixed supports are scanned with the supports of a class
    batched: rectangular supports that a certified residual bound shows to
    fail are dropped unsolved, and the rest are confirmed in order by the
    exact support solve and deviation check, so the selection is exactly
    the pair-by-pair scan's.

    Returns:
        (x, y, (payoff_x, payoff_y)) with x, y mixed strategies.
    """
    payoff_a = np.asarray(payoff_a, dtype=np.float64)
    payoff_b = np.asarray(payoff_b, dtype=np.float64)
    if payoff_a.shape != payoff_b.shape or payoff_a.ndim != 2:
        raise ValueError("payoff matrices must share a 2-D shape")
    if not payoff_a.size:
        raise ValueError(f"payoff matrices of shape {payoff_a.shape} have "
                         f"no action pair")
    if not (np.isfinite(payoff_a).all() and np.isfinite(payoff_b).all()):
        raise ValueError("payoff entries must be finite")
    x, y, values = _stage_nash(np.stack([payoff_a, payoff_b])[:, None])
    return x[0], y[0], (float(values[0, 0]), float(values[1, 0]))


def _iterate(game: MarkovGame, v: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sweep of equilibrium value iteration; returns (v', pi1, pi2)."""
    pi1, pi2, new_v = _stage_nash(_stage_payoffs(game, v))
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
        v = _profile_values(game, (pi1, pi2))
        steps += 1
        if previous is not None and (np.abs(v - previous).max()
                                     <= 1e-13 * max(1.0, np.abs(v).max())):
            break
        previous = v
        _, pi1, pi2 = _iterate(game, v)
    return pi1, pi2, steps


def _candidates(game: MarkovGame, tol: float, max_iter: int, seed: int):
    """The candidate profiles of ``solve_mpe``, in the order it documents:
    (pi1, pi2, sweeps plus evaluations run so far).

    Lazy: a value-iteration attempt, with its random draw, runs only when
    the caller asks for more than the profiles before it. Snapshots are
    taken every max_iter // 10 sweeps. Repeats are yielded too, and the
    caller skips them; every profile of an attempt carries the step count
    of all the sweeps that ran.
    """
    pi1, pi2, steps = _policy_iteration(game, max_iter)
    yield pi1, pi2, steps
    gamma = game.discount
    threshold = tol * (1.0 - gamma) / (2.0 * gamma)
    rng = np.random.default_rng(seed)
    rmin, rmax = float(game.rewards.min()), float(game.rewards.max())
    snapshot_every = max(1, max_iter // 10)
    for attempt in range(3):
        if attempt == 0:
            v = np.zeros((2, game.num_states))
        else:
            v = rng.uniform(rmin, rmax, size=(2, game.num_states))
        # _stage_nash returns fresh arrays every sweep, so none is copied.
        snapshots = []
        for sweep in range(max_iter):
            new_v, pi1, pi2 = _iterate(game, v)
            change = float(np.max(np.abs(new_v - v)))
            v = new_v
            steps += 1
            if change <= threshold:
                break
            if (sweep + 1) % snapshot_every == 0:
                snapshots.append((pi1, pi2))
        snapshots.append((pi1, pi2))
        for pi1, pi2 in reversed(snapshots):
            yield pi1, pi2, steps


def solve_mpe(game: MarkovGame, tol: float = 1e-8, max_iter: int = 10_000,
              seed: int = 0) -> SolveResult:
    """Compute and certify a Markov perfect equilibrium of a two-player game.

    Candidates are certified against the input game in this order, and the
    search stops at the first whose certified gap is at most tol: game
    policy iteration's profile (three sweeps of equilibrium value iteration
    from zero values, then up to 60 rounds of evaluating the profile exactly
    and re-solving every stage game at those values, until two evaluations
    agree within roundoff); then, for each of up to three attempts of
    equilibrium value iteration, its last profile and its snapshots, latest
    first; no profile is certified twice. An attempt sweeps until successive
    values differ by at most tol (1 - gamma) / (2 gamma), from zero values
    and then from seeded random ones, and runs only when every earlier
    candidate has failed. The candidate of smallest gap, the earliest on
    ties, is returned; ``converged`` is true iff its gap is at most tol.

    ``max_iter`` bounds the warm sweeps and the sweeps of each
    value-iteration attempt. ``SolveResult.iterations`` counts every sweep
    plus every exact evaluation that ran.

    The game was checked when it was built. Raises ``ValueError`` before
    any sweep for a game that is not two-player, a tol that is not positive
    (NaN included) or a max_iter that is not a positive integer.
    """
    if game.num_players != 2:
        raise ValueError("two-player solver only")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _check_count(max_iter, "max_iter")

    kept, certified = None, set()
    for pi1, pi2, iterations in _candidates(game, tol, max_iter, seed):
        # A repeat is never strictly better, nor newly within tol.
        key = pi1.tobytes(), pi2.tobytes()
        if key in certified:
            continue
        certified.add(key)
        profile = StrategyProfile((MarkovStrategy(pi1), MarkovStrategy(pi2)))
        certificate = certify_profile(game, profile)
        gap = certificate.max_alpha
        if kept is None or gap < kept[0]:
            kept = gap, profile, certificate
        if gap <= tol:
            break
    gap, profile, certificate = kept
    return SolveResult(
        profile=profile,
        certificate=certificate,
        iterations=iterations,
        converged=gap <= tol,
    )

"""Probability metrics and the functionals that pair with them.

Two integral probability metrics are implemented: total variation (paired
with the span seminorm) and Wasserstein-1 (paired with the Lipschitz
constant). Total variation is the half-L1 closed form. Wasserstein-1 uses
the cumulative-mass formula whenever the metric embeds isometrically in the
line, and otherwise an exact transport solve by successive shortest paths,
exact up to roundoff. The package runs on numpy alone.

Every W1 value is a maximum over rows: delta between two games, L_P of one
game, and ``wasserstein1``, the maximum over one row. Off the line, rows
whose two distributions are equal leave first, as their W1 is exactly 0.
Then three steps. Bound: closed-form lower and upper bounds on every row
drop the rows whose upper bound is below the largest lower bound by more
than a margin. Bracket: Sinkhorn scalings, batched over the survivors,
tighten both bounds at a few checkpoints and drop rows by the same rule,
and stop once at most one row is left in play. Confirm: the per-row
transport solve on the rows that are left. The maximum equals the largest
per-row value, and 0 when no row is left.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .games import (
    MarkovGame,
    _finite_values,
    _frozen_array,
    _row_problems,
    default_line_metric,
    metric_violations,
)

TOTAL_VARIATION = "total-variation"
WASSERSTEIN = "wasserstein"
IPM_KINDS = (TOTAL_VARIATION, WASSERSTEIN)


def _check_nonnegative(**values: float) -> None:
    for name, value in values.items():
        # NaN fails every comparison, so it is rejected too.
        if not 0 <= value < np.inf:
            raise ValueError(
                f"{name} must be nonnegative and finite, got {value!r}")


@dataclass(frozen=True)
class ApproximationParams:
    """How far apart two games are: reward gap and transition gap.

    epsilon bounds the pointwise reward difference; delta bounds the chosen
    IPM between matching transition rows.
    """

    epsilon: float
    delta: float
    ipm_kind: str

    def __post_init__(self):
        if self.ipm_kind not in IPM_KINDS:
            raise ValueError(f"unknown IPM kind {self.ipm_kind!r}")
        _check_nonnegative(epsilon=self.epsilon, delta=self.delta)


def _check_distribution(name: str, p: np.ndarray) -> np.ndarray:
    """Probability vectors along the last axis, clipped at zero."""
    non_finite, negative, off_sum, _ = _row_problems(p)
    ok = ~(non_finite | negative | off_sum)
    if not np.all(ok):
        where = f" at row {np.argwhere(~ok)[0].tolist()}" if p.ndim > 1 else ""
        raise ValueError(f"{name} is not a probability distribution{where}")
    return np.clip(p, 0.0, None)


def _check_pair(mu, nu) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if mu.ndim != 1 or mu.shape != nu.shape:
        raise ValueError("mu and nu must be 1-D probability vectors of one "
                         f"length, got shapes {mu.shape} and {nu.shape}")
    return _check_distribution("mu", mu), _check_distribution("nu", nu)


def _check_metric(metric: np.ndarray, size: int) -> np.ndarray:
    metric = np.asarray(metric, dtype=np.float64)
    if metric.shape != (size, size):
        raise ValueError(f"metric shape {metric.shape} != expected {(size, size)}")
    problems = metric_violations(metric)
    if problems:
        raise ValueError("metric violates axioms: " + problems[0])
    return metric


def _tv(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Total variation along the last axis of checked distributions."""
    return 0.5 * np.abs(mu - nu).sum(-1)


def tv_distance(mu, nu) -> float:
    """Total variation distance, i.e. half the L1 difference; in [0, 1]."""
    return float(_tv(*_check_pair(mu, nu)))


def _line_embedding(metric: np.ndarray) -> np.ndarray | None:
    """Coordinates x with d(i, j) = |x_i - x_j| within 1e-12 diam(d), or
    None if none exist."""
    n = metric.shape[0]
    tol = 1e-12 * metric.max()
    x = np.zeros(n)
    if n > 1:
        x[1] = metric[0, 1]
        for i in range(2, n):
            # candidate on the positive side unless inconsistent with x[1]
            pos = metric[0, i]
            x[i] = pos if abs(abs(pos - x[1]) - metric[1, i]) <= tol else -pos
    recon = np.abs(x[:, None] - x[None, :])
    if np.max(np.abs(recon - metric)) <= tol:
        return x
    return None


def _transport(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A flow from positive supplies to positive demands (cost is sources x
    sinks) moving all the demand, whose total is at most the supply's, and
    potentials u >= 0 and v that certify it optimal up to roundoff: the
    reduced cost, cost + u[:, None] - v, is >= 0, and 0 where there is flow,
    and u is 0 where supply is left.

    Successive shortest paths with node potentials (R. K. Ahuja, T. L.
    Magnanti and J. B. Orlin, Network Flows, 1993, ch. 9). Each sink first
    takes what its nearest source has left (u starts at 0, v at the column
    minima of cost). Then each step labels distances from the sources with
    supply left, raises each potential by min(distance, D), D the distance
    of the nearest sink with demand left, and pushes along that sink's path
    the least of its supply, its demand and each backward arc's flow,
    emptying that one. How often a backward arc may empty is not bounded
    here, so (sources + sinks)^2 steps end the solve in ``RuntimeError``.
    """
    (k, l), supply, demand = cost.shape, supply.copy(), demand.copy()
    flow, nearest = np.zeros((k, l)), cost.argmin(0)
    u, v = np.zeros(k), cost[nearest, np.arange(l)]
    for j, i in enumerate(nearest):
        flow[i, j] = amount = min(supply[i], demand[j])
        supply[i] -= amount
        demand[j] -= amount
    for _ in range((k + l) ** 2 + 1):
        if not (supply.any() and demand.any()):
            return flow, u, v
        reduced = np.maximum(cost + u[:, None] - v, 0.0)
        backward = np.where(flow > 0.0, 0.0, np.inf)
        du, dv = np.where(supply > 0.0, 0.0, np.inf), np.full(l, np.inf)
        # Labels and predecessors change only on a strict decrease, so the
        # predecessors form a forest rooted at the sources with supply.
        pu, pv = np.zeros(k, int), np.zeros(l, int)
        while True:
            via = du[:, None] + reduced
            low = via.min(0)
            pv, dv = np.where(low < dv, via.argmin(0), pv), np.minimum(low, dv)
            via = dv + backward
            low = via.min(1)
            if not (low < du).any():
                break
            pu, du = np.where(low < du, via.argmin(1), pu), np.minimum(low, du)
        sink = np.where(demand > 0.0, dv, np.inf).argmin()
        u += np.minimum(du, dv[sink])
        v += np.minimum(dv, dv[sink])
        path, i = [(pv[sink], sink)], pv[sink]
        while not supply[i] > 0.0:
            path += [(i, pu[i]), (pv[pu[i]], pu[i])]
            i = pv[pu[i]]
        arcs, sign = tuple(np.transpose(path)), (-1.0) ** np.arange(len(path))
        amount = min(supply[i], demand[sink], *flow[arcs][1::2])
        flow[arcs] += sign * amount
        supply[i] -= amount
        demand[sink] -= amount
    raise RuntimeError(f"transport solve from {k} sources to {l} sinks took "
                       f"over {(k + l) ** 2} augmentations")


def _w1_exact(mu: np.ndarray, nu: np.ndarray, metric: np.ndarray) -> float:
    """W1 of checked distributions by ``_transport`` from the larger part of
    mu - nu to the smaller, on their supports: mass common to mu and nu
    stays in place at cost 0, as d(i, i) = 0 and d obeys the triangle
    inequality. When the parts' masses differ, the smaller mass moves, and
    the value is off by at most that difference times diam(d)."""
    diff = mu - nu if mu.sum() >= nu.sum() else nu - mu
    src, snk = diff > 0.0, diff < 0.0
    if not (src.any() and snk.any()):
        return 0.0
    cost = metric[src][:, snk]
    return float((_transport(cost, diff[src], -diff[snk])[0] * cost).sum())


def _w1_line(mu: np.ndarray, nu: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Wasserstein-1 along the last axis of checked distributions on the
    line metric of coords: the integral of |CDF difference|."""
    order = np.argsort(coords, kind="stable")
    # np.vecdot sums a C-contiguous row exactly as the 1-D dot product does;
    # the fancy-indexed cumulative sum is not C-contiguous.
    cum = np.ascontiguousarray(
        np.abs(np.cumsum((mu - nu)[..., order[:-1]], axis=-1)))
    return np.vecdot(cum, np.diff(coords[order]))


#: The bracket's entropic regularisation, as a share of the metric's
#: diameter, its cap on Sinkhorn scalings, and the counts of scalings after
#: which it bounds the rows still in play. Its bounds hold at every iterate;
#: these decide only how many rows reach the transport solve, and how soon.
_BRACKET_EPSILON = 0.01
_BRACKET_SCALINGS = 100
_BRACKET_CHECKPOINTS = (3, 10, 30, _BRACKET_SCALINGS)

#: Most (row, state, state) entries one bracket block holds: 8 MB a plan.
_BRACKET_ENTRIES = 2 ** 20


def _bracket(diff: np.ndarray, metric: np.ndarray):
    """Lower and upper bounds on W1 of the rows of diff (mu - nu) from
    Sinkhorn scalings; -inf and inf where they are not finite.

    A generator: after each of ``_BRACKET_CHECKPOINTS`` scalings it yields
    the bounds of the rows still in play, and the caller sends back the
    mask of those to keep scaling (None keeps them all).

    With a and b the positive and negative parts of a row, of masses m and
    m', W1 = W1(a, b) = m W1(p, q) for the unit-mass p = a / m, q = b / m'
    when m = m'. Sinkhorn's scalings u, v with the kernel exp(-d / eps)
    give a plan, rounded to an exact coupling of p and q (Altschuler, Weed
    and Rigollet, Alg. 2) whose price bounds W1 from above; and f = eps
    log u on supp p gives phi(x) = max_k (f_k - d(x, k)), 1-Lipschitz, so
    (p - q) . phi bounds it from below. Both hold at every iterate.
    """
    a = np.clip(diff, 0.0, None)
    b = np.clip(-diff, 0.0, None)
    mass = a.sum(-1)
    eps = _BRACKET_EPSILON * metric.max()
    kernel = np.exp(-metric / eps)
    # A zero mass, an overflow or an underflow gives inf or NaN, and such a
    # row keeps its closed-form bounds. Errors are ignored only up to each
    # yield, so the caller's arithmetic is not silenced.
    with np.errstate(all="ignore"):
        p = a / mass[:, None]
        q = b / b.sum(-1, keepdims=True)
    v = np.ones_like(q)
    done = 0
    for checkpoint in _BRACKET_CHECKPOINTS:
        with np.errstate(all="ignore"):
            for _ in range(checkpoint - done):
                u = p / (v @ kernel)        # the kernel is symmetric
                v = q / (u @ kernel)
            plan = u[:, :, None] * kernel * v[:, None, :]
            # fmin leaves the 0 / 0 of a state outside a support at 1.
            plan *= np.fmin(p / plan.sum(-1), 1.0)[:, :, None]
            plan *= np.fmin(q / plan.sum(-2), 1.0)[:, None, :]
            short_p = np.clip(p - plan.sum(-1), 0.0, None)
            short_q = np.clip(q - plan.sum(-2), 0.0, None)
            missing = short_q.sum(-1)
            upper = (plan * metric).sum((-2, -1)) + np.einsum(
                "ri,ij,rj->r", short_p, metric, short_q) / np.where(
                    missing > 0.0, missing, 1.0)
            # Centred so that the winning terms, and so phi, stay within
            # diam(d) of 0, where their roundoff is a few ulps of diam(d).
            f = eps * np.log(u)
            f -= f.max(-1, keepdims=True)
            phi = (f[:, None, :] - metric).max(-1)
            lower = ((p - q) * phi).sum(-1)
            upper, lower = mass * upper, mass * lower
        done = checkpoint
        keep = yield (np.where(np.isfinite(lower), lower, -np.inf),
                      np.where(np.isfinite(upper), upper, np.inf))
        if keep is not None:
            p, q, u, v, mass = p[keep], q[keep], u[keep], v[keep], mass[keep]


def _max_w1(blocks, metric: np.ndarray, coords: np.ndarray | None,
            min_scale: float = 1.0) -> float:
    """max(0, W1(mu_r, nu_r) / scale_r) over the rows r of an iterable of
    (mu, nu, scale) blocks: checked distributions of one shape along the
    last axis, and scales broadcasting against their other axes, none below
    min_scale. coords is ``_line_embedding(metric)``, found by the caller.

    On a line metric every row takes the closed form. Otherwise rows whose
    mu equals nu entry for entry leave first, as their W1 is exactly 0, and
    the result is the largest ``_w1_exact`` value over the other rows (0
    when there are none), found in three steps:

    1. Bound: W1 >= max_k |(mu - nu) . d(., k)|, as each d(., k) is
       1-Lipschitz, and W1 <= min_k sum_i d(i, k) |mu_i - nu_i|, the cost of
       routing all surplus through k. Rows whose upper bound is below the
       largest lower bound by more than the margin are dropped block by
       block, so memory stays at one block plus the survivors (L_P: one
       block up to 27 states with 4 joint actions, 26 pairs at 100).
    2. Bracket: ``_bracket``'s Sinkhorn bounds on the survivors, in blocks
       of at most ``_BRACKET_ENTRIES`` plan entries. At each checkpoint of
       its scalings they tighten the bounds of the block's rows still in
       play to the larger lower and the smaller upper one, rows are dropped
       by the same rule, and only the rest scale on. A block stops once at
       most one of its rows is in play, or at the cap, and a last pass of
       the rule drops rows against lower bounds found in later blocks. A
       row whose bracket is not finite keeps its closed-form bounds.
    3. Confirm: ``_w1_exact`` on each row that is left.

    The margin, 8 (n + 1) 1e-9 diam(d) / min_scale, covers mass mismatch
    and roundoff. A checked row sums to 1 within (n + 1) 1e-9 once its
    negative entries are clipped, so its two parts' masses differ by at most
    2 (n + 1) 1e-9, and ``_w1_exact`` moves the smaller. Against its value a
    lower bound may be high, or the bracket's upper bound low, by that times
    diam(d) at most, so a dropped row is below the largest value by half the
    margin, less roundoff: a few ulps of diam(d) per entry summed.
    """
    if coords is not None:
        return max([0.0] + [float(np.max(_w1_line(mu, nu, coords) / scale))
                            for mu, nu, scale in blocks])
    n = len(metric)
    margin = 8 * (n + 1) * 1e-9 * float(metric.max()) / min_scale
    lower = 0.0             # the largest lower bound so far
    # survivors, one row each: mu, nu, scale, upper bound
    kept = np.empty((0, 2 * n + 2))
    for mu, nu, scale in blocks:
        scale = np.broadcast_to(scale, mu.shape[:-1]).reshape(-1)
        mu, nu = mu.reshape(-1, n), nu.reshape(-1, n)
        moved = np.any(mu != nu, axis=-1)
        mu, nu, scale = mu[moved], nu[moved], scale[moved]
        diff = mu - nu
        lower = max(lower, float(np.max(np.abs(diff @ metric).max(-1) / scale,
                                        initial=0.0)))
        upper = (np.abs(diff) @ metric).min(-1) / scale
        kept = np.concatenate([kept, np.column_stack([mu, nu, scale, upper])])
        kept = kept[kept[:, -1] >= lower - margin]
    if len(kept) > 1 and kept[:, -1].max() > margin:
        size = max(1, _BRACKET_ENTRIES // (n * n))
        for start in range(0, len(kept), size):
            block = kept[start:start + size]    # a view: bounds land in kept
            live, keep = np.flatnonzero(block[:, -1] >= lower - margin), None
            bracket = _bracket(block[live, :n] - block[live, n:2 * n], metric)
            while len(live) > 1:
                try:
                    low, high = bracket.send(keep)
                except StopIteration:
                    break
                scale = block[live, 2 * n]
                lower = max(lower, float(np.max(low / scale)))
                block[live, -1] = np.minimum(block[live, -1], high / scale)
                keep = block[live, -1] >= lower - margin
                live = live[keep]
        kept = kept[kept[:, -1] >= lower - margin]
    return max([0.0] + [float(_w1_exact(row[:n], row[n:2 * n], metric)
                              / row[2 * n]) for row in kept])


def wasserstein1(mu, nu, metric) -> float:
    """Wasserstein-1 distance between two distributions on a finite metric.

    The minimum transport cost over couplings with the given marginals,
    computed as the one-row maximum of W1 that delta and L_P also take.
    When the metric embeds in the line (the default index metric always
    does), the cumulative-mass formula gives the exact answer directly.
    Otherwise equal distributions give exactly 0, and any other pair an
    exact transport solve. It moves the smaller of the masses of mu - nu's
    two parts, which checked distributions let differ by 2 (n + 1) 1e-9,
    and is off by at most their difference times the metric's diameter.
    """
    mu, nu = _check_pair(mu, nu)
    metric = _check_metric(metric, len(mu))
    return _max_w1([(mu, nu, 1.0)], metric, _line_embedding(metric))


def span(f) -> float:
    """Span seminorm max(f) - min(f); zero exactly for constants.

    Any shape is accepted; a NaN or infinite entry raises.
    """
    f = _finite_values(f, "f")
    if f.size == 0:
        raise ValueError("span of an empty vector is undefined")
    return _span(f)


def _span(f: np.ndarray) -> float:
    """Span of a finite, non-empty array."""
    return float(f.max() - f.min())


def lipschitz_constant(f, metric) -> float:
    """Largest difference quotient |f(s) - f(s')| / d(s, s') over pairs.

    f is a finite vector (or :class:`~mpekit.games.ValueFunction`).
    """
    f = _finite_values(f, "f")
    if f.ndim != 1 or f.size < 2:
        raise ValueError("need at least two points for a Lipschitz constant, "
                         f"got f of shape {f.shape}")
    return _lipschitz(f, _check_metric(metric, f.size))


def _lipschitz(f: np.ndarray, metric: np.ndarray) -> float:
    """Largest |f[..., s] - f[..., s']| / d(s, s') over states s < s' and
    the leading axes of a finite f, on a checked metric."""
    s, t = _state_pairs(len(metric))
    return float(np.max(np.abs(f[..., s] - f[..., t]) / metric[s, t],
                        initial=0.0))


@functools.cache
def _state_pairs(size: int) -> np.ndarray:
    """The (2, P) pairs s < t in ``np.triu_indices`` order, read-only."""
    return _frozen_array(np.triu_indices(size, 1), np.intp)


def _shared_shape(g: MarkovGame, g_hat: MarkovGame) -> None:
    if g.states != g_hat.states:
        raise ValueError("games have different state sets")
    if g.action_sets != g_hat.action_sets:
        raise ValueError("games have different action sets")
    if g.discount != g_hat.discount:
        raise ValueError(
            f"games have different discounts: {g.discount} vs {g_hat.discount}"
        )


def comparison_metric(g: MarkovGame, g_hat: MarkovGame) -> np.ndarray:
    """Metric used to compare two games: theirs if present, else index line.

    Raises ``ValueError`` when both games carry metrics and they differ.
    """
    if g.metric is not None and g_hat.metric is not None \
            and not np.array_equal(g.metric, g_hat.metric):
        raise ValueError("games carry different state metrics")
    if g.metric is not None:
        return g.metric
    if g_hat.metric is not None:
        return g_hat.metric
    return default_line_metric(g.num_states)


def game_approx_params(g: MarkovGame, g_hat: MarkovGame,
                       ipm_kind: str) -> ApproximationParams:
    """Largest reward and transition gaps between two same-shape games.

    epsilon is the max absolute reward difference over players, states, and
    joint actions; delta is the max IPM between matching transition rows,
    each clipped at zero. Both games were checked when they were built:
    their rewards are finite, their rows are distributions, and a metric
    either carries obeys the axioms.
    """
    return _approx_params(g, g_hat, ipm_kind)[0]


def _approx_params(g: MarkovGame, g_hat: MarkovGame, ipm_kind: str):
    """``game_approx_params``, clipped ``g_hat`` rows, metric, its coords."""
    if ipm_kind not in IPM_KINDS:
        raise ValueError(f"unknown IPM kind {ipm_kind!r}")
    _shared_shape(g, g_hat)
    rows = (np.clip(g.transitions, 0.0, None),
            np.clip(g_hat.transitions, 0.0, None))
    epsilon = float(np.max(np.abs(g.rewards - g_hat.rewards)))
    metric = (None if ipm_kind == TOTAL_VARIATION
              else comparison_metric(g, g_hat))
    coords = None if metric is None else _line_embedding(metric)
    delta = (max(0.0, float(_tv(*rows).max())) if metric is None
             else _max_w1([(*rows, 1.0)], metric, coords))
    return (ApproximationParams(epsilon, delta, ipm_kind), rows[1], metric,
            coords)


def game_lipschitz_constants(game: MarkovGame) -> tuple[float, float]:
    """Smallest (L_r, L_P) making the game Lipschitz in its state metric.

    L_r bounds reward differences across states (same action, any player)
    relative to the metric; L_P bounds the Wasserstein distance between
    transition rows (clipped at zero) across states. The game must carry a
    metric; the game, its metric included, was checked when it was built.
    For another metric, pass ``dataclasses.replace(game, metric=m)``.
    """
    if game.metric is None:
        raise ValueError("game has no state metric")
    return _lipschitz_constants(game.rewards,
                                np.clip(game.transitions, 0.0, None),
                                game.metric, _line_embedding(game.metric))


def _lipschitz_constants(rewards, rows, metric, coords
                         ) -> tuple[float, float]:
    """(L_r, L_P) from finite rewards, clipped rows, a metric, its coords.
    L_P's blocks: whole state pairs, one or up to a bracket block's rows."""
    s, t = _state_pairs(len(metric))
    size = max(1, _BRACKET_ENTRIES // (len(metric) ** 2 * rows.shape[1]))
    blocks = (slice(k, k + size) for k in range(0, len(s), size))
    l_p = _max_w1(((rows[s[b]], rows[t[b]], metric[s[b], t[b], None])
                   for b in blocks), metric, coords,
                  min_scale=np.min(metric[s, t], initial=np.inf))
    return _lipschitz(np.swapaxes(rewards, 1, 2), metric), l_p

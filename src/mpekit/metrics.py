"""Probability metrics and the functionals that pair with them.

Two integral probability metrics are implemented: total variation (paired
with the span seminorm) and Wasserstein-1 (paired with the Lipschitz
constant). Both are exact: total variation is the half-L1 closed form, and
Wasserstein-1 uses the cumulative-mass formula whenever the metric embeds
isometrically in the line, falling back to an exact transportation LP
otherwise. Instance sizes are tiny, so exactness beats approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .games import (
    MarkovGame,
    _finite_values,
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
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative, got {value!r}")


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


def _checked_rows(game: MarkovGame, name: str) -> np.ndarray:
    """A game's transition rows, clipped at zero, once its rewards and rows
    pass their checks."""
    bad = np.argwhere(~np.isfinite(game.rewards))
    if bad.size:
        raise ValueError(f"{name}: reward {bad[0].tolist()} is not finite")
    return _check_distribution(f"transitions of {name}", game.transitions)


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
    """Coordinates x with d(i, j) = |x_i - x_j|, or None if none exist."""
    n = metric.shape[0]
    x = np.zeros(n)
    if n > 1:
        x[1] = metric[0, 1]
        for i in range(2, n):
            # candidate on the positive side unless inconsistent with x[1]
            pos = metric[0, i]
            x[i] = pos if abs(abs(pos - x[1]) - metric[1, i]) <= 1e-12 else -pos
    recon = np.abs(x[:, None] - x[None, :])
    if np.max(np.abs(recon - metric)) <= 1e-12:
        return x
    return None


def _w1_lp(mu: np.ndarray, nu: np.ndarray, metric: np.ndarray) -> float:
    """Exact transportation LP over couplings with marginals mu, nu."""
    n = len(mu)
    cost = metric.reshape(-1)
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n:(i + 1) * n] = 1.0       # row marginal
        a_eq[n + i, i::n] = 1.0                # column marginal
    result = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([mu, nu]),
                     bounds=(0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"transport LP failed: {result.message}")
    return float(result.fun)


def _w1(mu: np.ndarray, nu: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Wasserstein-1 along the last axis of checked distributions: on a line
    metric the integral of |CDF difference|, else one exact LP per row."""
    mu, nu = np.broadcast_arrays(mu, nu)
    coords = _line_embedding(metric)
    if coords is None:
        out = np.empty(mu.shape[:-1])
        for row in np.ndindex(out.shape):
            out[row] = _w1_lp(mu[row], nu[row], metric)
        return out
    order = np.argsort(coords, kind="stable")
    # np.vecdot sums a C-contiguous row exactly as the 1-D dot product does;
    # the fancy-indexed cumulative sum is not C-contiguous.
    cum = np.ascontiguousarray(
        np.abs(np.cumsum((mu - nu)[..., order[:-1]], axis=-1)))
    return np.vecdot(cum, np.diff(coords[order]))


def wasserstein1(mu, nu, metric) -> float:
    """Wasserstein-1 distance between two distributions on a finite metric.

    The minimum transport cost over couplings with the given marginals.
    When the metric embeds in the line (the default index metric always
    does), the cumulative-mass formula gives the exact answer directly;
    otherwise an exact LP is solved.
    """
    mu, nu = _check_pair(mu, nu)
    return float(_w1(mu, nu, _check_metric(metric, len(mu))))


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
    s, t = np.triu_indices(len(metric), 1)
    return float(np.max(np.abs(f[..., s] - f[..., t]) / metric[s, t],
                        initial=0.0))


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
    joint actions; delta is the max IPM between matching transition rows.
    A non-finite reward or a row that is not a distribution raises.
    """
    return _approx_params(g, g_hat, ipm_kind)[0]


def _approx_params(g: MarkovGame, g_hat: MarkovGame, ipm_kind: str):
    """``game_approx_params``, checked ``g_hat`` rows, metric (None for TV)."""
    if ipm_kind not in IPM_KINDS:
        raise ValueError(f"unknown IPM kind {ipm_kind!r}")
    _shared_shape(g, g_hat)
    rows = _checked_rows(g, "g"), _checked_rows(g_hat, "g_hat")
    epsilon = float(np.max(np.abs(g.rewards - g_hat.rewards)))
    metric = (None if ipm_kind == TOTAL_VARIATION
              else _check_metric(comparison_metric(g, g_hat), g.num_states))
    gaps = _tv(*rows) if metric is None else _w1(*rows, metric)
    delta = max(0.0, float(gaps.max()))
    return ApproximationParams(epsilon, delta, ipm_kind), rows[1], metric


def game_lipschitz_constants(game: MarkovGame,
                             metric: np.ndarray | None = None
                             ) -> tuple[float, float]:
    """Smallest (L_r, L_P) making the game Lipschitz in the state.

    L_r bounds reward differences across states (same action, any player)
    relative to the metric; L_P bounds the Wasserstein distance between
    transition rows across states. The game must carry a metric unless one
    is passed explicitly. A non-finite reward or a row that is not a
    distribution raises.
    """
    if metric is None:
        if game.metric is None:
            raise ValueError("game has no state metric")
        metric = game.metric
    metric = _check_metric(metric, game.num_states)
    rows = _checked_rows(game, "game")
    return _lipschitz_constants(game.rewards, rows, metric)


def _lipschitz_constants(rewards, rows, metric) -> tuple[float, float]:
    """(L_r, L_P) from finite rewards, checked rows and a checked metric."""
    l_p = 0.0
    for s1 in range(len(metric) - 1):
        d = metric[s1, s1 + 1:, None]
        l_p = max(l_p, float(np.max(_w1(rows[s1], rows[s1 + 1:], metric) / d)))
    return _lipschitz(np.swapaxes(rewards, 1, 2), metric), l_p

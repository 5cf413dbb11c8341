"""Generative-model sampling and plug-in equilibrium experiments.

A trial's next-state counts are a pure function of (master seed, trial,
game): each trial derives one counter-based stream from the master seed and
draws the counts of every state-action pair from it in one call, so results
are bit-identical no matter how trials are scheduled or parallelized.

A trial estimates the transition kernel from n samples per pair (rewards
and discount are taken as known), solves the estimated game, and certifies
the solved profile against the TRUE game. The recorded gap pair is the
whole point: it measures how good the plug-in equilibrium really is.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import certify_profile
from .games import MarkovGame, _check_count
from .solver import solve_mpe

#: Largest n numpy's multinomial sampler takes: it reads n as a C long.
_MAX_SAMPLES = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class EmpiricalModel:
    """The next-state sample counts behind a plug-in game.

    Every (state, action) slice of ``counts`` sums to exactly
    ``samples_per_pair``, so the plug-in game's transitions, ``counts /
    samples_per_pair``, are stochastic by construction (exactly so in
    rational arithmetic).
    """

    counts: np.ndarray
    samples_per_pair: int


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    """Outcome of one trial: certified gap pair against the true game."""

    trial_index: int
    alpha_pair: np.ndarray
    solver_converged: bool
    rng_seed: int


@dataclass(frozen=True, eq=False)
class ExperimentSummary:
    """Order statistics over a batch of experiment records."""

    count: int
    convergence_rate: float | None
    alpha_min: np.ndarray | None
    alpha_median: np.ndarray | None
    alpha_max: np.ndarray | None
    alpha_mean: np.ndarray | None


def estimate_model(game: MarkovGame, n: int,
                   rng: np.random.SeedSequence
                   ) -> tuple[MarkovGame, EmpiricalModel]:
    """Estimate the transition kernel from n generative samples per pair.

    Returns the plug-in game (estimated transitions, original rewards and
    discount) together with the raw counts. Each (state, joint action)
    pair's counts are one Multinomial(n, row) draw, equal in law to the
    next-state counts of n simulator calls: the budget is n |S| |A|
    simulator calls in total. All pairs draw from one stream, the root's
    child with spawn key ``(*rng.spawn_key, 0)``, in one call, so the
    counts are a pure function of the root and the game; the root itself
    is not consumed.

    The game was checked when it was built, and the plug-in game is checked
    when it is; a count n that is not a positive integer of at most
    2**63 - 1, or an ``rng`` that is not a ``numpy.random.SeedSequence``,
    raises ``ValueError``.
    """
    _check_samples(n)
    if not isinstance(rng, np.random.SeedSequence):
        raise ValueError("rng must be a numpy.random.SeedSequence, got "
                         f"{type(rng).__name__}")
    # The law of inverse-CDF sampling: increments of the running CDF, made
    # monotone and clipped to [0, 1], with the remainder on the last state.
    # Rows the row rule accepts (entries down to -1e-9, sums within 1e-9 of
    # 1) so give valid multinomial masses.
    cdf = np.clip(np.maximum.accumulate(
        np.cumsum(game.transitions, axis=-1), axis=-1), 0.0, 1.0)
    cdf[..., -1] = 1.0
    masses = np.diff(cdf, axis=-1, prepend=0.0)
    stream = np.random.SeedSequence(entropy=rng.entropy,
                                    spawn_key=(*rng.spawn_key, 0))
    counts = np.random.Generator(np.random.Philox(stream)).multinomial(
        n, masses)
    model = EmpiricalModel(counts=counts, samples_per_pair=n)
    return replace(game, transitions=counts / n), model


def _check_samples(n) -> None:
    """Raise ``ValueError`` unless n is a positive integer that numpy's
    multinomial sampler takes."""
    _check_count(n, "n")
    if int(n) > _MAX_SAMPLES:
        raise ValueError(f"n must be at most {_MAX_SAMPLES} (2**63 - 1), "
                         f"got {n!r}")


def trial_seed_sequence(master_seed: int, trial: int) -> np.random.SeedSequence:
    """The root stream of one trial; pure function of (master seed, trial)."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))


def run_trial(game: MarkovGame, n: int, trial: int,
              master_seed: int) -> ExperimentRecord:
    """One estimate-solve-certify round; independent of every other trial.
    The plug-in game is solved at ``solve_mpe``'s defaults.

    A trial or master seed that is not a nonnegative integer raises
    ``ValueError`` before any work, as a bad n does."""
    _check_count(trial, "trial", minimum=0)
    _check_count(master_seed, "master_seed", minimum=0)
    root = trial_seed_sequence(master_seed, trial)
    derived_seed = int(root.generate_state(1, np.uint64)[0])
    estimated, _ = estimate_model(game, n, root)
    result = solve_mpe(estimated, seed=derived_seed)
    certificate = certify_profile(game, result.profile)
    return ExperimentRecord(
        trial_index=trial,
        alpha_pair=certificate.alpha_clamped(),
        solver_converged=result.converged,
        rng_seed=derived_seed,
    )


def run_experiments(game: MarkovGame, n: int, num_trials: int,
                    master_seed: int) -> list[ExperimentRecord]:
    """Run independently seeded trials; the list is ordered by trial index.

    Trials share nothing but the master seed, so they may be distributed
    across processes without changing any record.

    The game was checked when it was built. A game that is not two-player,
    a bad count and a master seed that is not a nonnegative integer are
    rejected before the first trial, so they raise ``ValueError`` whatever
    ``num_trials`` is, zero included; a bad n with the message
    ``estimate_model`` gives.
    """
    if game.num_players != 2:
        raise ValueError("experiments need a two-player game")
    _check_samples(n)
    _check_count(num_trials, "num_trials", minimum=0)
    _check_count(master_seed, "master_seed", minimum=0)
    return [run_trial(game, n, trial, master_seed)
            for trial in range(num_trials)]


def summarize(records: list[ExperimentRecord]) -> ExperimentSummary:
    """Exact order statistics of the certified gaps, per player."""
    if not records:
        return ExperimentSummary(count=0, convergence_rate=None,
                                 alpha_min=None, alpha_median=None,
                                 alpha_max=None, alpha_mean=None)
    alphas = np.vstack([record.alpha_pair for record in records])
    converged = np.array([record.solver_converged for record in records])
    return ExperimentSummary(
        count=len(records),
        convergence_rate=float(converged.mean()),
        alpha_min=alphas.min(axis=0),
        alpha_median=np.median(alphas, axis=0),
        alpha_max=alphas.max(axis=0),
        alpha_mean=alphas.mean(axis=0),
    )


def _format(x: float) -> str:
    """``%.12g``: every number in ``records.csv`` and on CLI stdout."""
    return f"{x:.12g}"


def records_csv(records: list[ExperimentRecord]) -> str:
    """Scatter data, one row per trial: trial,alpha1,...,converged,seed.
    The header has one column per player of the first record; an empty list
    gets two, as experiments run on two-player games."""
    num_players = len(records[0].alpha_pair) if records else 2
    out = io.StringIO()
    alpha_cols = ",".join(f"alpha{i + 1}" for i in range(num_players))
    out.write(f"trial,{alpha_cols},converged,seed\n")
    for record in records:
        alphas = ",".join(_format(a) for a in record.alpha_pair)
        flag = "true" if record.solver_converged else "false"
        out.write(f"{record.trial_index},{alphas},{flag},{record.rng_seed}\n")
    return out.getvalue()


def summary_csv(summary: ExperimentSummary) -> str:
    """Summary statistics as stat,player,value rows."""
    out = io.StringIO()
    out.write("stat,player,value\n")
    out.write(f"count,,{summary.count}\n")
    if summary.count == 0:
        return out.getvalue()
    out.write(f"convergence_rate,,{_format(summary.convergence_rate)}\n")
    stats = [("min", summary.alpha_min), ("median", summary.alpha_median),
             ("max", summary.alpha_max), ("mean", summary.alpha_mean)]
    for name, vector in stats:
        for player, value in enumerate(vector, start=1):
            out.write(f"{name},{player},{_format(value)}\n")
    return out.getvalue()

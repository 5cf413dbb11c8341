"""The benchmark's workloads: seeded inputs, the timed op, the output check.

A workload builds a fixed list of inputs from the workload seed alone, and
the runner makes repeated passes over it; mpekit only ever sees the
generated inputs. Repeating each input lets the runner take each input's
median time, which damps interference from other tenants of a shared host,
and lets ``Desk`` check that a repeat gives the same bytes.

``op`` is the only code inside the timed region. It calls mpekit through
module attributes, so the tracer's wrappers apply. ``check`` raises
``CheckError`` on a wrong output and otherwise returns whether the op's
certificate met its target (None where the workload has no target).
"""

from __future__ import annotations

import hashlib

import numpy as np

from mpekit import bounds, equilibrium, experiments, games, metrics, solver


class CheckError(Exception):
    """An op returned an output that fails the benchmark's own check."""


def random_game(rng, num_states, action_counts, discount, metric=None):
    """Dirichlet transition rows and uniform [0, 1] rewards."""
    num_joint = int(np.prod(action_counts))
    return games.MarkovGame(
        states=tuple(str(s) for s in range(num_states)),
        action_sets=tuple(tuple(str(a) for a in range(c))
                          for c in action_counts),
        transitions=rng.dirichlet(np.ones(num_states),
                                  size=(num_states, num_joint)),
        rewards=rng.uniform(0.0, 1.0,
                            size=(len(action_counts), num_states, num_joint)),
        discount=discount,
        metric=metric,
    )


def random_profile(rng, game):
    return games.StrategyProfile(tuple(
        games.MarkovStrategy(rng.dirichlet(np.ones(count),
                                           size=game.num_states))
        for count in game.action_counts
    ))


class Desk:
    """The paper's plug-in experiment on the bundled game (criterion 7).

    Every repeat of a trial must give the same ``records_csv`` row, byte for
    byte, whether or not it is traced.
    """

    name = "desk"

    def __init__(self, seed: int, trials: int = 8):
        self.game = games.bundled_game("two_player_original")
        self.n = bounds.sample_size_game(0.1, 0.01, 0.9, 3, [2, 2], 2, 0.9)
        self.seed = seed
        self.inputs = list(range(trials))
        self.rows: dict[int, str] = {}

    def op(self, trial: int):
        return experiments.run_trial(self.game, self.n, trial, self.seed)

    def check(self, trial: int, record) -> bool:
        row = experiments.records_csv([record])
        if row != self.rows.setdefault(trial, row):
            raise CheckError(f"trial {trial}: record differs from its "
                             "first run")
        if not np.all(np.isfinite(record.alpha_pair)):
            raise CheckError(f"trial {trial}: non-finite gap")
        return bool(record.solver_converged and record.alpha_pair.max() <= 0.1)

    def report(self) -> dict:
        """sha256 of the records CSV of one pass (all passes agree)."""
        header = experiments.records_csv([])
        body = "".join(self.rows[t][len(header):] for t in sorted(self.rows))
        return {"records_sha256":
                hashlib.sha256((header + body).encode()).hexdigest()}


class SolveMixed:
    """solve_mpe on random general-sum games: mixed-support enumeration."""

    name = "solve_mixed"

    def __init__(self, seed: int, games_per_pass: int = 4, states: int = 6,
                 actions: int = 4):
        rng = np.random.default_rng([seed])
        self.inputs = [random_game(rng, states, (actions, actions), 0.9)
                       for _ in range(games_per_pass)]

    def op(self, game):
        return solver.solve_mpe(game, tol=1e-8, max_iter=150)

    def check(self, game, result) -> bool:
        again = equilibrium.certify_profile(game, result.profile)
        theirs = result.certificate
        same = np.array_equal(again.per_player_alpha,
                              theirs.per_player_alpha) and all(
            np.array_equal(a.values, b.values)
            for a, b in zip(again.per_player_best_response_value,
                            theirs.per_player_best_response_value))
        if not same:
            raise CheckError("re-certifying the returned profile gives a "
                             "different certificate")
        return bool(result.converged)

    def report(self) -> dict:
        return {}


def grid_metric(rows: int, cols: int) -> np.ndarray:
    """Manhattan distance on a rows x cols grid: not embeddable in a line."""
    cells = np.array([(r, c) for r in range(rows) for c in range(cols)])
    return np.abs(cells[:, None, :] - cells[None, :, :]).sum(-1).astype(float)


def line_metric(rng, size: int) -> np.ndarray:
    """Distances between integer points on a line (exact in floating point)."""
    coords = np.concatenate([[0], np.cumsum(rng.integers(1, 4, size - 1))])
    return np.abs(coords[:, None] - coords[None, :]).astype(float)


class BoundW1:
    """The ``mpekit bound`` path: parse a game pair, build both ladders.

    Two pairs on a line metric (closed-form W1) and one on a grid metric (W1
    by LP), so the median op is a line pair and the LP path still weighs in
    on ops_per_s.
    """

    name = "bound_w1"

    def __init__(self, seed: int, grid: tuple[int, int] = (3, 3)):
        rng = np.random.default_rng([seed])
        states = grid[0] * grid[1]
        self.inputs = []
        for kind, metric in (("line", line_metric(rng, states)),
                             ("line", line_metric(rng, states)),
                             ("grid", grid_metric(*grid))):
            game = random_game(rng, states, (2, 2), 0.95, metric)
            noise = random_game(rng, states, (2, 2), 0.95)
            perturbed = games.MarkovGame(
                states=game.states, action_sets=game.action_sets,
                transitions=0.95 * game.transitions + 0.05 * noise.transitions,
                rewards=game.rewards + 0.02 * (noise.rewards - 0.5),
                discount=game.discount, metric=metric)
            self.inputs.append((kind, games.serialize_game(game),
                                games.serialize_game(perturbed),
                                random_profile(rng, game)))

    def op(self, item):
        _, doc, doc_hat, profile = item
        game = games.parse_game(doc)
        game_hat = games.parse_game(doc_hat)
        return tuple(bounds.robustness_report(game, game_hat, ipm,
                                              profile=profile)
                     for ipm in (metrics.TOTAL_VARIATION, metrics.WASSERSTEIN))

    def check(self, item, reports) -> None:
        kind = item[0]
        for report in reports:
            ladder = [report.alpha_instance, report.alpha_ipm]
            if report.alpha_corollary is not None:
                ladder.append(report.alpha_corollary)
            entries = np.concatenate([*ladder, report.per_player_delta_term,
                                      [report.epsilon, report.delta]])
            if not np.all(np.isfinite(entries)):
                raise CheckError(f"{kind} {report.ipm_kind}: non-finite entry")
            for lower, upper in zip(ladder, ladder[1:]):
                if np.any(lower > upper + 1e-12):
                    raise CheckError(f"{kind} {report.ipm_kind}: bound "
                                     "ladder out of order")
        return None

    def report(self) -> dict:
        return {}


def best_response_values(transitions, rewards, gamma) -> np.ndarray:
    """Optimal values of a normalized-reward MDP by policy iteration.

    Howard's method: evaluate exactly, switch only on a strict improvement,
    so it stops after finitely many steps with exact values.
    """
    states = np.arange(rewards.shape[0])
    policy = rewards.argmax(axis=1)
    while True:
        values = np.linalg.solve(
            np.eye(len(states)) - gamma * transitions[states, policy],
            (1.0 - gamma) * rewards[states, policy])
        q = (1.0 - gamma) * rewards + gamma * transitions @ values
        better = q.max(axis=1) > q[states, policy] + 1e-13
        if not better.any():
            return values
        policy = np.where(better, q.argmax(axis=1), policy)


class CertifyFar:
    """certify_profile on large far-sighted games: value-iteration best
    responses, whose sweep count grows with 1 / (1 - gamma).

    The sweep count also depends on the game, by some 10%, hence ten games.
    """

    name = "certify_far"

    def __init__(self, seed: int, games_per_pass: int = 10, states: int = 100,
                 actions: int = 3):
        rng = np.random.default_rng([seed])
        self.inputs = []
        for _ in range(games_per_pass):
            game = random_game(rng, states, (actions, actions), 0.99)
            self.inputs.append((game, random_profile(rng, game)))

    def op(self, item):
        game, profile = item
        return equilibrium.certify_profile(game, profile)

    def check(self, item, certificate) -> None:
        game, profile = item
        s = game.num_states
        a1, a2 = game.action_counts
        p = game.transitions.reshape(s, a1, a2, s)
        r = game.rewards.reshape(2, s, a1, a2)
        x, y = (strat.probabilities for strat in profile.strategies)
        induced = (
            (np.einsum("sabt,sb->sat", p, y),
             np.einsum("sab,sb->sa", r[0], y)),
            (np.einsum("sabt,sa->sbt", p, x),
             np.einsum("sab,sa->sb", r[1], x)),
        )
        for player, (trans, rew) in enumerate(induced):
            oracle = best_response_values(trans, rew, game.discount)
            got = certificate.per_player_best_response_value[player].values
            err = float(np.max(np.abs(got - oracle)))
            if err > 1e-8:
                raise CheckError(f"player {player} best-response values off "
                                 f"the policy-iteration oracle by {err:.3g}")
        return None

    def report(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Desk, SolveMixed, BoundW1, CertifyFar)}

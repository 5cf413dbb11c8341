"""Spans around calls into mpekit's public functions, recorded from outside.

The tracer replaces each traced function on every module attribute that
holds it (``mpekit.solver.bimatrix_nash``, ``mpekit.metrics.metric_violations``
and so on), so the wrapper sits on the name the caller looks up. Spans are
recorded only while an op is running, so the benchmark's own input building
and output checks never appear in them. Work the wrappers do for the
benchmark (classifying stage games, counting computed work) runs inside a
``bench.bookkeeping`` span, which keeps it out of every layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter

import numpy as np

import mpekit
from mpekit import (bounds, cli, equilibrium, experiments, games, mdp,
                    metrics, solver)

MODULES = (mpekit, games, mdp, equilibrium, metrics, bounds, solver,
           experiments, cli)

#: Traced functions, by the name of the module that defines them.
TRACED = {
    "experiments.run_trial": experiments.run_trial,
    "experiments.estimate_model": experiments.estimate_model,
    "solver.solve_mpe": solver.solve_mpe,
    "solver.stage_game": solver.stage_game,
    "solver.bimatrix_nash": solver.bimatrix_nash,
    "equilibrium.certify_profile": equilibrium.certify_profile,
    "mdp.solve_optimal": mdp.solve_optimal,
    "mdp.evaluate_policy": mdp.evaluate_policy,
    "games.induced_mdp": games.induced_mdp,
    "games.parse_game": games.parse_game,
    "games.metric_violations": games.metric_violations,
    "metrics.game_approx_params": metrics.game_approx_params,
    "metrics.game_lipschitz_constants": metrics.game_lipschitz_constants,
    "metrics.wasserstein1": metrics.wasserstein1,
    "bounds.robustness_report": bounds.robustness_report,
    "bounds.delta_term": bounds.delta_term,
}

#: Work counts derived from call arguments and results, not timed.
COUNTERS = (
    ("experiments.samples_drawn", "count", "lower"),
    ("solver.stage_pure", "count", "lower"),
    ("solver.stage_mixed", "count", "lower"),
    ("solver.stage_fallback", "count", "lower"),
    ("solver.stage_pure_frac", "frac", "higher"),
    ("solver.sweeps", "count", "lower"),
    ("solver.candidates_certified", "count", "lower"),
    ("solver.candidate_accept_frac", "frac", "higher"),
    ("games.triangle_checks", "count", "lower"),
    ("metrics.wasserstein1.lp_calls", "count", "lower"),
)

#: Counters the benchmark computes from call arguments and results (n S |A|,
#: S^3, line embeddability, the returned strategies) rather than observing
#: inside the library.
COMPUTED = ("experiments.samples_drawn", "games.triangle_checks",
            "metrics.wasserstein1.lp_calls", "solver.stage_pure",
            "solver.stage_mixed", "solver.stage_fallback")

OVERHEAD = (("trace.overhead_frac", "frac", "lower"),
            ("trace.ops", "count", "higher"))

#: Every per-layer metric a traced run emits: (name, unit, better).
PER_LAYER = tuple(
    metric
    for name in TRACED
    for metric in ((f"{name}.calls", "count", "lower"),
                   (f"{name}.self_s", "s", "lower"))
) + COUNTERS + OVERHEAD

_NASH_TOL = 1e-9
_BOOKKEEPING = "bench.bookkeeping"


def deviation_gain(payoff_a, payoff_b, x, y) -> float:
    """Largest gain either player gets by deviating from (x, y)."""
    row = payoff_a @ y
    col = x @ payoff_b
    return max(float(row.max() - x @ row), float(col.max() - col @ y))


class Tracer:
    """In-memory spans (name, start, end, parent, op) plus work counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list = []
        self._saved: list = []
        self._hooks = {
            "experiments.estimate_model": self._count_samples,
            "solver.solve_mpe": self._count_sweeps,
            "solver.bimatrix_nash": self._classify_stage,
            "equilibrium.certify_profile": self._count_candidate,
            "games.metric_violations": self._count_triangles,
            "metrics.wasserstein1": self._count_lp,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function on each module attribute holding it."""
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in TRACED.items()}
        for module in MODULES:
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    self._saved.append((module, attr, value))
        for module, attr, value in self._saved:
            setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append((index, name, signature, args, kwargs))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end,
                                     -1 if parent is None else parent[0],
                                     self.op)
            if hook is not None:
                self._bookkeeping(hook, signature, args, kwargs, result,
                                  parent)
            return result

        return traced

    def _bookkeeping(self, hook, signature, args, kwargs, result,
                     parent) -> None:
        index = len(self.spans)
        self.spans.append(None)
        start = perf_counter()
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        hook(bound.arguments, result, parent)
        self.spans[index] = (_BOOKKEEPING, start, perf_counter(),
                             -1 if parent is None else parent[0], self.op)

    # -- hooks ------------------------------------------------------------

    def _count_samples(self, args, result, parent) -> None:
        game = args["game"]
        self.counts["experiments.samples_drawn"] += (
            args["n"] * game.num_states * game.num_joint_actions)

    def _count_sweeps(self, args, result, parent) -> None:
        self.counts["solver.sweeps"] += result.iterations

    def _classify_stage(self, args, result, parent) -> None:
        x, y, _ = result
        gain = deviation_gain(np.asarray(args["payoff_a"], dtype=float),
                              np.asarray(args["payoff_b"], dtype=float), x, y)
        if gain > _NASH_TOL:
            self.counts["solver.stage_fallback"] += 1
        elif np.count_nonzero(x) == 1 and np.count_nonzero(y) == 1:
            self.counts["solver.stage_pure"] += 1
        else:
            self.counts["solver.stage_mixed"] += 1

    def _count_candidate(self, args, result, parent) -> None:
        if parent is None or parent[1] != "solver.solve_mpe":
            return
        _, _, signature, p_args, p_kwargs = parent
        solve_args = signature.bind(*p_args, **p_kwargs)
        solve_args.apply_defaults()
        self.counts["solver.candidates_certified"] += 1
        if result.max_alpha <= solve_args.arguments["tol"]:
            self.counts["solver.candidates_accepted"] += 1

    def _count_triangles(self, args, result, parent) -> None:
        size = np.shape(args["metric"])[0]
        self.counts["games.triangle_checks"] += size ** 3

    def _count_lp(self, args, result, parent) -> None:
        # The test wasserstein1 itself uses to choose the LP over the closed
        # form on a line.
        metric = np.asarray(args["metric"], dtype=np.float64)
        if metrics._line_embedding(metric) is None:
            self.counts["metrics.wasserstein1.lp_calls"] += 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """calls and self time per traced function, plus the counters, each
        per pass over the inputs.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        calls: Counter = Counter()
        self_s: dict[str, float] = dict.fromkeys(TRACED, 0.0)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name in self_s:
                calls[name] += 1
                self_s[name] += (end - start) - child_s[index]
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        counts = self.counts
        stages = (counts["solver.stage_pure"] + counts["solver.stage_mixed"]
                  + counts["solver.stage_fallback"])
        for name, _, _ in COUNTERS:
            out[name] = counts[name] / passes
        out["solver.stage_pure_frac"] = (
            counts["solver.stage_pure"] / stages if stages else 0.0)
        out["solver.candidate_accept_frac"] = (
            counts["solver.candidates_accepted"]
            / counts["solver.candidates_certified"]
            if counts["solver.candidates_certified"] else 0.0)
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

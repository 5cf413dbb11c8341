import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpekit
from mpekit import (hoeffding_tail, run_experiments, sample_size_game,
                    solve_mpe)


def test_every_public_name_resolves_once():
    assert len(set(mpekit.__all__)) == len(mpekit.__all__)
    missing = [name for name in mpekit.__all__ if not hasattr(mpekit, name)]
    assert missing == []


def test_public_names_are_pinned():
    # No name restates another; README's "Public names" gives the reason
    # each name that could be spelled otherwise stays.
    assert mpekit.__all__ == [
        "ApproximationParams", "CertificateAlpha", "EmpiricalModel",
        "ExperimentRecord", "ExperimentSummary", "GameFormatError",
        "GameValidationError", "MarkovGame", "MarkovStrategy",
        "RobustnessReport", "SolveResult", "StrategyProfile",
        "TOTAL_VARIATION", "ValueFunction", "WASSERSTEIN", "alpha_bound_ipm",
        "bellman_optimal", "bellman_policy", "bimatrix_nash",
        "bundled_game", "certify_profile", "default_line_metric",
        "delta_term", "estimate_model", "evaluate_policy",
        "game_approx_params", "game_lipschitz_constants", "hoeffding_tail",
        "induced_mdp", "lipschitz_constant", "lipschitz_value_bound",
        "parse_game", "parse_profile", "records_csv", "robustness_report",
        "run_experiments", "run_trial", "sample_size_game", "serialize_game",
        "serialize_profile", "solve_mpe", "solve_optimal", "span",
        "stage_game", "summarize", "summary_csv", "tv_distance",
        "wasserstein1",
    ]
    assert mpekit.__all__ == sorted(mpekit.__all__)


def budget(num_states=3, action_counts=(2, 2), num_players=2):
    return sample_size_game(0.1, 0.01, 0.9, num_states, list(action_counts),
                            num_players, 0.9)


@pytest.mark.parametrize("call, name", [
    (lambda game: budget(num_states=2.5), "num_states"),
    (lambda game: budget(num_players=True), "num_players"),
    (lambda game: budget(action_counts=(2.5, 2)), r"action_counts\[0\]"),
    (lambda game: budget(action_counts=(2, True)), r"action_counts\[1\]"),
    (lambda game: hoeffding_tail(2.5, 0.1, 1.0), "n"),
    (lambda game: hoeffding_tail(True, 0.1, 1.0), "n"),
    (lambda game: solve_mpe(game, max_iter=2.5), "max_iter"),
    (lambda game: solve_mpe(game, max_iter=True), "max_iter"),
    (lambda game: run_experiments(game, 100, 2.5, 0), "num_trials"),
    (lambda game: run_experiments(game, 100, True, 0), "num_trials"),
    (lambda game: run_experiments(game, 100, -1, 0), "num_trials"),
], ids=["states-float", "players-bool", "actions-float", "actions-bool",
        "tail-float", "tail-bool", "solve-float",
        "solve-bool", "trials-float", "trials-bool", "trials-negative"])
def test_count_parameters_take_integers_only(original_game, call, name):
    # Floats and bools used to run (2.5 states gave a budget of 108,835,
    # max_iter=True ran as 1) or fail with a bare TypeError.
    with pytest.raises(ValueError, match=(
            rf"^{name} must be a (positive|nonnegative) integer, got ")):
        call(original_game)


def test_count_parameters_take_numpy_integers():
    assert budget(np.int64(3), (np.int64(2), 2), np.int64(2)) == budget()
    assert hoeffding_tail(np.int32(50), 0.1, 2.0) == hoeffding_tail(
        50, 0.1, 2.0)


#: Run in a fresh interpreter, since the test session imports scipy itself.
#: Prints whether scipy.optimize is loaded after each step, and how many
#: transport solves ran.
SCIPY_PROBE = """\
import contextlib, io, json, sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import mpekit
from mpekit import metrics
from mpekit.cli import main

steps = [("import mpekit", "scipy.optimize" in sys.modules)]
solves = []
transport = metrics._transport
metrics._transport = lambda *args: solves.append(args) or transport(*args)


def step(name, call):
    with contextlib.redirect_stdout(io.StringIO()):
        call()
    steps.append((name, "scipy.optimize" in sys.modules))


root = Path(sys.argv[1])
g = mpekit.bundled_game("two_player_original")
g_hat = mpekit.bundled_game("two_player_perturbed")
for name, game in (("original.json", g), ("perturbed.json", g_hat)):
    (root / name).write_text(mpekit.serialize_game(game))
original, perturbed = str(root / "original.json"), str(root / "perturbed.json")
profile = str(root / "profile.json")
step("run_trial", lambda: mpekit.run_trial(g, 1000, 0, 2024))
solved = mpekit.solve_mpe(g_hat)
steps.append(("solve_mpe", "scipy.optimize" in sys.modules))
step("certify_profile", lambda: mpekit.certify_profile(g, solved.profile))
for kind in (mpekit.TOTAL_VARIATION, mpekit.WASSERSTEIN):
    step(f"robustness_report {kind}", lambda: mpekit.robustness_report(
        g, g_hat, kind, profile=solved.profile))
step("line-metric wasserstein1", lambda: mpekit.wasserstein1(
    [0.5, 0.25, 0.25], [0.25, 0.25, 0.5], mpekit.default_line_metric(3)))
for argv in (["validate", original], ["solve", perturbed, "--out", profile],
             ["certify", original, profile],
             ["bound", original, perturbed, "--ipm", "tv"],
             ["sample-size", "--alpha", "0.1", "--p", "0.01", "--span", "0.9",
              "--states", "3", "--actions", "2", "2", "--gamma", "0.9"]):
    step("mpekit " + argv[0], lambda: main(argv))
cells = np.array([(r, c) for r in range(3) for c in range(3)])
grid = np.abs(cells[:, None] - cells[None]).sum(-1).astype(float)
rows = np.random.default_rng(0).dirichlet(np.ones(9), size=(9, 4))
grid_g = replace(g, states=tuple("012345678"), transitions=rows,
                 rewards=np.zeros((2, 9, 4)), metric=grid)
grid_hat = replace(grid_g, transitions=0.9 * rows + 0.1 / 9)
uniform = mpekit.MarkovStrategy(np.full((9, 2), 0.5))
step("grid robustness_report wasserstein", lambda: mpekit.robustness_report(
    grid_g, grid_hat, mpekit.WASSERSTEIN,
    profile=mpekit.StrategyProfile((uniform, uniform))))
print(json.dumps([steps, len(solves)]))
"""


def test_no_step_loads_scipy_optimize(tmp_path):
    # scipy.optimize took about 0.6 s of a 0.9 s `import mpekit`, and W1
    # off a line metric is solved in numpy.
    src = str(Path(mpekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    child = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
                           capture_output=True, text=True, env=env,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    steps, solves = json.loads(child.stdout.splitlines()[-1])
    steps = dict(steps)
    assert steps == {name: False for name in steps}
    assert len(steps) == 13
    # The grid step's W1 maxima reach the transport solve.
    assert solves >= 1

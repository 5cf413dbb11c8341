import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (perturb_game, random_game, random_mdp, random_profile,
                     with_duplicate)
from mpekit import cli
from mpekit.cli import main
from mpekit.games import (
    MarkovGame,
    bundled_game,
    parse_profile,
    serialize_game,
    serialize_profile,
)


@pytest.fixture(scope="module")
def game_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    original = root / "original.json"
    perturbed = root / "perturbed.json"
    original.write_text(serialize_game(bundled_game("two_player_original")))
    perturbed.write_text(serialize_game(bundled_game("two_player_perturbed")))
    return {"root": root, "original": original, "perturbed": perturbed}


@pytest.fixture(scope="module")
def profile_file(game_files, perturbed_mpe):
    path = game_files["root"] / "profile.json"
    path.write_text(serialize_profile(perturbed_mpe.profile))
    return path


@pytest.fixture(scope="module")
def mdp_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("mdp")
    rng = np.random.default_rng(11)
    mdp = random_mdp(rng, num_states=3)
    paths = {name: root / f"{name}.json"
             for name in ("original", "perturbed", "profile")}
    paths["original"].write_text(serialize_game(mdp))
    paths["perturbed"].write_text(serialize_game(perturb_game(rng, mdp)))
    paths["profile"].write_text(serialize_profile(random_profile(rng, mdp)))
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_file_exits_zero(self, capsys, game_files):
        code, out, err = run(capsys, ["validate", str(game_files["original"])])
        assert code == 0
        assert out == ""

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, out, err = run(capsys, ["validate", str(bad)])
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, ["validate", str(tmp_path / "nope.json")])
        assert code == 2

    def test_invalid_row_exits_one_with_report(self, capsys, game_files,
                                               tmp_path):
        doc = json.loads(game_files["original"].read_text())
        doc["transitions"]["1|1,1"] = [0.5, 0.6, 0.0]
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(bad)])
        assert code == 1
        assert out == ("transition row (state '1', action (1,1)) sums to "
                       "1.1, not 1 within 1e-09\n")
        assert err == ""

    def test_every_violation_on_its_own_line(self, capsys, game_files,
                                            tmp_path):
        doc = json.loads(game_files["original"].read_text())
        doc["transitions"]["2|1,2"] = [0.5, 0.2, 0.2]
        doc["gamma"] = 1.0
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(bad)])
        assert code == 1
        assert out == (
            "discount 1.0 outside the open interval (0, 1)\n"
            "transition row (state '2', action (1,2)) sums to "
            "0.8999999999999999, not 1 within 1e-09\n")
        assert err == ""


class TestCertify:
    def test_reference_pair(self, capsys, game_files, profile_file):
        code, out, err = run(capsys, [
            "certify", str(game_files["original"]), str(profile_file)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "player,alpha"
        alphas = [float(line.split(",")[1]) for line in lines[1:]]
        assert alphas == pytest.approx([0.005300, 0.002785], abs=1e-5)

    def test_equilibrium_on_its_own_game(self, capsys, game_files,
                                         profile_file):
        code, out, _ = run(capsys, [
            "certify", str(game_files["perturbed"]), str(profile_file)])
        assert code == 0
        alphas = [float(line.split(",")[1])
                  for line in out.splitlines()[1:]]
        assert max(alphas) <= 1e-6

    def test_dimension_mismatch_exits_one(self, capsys, game_files, tmp_path):
        short = tmp_path / "short.json"
        short.write_text(json.dumps(
            {"strategies": [[[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]]}))
        code, _, err = run(capsys, [
            "certify", str(game_files["original"]), str(short)])
        assert code == 1
        assert "strategies" in err

    def test_nan_in_profile_exits_two(self, capsys, game_files, tmp_path):
        nan_profile = tmp_path / "nan.json"
        nan_profile.write_text('{"strategies": [[[NaN, 1.0], [0.5, 0.5], '
                               '[0.5, 0.5]], [[1.0, 0.0], [1.0, 0.0], '
                               '[1.0, 0.0]]]}')
        code, out, err = run(capsys, [
            "certify", str(game_files["original"]), str(nan_profile)])
        assert code == 2
        assert out == ""
        assert "player 1: non-finite probability at state 0, action 0" in err

    def test_off_sum_profile_names_a_plain_float(self, capsys, game_files,
                                                 tmp_path):
        off_sum = tmp_path / "off_sum.json"
        off_sum.write_text('{"strategies": [[[0.5, 0.4], [0.5, 0.5], '
                           '[0.5, 0.5]], [[1.0, 0.0], [1.0, 0.0], '
                           '[1.0, 0.0]]]}')
        code, out, err = run(capsys, [
            "certify", str(game_files["original"]), str(off_sum)])
        assert code == 2
        assert out == ""
        assert "player 1: strategy row for state 0 sums to 0.9," in err
        assert "np.float64" not in err


def _short_row(text):
    doc = json.loads(text)
    doc["gamma"] = 1.0
    doc["transitions"]["2|1,2"] = [0.5, 0.2, 0.2]
    return json.dumps(doc)


#: The model faults of a game with gamma 1 and one short transition row.
SHORT_FAULTS = ("discount 1.0 outside the open interval (0, 1); transition "
                "row (state '2', action (1,2)) sums to 0.8999999999999999, "
                "not 1 within 1e-09\n")


@pytest.mark.parametrize("argv,message", [
    (["solve", "perturbed", "--tol", "-1"], "error: tol must be positive"),
    (["solve", "perturbed", "--max-iter", "0"],
     "error: max_iter must be a positive integer"),
    (["solve", "perturbed", "--seed", "-1"],
     "error: seed must be a nonnegative integer, got -1\n"),
    (["solve", "short"], "error: {short}: " + SHORT_FAULTS),
    (["certify", "short", "profile"], "error: {short}: " + SHORT_FAULTS),
], ids=["solve-tol", "solve-max-iter", "solve-seed", "solve-short",
        "certify-short"])
def test_library_checks_surface_as_exit_one(capsys, game_files, profile_file,
                                            tmp_path, argv, message):
    short = tmp_path / "short.json"
    short.write_text(_short_row(game_files["original"].read_text()))
    paths = dict(game_files, profile=profile_file, short=short)
    code, out, err = run(capsys, [str(paths.get(arg, arg)) for arg in argv])
    assert code == 1
    assert out == ""
    assert err.startswith(message.format(short=short))


def _huge_integer(text):
    doc = json.loads(text)
    doc["rewards"][0]["1|1,1"] = 10 ** 399
    return json.dumps(doc)


def _duplicate_transition(text):
    return with_duplicate(json.loads(text), "1|1,1", [0.4, 0.4, 0.2])


def _repeated_state(text):
    doc = json.loads(text)
    doc["states"][1] = doc["states"][0]
    return json.dumps(doc)


def _profile_with_true(text):
    doc = json.loads(text)
    doc["strategies"][0][0] = [True, 0]
    return json.dumps(doc)


@pytest.mark.parametrize("command,edit,message", [
    ("validate", _huge_integer,
     "rewards[1]['1|1,1'] is outside the float range"),
    ("validate", _duplicate_transition, "duplicate key '1|1,1'"),
    ("validate", _repeated_state, "states have duplicate identifiers"),
    ("certify", _profile_with_true,
     "probability of player 1 at state 0 must be a number"),
    ("bound", _profile_with_true,
     "probability of player 1 at state 0 must be a number"),
], ids=["huge-integer", "duplicate-key", "repeated-state", "profile-true",
        "bound-profile-true"])
def test_malformed_documents_exit_two(capsys, game_files, profile_file,
                                      tmp_path, command, edit, message):
    original = str(game_files["original"])
    source = {"validate": game_files["original"], "certify": profile_file,
              "bound": profile_file}[command]
    bad = tmp_path / "bad.json"
    bad.write_text(edit(source.read_text()))
    argv = {"validate": ["validate", str(bad)],
            "certify": ["certify", original, str(bad)],
            "bound": ["bound", original, str(game_files["perturbed"]),
                      "--ipm", "tv", "--profile", str(bad)]}[command]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: {message}\n"


def _second_strategy_short(text):
    doc = json.loads(text)
    doc["strategies"][1] = doc["strategies"][1][:2]
    return json.dumps(doc)


def _second_strategy_with_true(text):
    doc = json.loads(text)
    doc["strategies"][1][0] = [True, 0]
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["certify", "bound"])
@pytest.mark.parametrize("edit,code,message", [
    (_second_strategy_short, 1,
     "strategy of player 2 has shape (2, 2), expected (3, 2)"),
    (_second_strategy_with_true, 2,
     "probability of player 2 at state 0 must be a number"),
], ids=["short", "true"])
def test_profile_messages_count_players_from_one(capsys, game_files,
                                                 profile_file, tmp_path,
                                                 command, edit, code,
                                                 message):
    # A shape fault named the second strategy "player 1", a number fault in
    # it "player 2".
    bad = tmp_path / "bad.json"
    bad.write_text(edit(profile_file.read_text()))
    original = str(game_files["original"])
    argv = {"certify": ["certify", original, str(bad)],
            "bound": ["bound", original, str(game_files["perturbed"]),
                      "--ipm", "tv", "--profile", str(bad)]}[command]
    got, out, err = run(capsys, argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ")
    assert err.endswith(f"{message}\n")


@pytest.mark.parametrize("argv", [
    ["bound", "original", "perturbed", "--ipm", "tv", "--tol", "1e-10"],
    ["bound", "original", "perturbed", "--ipm", "tv", "--seed", "1"],
    ["experiment", "original", "--n", "10", "--trials", "1", "--out",
     "records.csv", "--solver-tol", "1e-8"],
], ids=["bound-tol", "bound-seed", "experiment-solver-tol"])
def test_retired_solver_flags_are_usage_errors(capsys, game_files, argv):
    # bound solves as solve does at its defaults, and a trial solves at
    # solve_mpe's: neither takes solver settings of its own.
    with pytest.raises(SystemExit) as excinfo:
        main([str(game_files.get(arg, arg)) for arg in argv])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (b'{"players": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
     "JSON nests too deeply"),
    ('{"players": 1, "states": ["\xe9"]}'.encode("latin-1"),
     "'utf-8' codec can't decode byte 0xe9 in position 27: invalid "
     "continuation byte"),
], ids=["deep-nesting", "latin-1"])
def test_undecodable_documents_exit_two(capsys, tmp_path, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["solve", "perturbed", "--out", "missing/p.json"],
     "error: cannot write {out}: "),
    (["solve", "perturbed", "--out", "."], "error: cannot write {out}: "),
    (["experiment", "original", "--n", "100", "--trials", "2", "--out",
      "missing/r.csv"], "error: cannot write output: "),
], ids=["solve-missing-directory", "solve-to-directory",
        "experiment-missing-directory"])
def test_unwritable_outputs_exit_two(capsys, game_files, tmp_path, argv,
                                     message):
    # The output path is taken under tmp_path: a directory that does not
    # exist, or the directory itself. The work runs, then the write fails
    # with one error line and nothing on stdout.
    argv = [str(game_files.get(arg, arg)) for arg in argv]
    argv[-1] = str(tmp_path / argv[-1])
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(message.format(out=argv[-1]))
    assert err.count("\n") == 1


class TestBound:
    def test_tv_report_solves_equilibrium(self, capsys, game_files):
        code, out, _ = run(capsys, [
            "bound", str(game_files["original"]), str(game_files["perturbed"]),
            "--ipm", "tv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("player,epsilon,delta,")
        row1 = lines[1].split(",")
        row2 = lines[2].split(",")
        assert float(row1[1]) == pytest.approx(0.01, abs=1e-12)
        assert float(row1[2]) == pytest.approx(0.05, abs=1e-12)
        assert float(row1[3]) == pytest.approx(0.000784, abs=1e-6)
        assert float(row2[3]) == pytest.approx(0.000550, abs=1e-6)
        assert float(row1[4]) == pytest.approx(0.034112, abs=2e-5)
        assert float(row1[5]) == pytest.approx(0.034116, abs=1e-6)
        assert float(row2[5]) == pytest.approx(0.029903, abs=1e-6)

    def test_w1_report(self, capsys, game_files):
        code, out, _ = run(capsys, [
            "bound", str(game_files["original"]), str(game_files["perturbed"]),
            "--ipm", "w1"])
        assert code == 0
        lines = out.splitlines()
        assert float(lines[1].split(",")[5]) == pytest.approx(0.048231,
                                                              abs=1e-6)
        assert float(lines[2].split(",")[5]) == pytest.approx(0.039782,
                                                              abs=1e-6)

    def test_self_comparison_is_all_zero(self, capsys, game_files):
        code, out, _ = run(capsys, [
            "bound", str(game_files["original"]), str(game_files["original"]),
            "--ipm", "tv"])
        assert code == 0
        for line in out.splitlines()[1:]:
            fields = line.split(",")
            assert float(fields[1]) == 0.0
            assert float(fields[2]) == 0.0
            assert float(fields[4]) == 0.0

    @pytest.mark.parametrize("ipm", ["tv", "w1"])
    def test_profile_file_skips_solving(self, capsys, monkeypatch, game_files,
                                        profile_file, ipm):
        argv = ["bound", str(game_files["original"]),
                str(game_files["perturbed"]), "--ipm", ipm]
        solved = run(capsys, argv)

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_mpe called")

        monkeypatch.setattr(cli, "solve_mpe", no_solve)
        assert run(capsys, argv + ["--profile", str(profile_file)]) == solved

    def test_one_player_pair_takes_a_profile(self, capsys, mdp_files):
        code, out, err = run(capsys, [
            "bound", str(mdp_files["original"]), str(mdp_files["perturbed"]),
            "--ipm", "tv", "--profile", str(mdp_files["profile"])])
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1,")

    def test_one_player_pair_without_profile_exits_one(self, capsys,
                                                        mdp_files):
        code, out, err = run(capsys, [
            "bound", str(mdp_files["original"]), str(mdp_files["perturbed"]),
            "--ipm", "tv"])
        assert code == 1
        assert out == ""
        assert "two-player" in err

    def test_profile_with_wrong_player_count_exits_one(self, capsys,
                                                       game_files, mdp_files):
        code, out, err = run(capsys, [
            "bound", str(game_files["original"]), str(game_files["perturbed"]),
            "--ipm", "tv", "--profile", str(mdp_files["profile"])])
        assert code == 1
        assert out == ""
        assert err == "error: profile has 1 strategies for 2 players\n"

    def test_failed_solve_warns_and_bounds_the_solve_profile(self, capsys,
                                                             tmp_path):
        # The solver's sweeps cycle on this game: no profile is certified.
        rng = np.random.default_rng(21)
        approx = random_game(rng, 3, (2, 2), 0.9)
        paths = {name: tmp_path / f"{name}.json"
                 for name in ("game", "approx", "profile")}
        paths["approx"].write_text(serialize_game(approx))
        paths["game"].write_text(serialize_game(perturb_game(rng, approx)))
        argv = ["bound", str(paths["game"]), str(paths["approx"]),
                "--ipm", "tv"]
        code, solved, err = run(capsys, argv)
        assert code == 0
        assert err.startswith("warning: solver did not certify an "
                              "equilibrium of the approximate game")
        code, _, _ = run(capsys, ["solve", str(paths["approx"]),
                                  "--out", str(paths["profile"])])
        assert code == 1
        code, given, _ = run(capsys, argv + ["--profile",
                                             str(paths["profile"])])
        assert (code, given) == (0, solved)


class TestSolve:
    def test_solve_writes_profile_and_certificate(self, capsys, game_files,
                                                  tmp_path):
        out_path = tmp_path / "mpe.json"
        code, out, err = run(capsys, [
            "solve", str(game_files["perturbed"]), "--tol", "1e-8",
            "--out", str(out_path)])
        assert code == 0
        profile = parse_profile(out_path.read_text())
        assert profile.num_players == 2
        lines = out.splitlines()
        assert lines[0] == "player,alpha"
        assert max(float(line.split(",")[1]) for line in lines[1:]) <= 1e-8
        assert "converged=true" in err

    def test_solve_to_stdout_keeps_streams_separate(self, capsys, game_files):
        code, out, err = run(capsys, ["solve", str(game_files["perturbed"])])
        assert code == 0
        profile = parse_profile(out)  # stdout is exactly the profile document
        assert profile.num_players == 2
        assert "player,alpha" in err

    def test_non_convergence_exits_one_with_certificate(self, capsys,
                                                        tmp_path):
        from helpers import random_game

        # Neither policy nor value iteration certifies this game: its best
        # certified gap is about 0.035.
        game = random_game(np.random.default_rng(21), 3, (2, 2), 0.9)
        path = tmp_path / "uncertified.json"
        path.write_text(serialize_game(game))
        code, out, err = run(capsys, [
            "solve", str(path), "--max-iter", "300"])
        assert code == 1
        assert "converged=false" in err
        assert "player,alpha" in err  # certificate still attached

    def test_overflowing_rewards_exit_one_with_the_bound(self, capsys,
                                                         tmp_path):
        # validate accepts the game; solve died with an OverflowError
        # traceback from its restart draw.
        game = random_game(np.random.default_rng(1), 3, (2, 2), 0.9)
        game = replace(game, rewards=(game.rewards - 0.5) * 1.8
                       * np.finfo(float).max)
        path = tmp_path / "overflow.json"
        path.write_text(serialize_game(game))
        assert run(capsys, ["validate", str(path)])[0] == 0
        code, out, err = run(capsys, ["solve", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: rewards must be at most 4.49423e+307 ")

    def test_three_player_game_rejected(self, capsys, tmp_path):
        from helpers import random_game

        game = random_game(np.random.default_rng(0), action_counts=(2, 2, 2))
        path = tmp_path / "three.json"
        path.write_text(serialize_game(game))
        code, _, err = run(capsys, ["solve", str(path)])
        assert code == 1
        assert "two-player" in err

    def test_single_state_dominance_game(self, capsys, tmp_path):
        from mpekit.games import MarkovGame

        game = MarkovGame(
            states=("only",),
            action_sets=(("c", "d"), ("c", "d")),
            transitions=[[[1.0], [1.0], [1.0], [1.0]]],
            rewards=[[[3.0, 0.0, 5.0, 1.0]], [[3.0, 5.0, 0.0, 1.0]]],
            discount=0.9,
        )
        path = tmp_path / "oneshot.json"
        path.write_text(serialize_game(game))
        code, out, _ = run(capsys, ["solve", str(path)])
        assert code == 0
        profile = parse_profile(out)
        assert np.allclose(profile.strategies[0].probabilities, [[0.0, 1.0]])
        assert np.allclose(profile.strategies[1].probabilities, [[0.0, 1.0]])


class TestSampleSize:
    def test_reference_budget(self, capsys):
        code, out, _ = run(capsys, [
            "sample-size", "--alpha", "0.1", "--p", "0.01", "--span", "0.9",
            "--states", "3", "--actions", "2", "2", "--gamma", "0.9"])
        assert code == 0
        assert abs(int(out.strip()) - 111_227) <= 1

    def test_doubled_alpha_quarters_budget(self, capsys):
        code, out, _ = run(capsys, [
            "sample-size", "--alpha", "0.2", "--p", "0.01", "--span", "0.9",
            "--states", "3", "--actions", "2", "2", "--gamma", "0.9"])
        assert code == 0
        assert abs(int(out.strip()) - 111_227 / 4) <= 1

    def test_out_of_range_p_exits_one(self, capsys):
        code, _, err = run(capsys, [
            "sample-size", "--alpha", "0.1", "--p", "1.5", "--span", "0.9",
            "--states", "3", "--actions", "2", "2", "--gamma", "0.9"])
        assert code == 1
        assert "p must" in err

    @pytest.mark.parametrize("flags", [
        ["--alpha", "0.1", "--span", "inf"],
        ["--alpha", "1e-300", "--span", "0.9"],
        ["--alpha", "nan", "--span", "0.9"],
        ["--alpha", "0.1", "--span", "nan"],
    ])
    def test_non_finite_budget_exits_one(self, capsys, flags):
        # These raised OverflowError or ZeroDivisionError from the budget
        # formula, or named no operand.
        code, out, err = run(capsys, [
            "sample-size", *flags, "--p", "0.01", "--states", "3",
            "--actions", "2", "2", "--gamma", "0.9"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert ("alpha" in err or "span" in err) and "Traceback" not in err


    def test_union_count_beyond_the_float_range_exits_one(self, capsys):
        # The float conversion of the count printed a traceback.
        code, out, err = run(capsys, [
            "sample-size", "--alpha", "0.1", "--p", "0.01", "--span", "0.9",
            "--states", str(10 ** 400), "--actions", "2", "2",
            "--gamma", "0.9"])
        assert code == 1
        assert out == ""
        assert err == ("error: num_states * joint actions * num_players is "
                       "at least 2**1331, beyond the float range\n")


class TestExperiment:
    def test_writes_records_and_summary(self, capsys, game_files, tmp_path):
        out_path = tmp_path / "records.csv"
        code, out, err = run(capsys, [
            "experiment", str(game_files["original"]), "--n", "500",
            "--trials", "3", "--seed", "42", "--out", str(out_path)])
        assert code == 0
        assert out == ""
        lines = out_path.read_text().splitlines()
        assert lines[0] == "trial,alpha1,alpha2,converged,seed"
        assert len(lines) == 4
        summary_lines = (tmp_path / "records_summary.csv").read_text() \
            .splitlines()
        assert summary_lines[0] == "stat,player,value"
        assert summary_lines[1] == "count,,3"

    def test_zero_trials_writes_header_only(self, capsys, game_files,
                                            tmp_path):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run(capsys, [
            "experiment", str(game_files["original"]), "--n", "10",
            "--trials", "0", "--seed", "1", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().splitlines() == [
            "trial,alpha1,alpha2,converged,seed"]

    @pytest.mark.parametrize("n, trials, message", [
        ("0", "0", "error: n must be a positive integer, got 0"),
        ("10", "-1", "error: num_trials must be a nonnegative integer, "
                     "got -1"),
        # numpy's sampler printed an OverflowError traceback.
        (str(10 ** 20), "1", f"error: n must be at most {2 ** 63 - 1} "
                             f"(2**63 - 1), got {10 ** 20}")])
    def test_bad_counts_fail_with_the_library_message(self, capsys,
                                                      game_files, tmp_path,
                                                      n, trials, message):
        out_path = tmp_path / "never.csv"
        code, out, err = run(capsys, [
            "experiment", str(game_files["original"]), "--n", n,
            "--trials", trials, "--out", str(out_path)])
        assert (code, out, err) == (1, "", message + "\n")
        assert not out_path.exists()

    def test_negative_seed_fails_with_the_library_message(self, capsys,
                                                          game_files,
                                                          tmp_path):
        # numpy's "expected non-negative integer" named no option.
        out_path = tmp_path / "never.csv"
        code, out, err = run(capsys, [
            "experiment", str(game_files["original"]), "--n", "10",
            "--trials", "1", "--seed", "-1", "--out", str(out_path)])
        assert (code, out, err) == (
            1, "", "error: master_seed must be a nonnegative integer, "
                   "got -1\n")
        assert not out_path.exists()

    def test_one_player_game_fails_before_any_trial(self, capsys, mdp_files,
                                                    tmp_path):
        out_path = tmp_path / "never.csv"
        code, out, err = run(capsys, [
            "experiment", str(mdp_files["original"]), "--n", "0",
            "--trials", "1", "--out", str(out_path)])
        assert (code, out, err) == (
            1, "", "error: experiments need a two-player game\n")
        assert not out_path.exists()

    def test_same_seed_is_byte_identical(self, capsys, game_files, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(capsys, [
                "experiment", str(game_files["original"]), "--n", "400",
                "--trials", "2", "--seed", "9", "--out", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_repeated_seeded_commands_are_byte_identical(self, capsys,
                                                         game_files):
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, [
                "solve", str(game_files["perturbed"]), "--seed", "3"])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli_bundled_pair.txt"


def test_bundled_pair_stdout_matches_golden(capsys, game_files, tmp_path):
    """solve, certify and bound (TV, W1) print exactly the stored bytes."""
    paths = {"original.json": game_files["original"],
             "perturbed.json": game_files["perturbed"],
             "profile.json": tmp_path / "profile.json"}
    commands = [
        ["solve", "perturbed.json"],
        ["certify", "original.json", "profile.json"],
        ["bound", "original.json", "perturbed.json", "--ipm", "tv"],
        ["bound", "original.json", "perturbed.json", "--ipm", "w1"],
    ]
    transcript = []
    for argv in commands:
        code, out, _ = run(capsys, [str(paths.get(arg, arg)) for arg in argv])
        assert code == 0
        if argv[0] == "solve":
            paths["profile.json"].write_text(out)
        transcript.append(f"$ mpekit {' '.join(argv)}\n{out}")
    assert "".join(transcript).encode() == GOLDEN_CLI.read_bytes()


GOLDEN_PLANAR = Path(__file__).parent / "golden" / "bound_planar60_w1.txt"


def test_planar_pair_w1_bound_matches_golden(capsys, tmp_path):
    """``bound --ipm w1`` on the 60-state planar pair that CI builds prints
    exactly the stored bytes: no line metric, so every W1 maximum takes the
    bound, bracket and confirm steps."""
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(60, 2))
    metric = np.linalg.norm(points[:, None] - points[None], axis=2)
    rows = rng.dirichlet(np.full(60, 0.3), size=(60, 4))
    near = 0.97 * rows + 0.03 * rng.dirichlet(np.ones(60), size=(60, 4))
    r = rng.uniform(size=(60, 4))
    paths = []
    for name, p in (("planar.json", rows), ("planar_hat.json", near)):
        game = MarkovGame(tuple(str(s) for s in range(60)),
                          (("a", "b"), ("a", "b")), p,
                          np.stack([r, 1.0 - r]), 0.9, metric)
        paths.append(tmp_path / name)
        paths[-1].write_text(serialize_game(game))
    code, out, _ = run(capsys, ["bound", *map(str, paths), "--ipm", "w1"])
    assert code == 0
    assert out.encode() == GOLDEN_PLANAR.read_bytes()

import json
from pathlib import Path

import numpy as np
import pytest

from mpekit.cli import main
from mpekit.games import (
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
        assert "sums to" in out


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

    def test_values_file_skips_solving(self, capsys, game_files, tmp_path,
                                       perturbed_mpe):
        values_path = tmp_path / "values.json"
        values_path.write_text(json.dumps(
            {"values": [list(v.values) for v in perturbed_mpe.values]}))
        code, out, _ = run(capsys, [
            "bound", str(game_files["original"]), str(game_files["perturbed"]),
            "--ipm", "tv", "--values", str(values_path)])
        assert code == 0
        assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(
            0.000784, abs=1e-6)

    def test_values_file_with_wrong_player_count_exits_one(self, capsys,
                                                           game_files,
                                                           tmp_path):
        values_path = tmp_path / "short_values.json"
        values_path.write_text(json.dumps({"values": [[0.1, 0.2, 0.3]]}))
        code, _, err = run(capsys, [
            "bound", str(game_files["original"]), str(game_files["perturbed"]),
            "--ipm", "tv", "--values", str(values_path)])
        assert code == 1
        assert "players" in err


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
                                                        game_files):
        code, out, err = run(capsys, [
            "solve", str(game_files["perturbed"]), "--tol", "1e-13",
            "--max-iter", "2"])
        assert code == 1
        assert "converged=false" in err
        assert "player,alpha" in err  # certificate still attached

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
            "--states", "3", "--actions", "2", "2", "--players", "2",
            "--gamma", "0.9"])
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

    def test_player_count_mismatch_exits_one(self, capsys):
        code, _, err = run(capsys, [
            "sample-size", "--alpha", "0.1", "--p", "0.01", "--span", "0.9",
            "--states", "3", "--actions", "2", "2", "--players", "3",
            "--gamma", "0.9"])
        assert code == 1


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

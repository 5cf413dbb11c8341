"""Command-line front end.

Subcommands cover the full pipeline: validate a game file, certify a
profile, compute the robustness bound ladder for a game pair, solve a
two-player game, size a sampling budget, and run generative-model
experiments.

Conventions: machine-readable output (CSV, JSON, integers) goes to stdout,
diagnostics to stderr. Exit codes: 0 success, 1 domain or validation
failure, 2 I/O or parse failure. Every seeded command is deterministic
given its flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bounds, experiments, games, metrics
from .equilibrium import certify_profile
from .experiments import _format
from .solver import solve_mpe

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

_IPM_FLAGS = {"tv": metrics.TOTAL_VARIATION, "w1": metrics.WASSERSTEIN}


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _load(path: str, parse):
    """``parse`` applied to the file's text. An unreadable file, text that
    is not UTF-8 or a format error exits 2; a game that breaks the model
    invariants exits 1."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Failure(EXIT_IO, f"{path}: {exc}") from exc
    try:
        return parse(text)
    except games.GameValidationError as exc:
        raise _Failure(EXIT_DOMAIN,
                       f"{path}: " + "; ".join(exc.violations)) from exc
    except games.GameFormatError as exc:
        raise _Failure(EXIT_IO, f"{path}: {exc}") from exc


def _violations(text: str) -> list[str]:
    """The invariants a parsed game document breaks; [] for a valid game."""
    try:
        games.parse_game(text)
    except games.GameValidationError as exc:
        return exc.violations
    return []


def _cmd_validate(args) -> int:
    violations = _load(args.game, _violations)
    for violation in violations:
        print(violation)
    return EXIT_DOMAIN if violations else EXIT_OK


def _alpha_lines(certificate) -> str:
    """The ``player,alpha`` CSV of a certificate's clamped gaps."""
    return "\n".join(["player,alpha"] + [
        f"{player},{_format(alpha)}"
        for player, alpha in enumerate(certificate.alpha_clamped(), start=1)])


def _cmd_certify(args) -> int:
    game = _load(args.game, games.parse_game)
    profile = _load(args.profile, games.parse_profile)
    print(_alpha_lines(certify_profile(game, profile)))
    return EXIT_OK


def _cmd_bound(args) -> int:
    game = _load(args.game, games.parse_game)
    approx = _load(args.approx_game, games.parse_game)
    ipm_kind = _IPM_FLAGS[args.ipm]
    if args.profile:
        profile = _load(args.profile, games.parse_profile)
    else:
        result = solve_mpe(approx)
        if not result.converged:
            print("warning: solver did not certify an equilibrium of the "
                  "approximate game; bounds use its best iterate",
                  file=sys.stderr)
        profile = result.profile
    report = bounds.robustness_report(game, approx, ipm_kind, profile=profile)
    print("player,epsilon,delta,delta_term,alpha_instance,alpha_ipm,"
          "alpha_corollary")
    for player in range(len(report.alpha_instance)):
        corollary = ("" if report.alpha_corollary is None
                     else _format(report.alpha_corollary[player]))
        print(",".join([
            str(player + 1),
            _format(report.epsilon),
            _format(report.delta),
            _format(report.per_player_delta_term[player]),
            _format(report.alpha_instance[player]),
            _format(report.alpha_ipm[player]),
            corollary,
        ]))
    if report.alpha_corollary is None:
        print("note: Lipschitz worst-case bound inapplicable "
              "(gamma * L_P >= 1)", file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args) -> int:
    game = _load(args.game, games.parse_game)
    result = solve_mpe(game, tol=args.tol, max_iter=args.max_iter,
                       seed=args.seed)
    profile_doc = games.serialize_profile(result.profile)
    if args.out:
        try:
            Path(args.out).write_text(profile_doc, encoding="utf-8")
        except OSError as exc:
            raise _Failure(EXIT_IO, f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(profile_doc)
    print(_alpha_lines(result.certificate),
          file=sys.stdout if args.out else sys.stderr)
    print(f"converged={str(result.converged).lower()} "
          f"iterations={result.iterations}", file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_DOMAIN


def _cmd_sample_size(args) -> int:
    n = bounds.sample_size_game(args.alpha, args.p, args.span, args.states,
                                list(args.actions), len(args.actions),
                                args.gamma)
    print(n)
    return EXIT_OK


def _summary_path(records_path: str) -> Path:
    path = Path(records_path)
    return path.with_name(path.stem + "_summary" + (path.suffix or ".csv"))


def _cmd_experiment(args) -> int:
    game = _load(args.game, games.parse_game)
    records = experiments.run_experiments(game, args.n, args.trials,
                                          args.seed)
    records_doc = experiments.records_csv(records)
    summary_doc = experiments.summary_csv(experiments.summarize(records))
    summary_path = _summary_path(args.out)
    try:
        Path(args.out).write_text(records_doc, encoding="utf-8")
        summary_path.write_text(summary_doc, encoding="utf-8")
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write output: {exc}") from exc
    print(f"wrote {args.out} and {summary_path}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpekit",
        description="Certify, bound, solve, and sample finite Markov games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file against the model "
                                        "invariants")
    p.add_argument("game")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("certify", help="per-player equilibrium gaps of a "
                                       "profile")
    p.add_argument("game")
    p.add_argument("profile")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bound", help="robustness bound ladder for a game pair")
    p.add_argument("game")
    p.add_argument("approx_game")
    p.add_argument("--ipm", choices=sorted(_IPM_FLAGS), required=True)
    p.add_argument("--profile", help="profile file of the approximate game, "
                   "as certify reads it; without it, the approximate game is "
                   "solved as solve does at its defaults")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("solve", help="solve a two-player game and certify "
                                     "the result")
    p.add_argument("game")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10_000,
                   help="most sweeps per value-iteration attempt (default "
                   "10000); an attempt whose values repeat bit for bit "
                   "stops there, after one more lap of the cycle; one "
                   "cut short by this budget yields only its last profile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the profile here (default: stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sample-size", help="per-pair generative samples "
                                           "sufficient for a target gap")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--span", type=float, required=True,
                   help="span of the reward function")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--actions", type=int, nargs="+", required=True,
                   help="action counts, one per player")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_sample_size)

    p = sub.add_parser("experiment", help="plug-in equilibrium experiments "
                                          "with a generative model")
    p.add_argument("game")
    p.add_argument("--n", type=int, required=True,
                   help="samples per state-action pair")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="records CSV path; the "
                   "summary lands next to it with a _summary suffix")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        print(f"error: {failure.message}", file=sys.stderr)
        return failure.code
    except ValueError as exc:
        # domain errors raised by the library surface as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

"""main's command dispatch against the full argument parser.

main hands the arguments after a command's name to that command's
subparser.  For every argument list below, exit code, standard output and
standard error must be byte for byte those of build_parser().parse_args
followed by the same body.
"""

import argparse

import pytest

import dunklcalc.cli
from dunklcalc.cli import COMMANDS, build_parser, main

SYSTEM = ["--system", "z2:d=2", "--kappa", "1,1/2"]
BODIES = {
    "apply": ["--xi", "1,0", "--poly", "x1^2*x2"],
    "laplacian": ["--route", "expr", "--poly", "x1^4 - x2^4"],
    "hobson": ["--poly", "x1^2", "--profile", "r^(-3)*exp(-1/2*r^2)"],
    "project": ["--route", "maxwell", "--poly", "x1^2*x2"],
    "decompose": ["--poly", "x1^2 + x2^2"],
    "hermite": ["--poly", "x1^2"],
    "pizzetti": ["--poly", "x1^2*x2^2"],
    "transform": ["--poly", "x1", "--y", "0.5,1"],
}

CORPUS = [
    [],
    ["--help"],
    ["-h"],
    ["frobnicate"],
    ["frobnicate", "--help"],
    ["--system", "z2:d=1"],
    ["--json", "hermite"],
    *([command, "--help"] for command in [*COMMANDS, "verify"]),
    *([command, *SYSTEM, *body] for command, body in BODIES.items()),
    *([command, *SYSTEM, *body, "--json"] for command, body in BODIES.items()),
    ["verify", "pizzetti", "--system", "z2:d=1", "--kappa", "1", "--json"],
    ["verify"],
    ["verify", "nosuch"],
    ["verify", "hobson", "--seed", "x"],
    ["verify", "hobson", "extra", "--system", "z2:d=1"],
    ["hermite", "stray", *SYSTEM, "--poly", "x1"],
    ["hermite", *SYSTEM, "--poly", "x1", "stray", "more"],
    ["hermite", *SYSTEM, "--poly", "x1", "--bogus", "1"],
    ["hermite", *SYSTEM, "--poly"],
    ["hermite", "--system"],
    ["laplacian", *SYSTEM, "--route", "nowhere", "--poly", "x1"],
    ["laplacian", *SYSTEM, "--route"],
    ["hermite", "--sys", "z2:d=1", "--kap", "1", "--pol", "x1^2"],
    ["hermite", "--system=z2:d=1", "--kappa=1", "--poly=-x1^2"],
    ["hermite", "--system", "z2:d=1", "--kappa", "1", "--poly", "-x1^2"],
    ["hermite", "--", "--system", "z2:d=1"],
    ["hermite", "-h", "--bogus"],
    ["hermite", *SYSTEM],
    ["hermite", "--kappa", "1"],
    ["apply", *SYSTEM, "--poly", "x1"],
    ["hobson", *SYSTEM, "--poly", "x1 x2", "--profile", "r^2"],
]


def run(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_dispatch_matches_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = run(argv, capsys)
    monkeypatch.setattr(dunklcalc.cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
    assert got == run(argv, capsys)


def test_the_corpus_runs_every_command_and_error_kind(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    ran = {argv[0] for argv in CORPUS if argv and run(argv, capsys)[0] == 0}
    assert ran == set(COMMANDS) | {"verify"}
    errors = [run(argv, capsys)[2] for argv in CORPUS]
    assert any("dunklcalc: error: unrecognized arguments" in err for err in errors)
    assert any("dunklcalc hermite: error: unrecognized arguments" not in err
               and "dunklcalc hermite: error:" in err for err in errors)
    assert any("invalid choice: 'nowhere'" in err for err in errors)
    assert any("expected one argument" in err for err in errors)


def test_a_command_name_skips_the_top_level_parse(capsys, monkeypatch):
    parsed = []
    parse = argparse.ArgumentParser.parse_known_args

    def recorded(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recorded)
    assert run(["hermite", *SYSTEM, *BODIES["hermite"]], capsys)[0] == 0
    assert parsed == ["dunklcalc hermite"]
    parsed.clear()
    run(["hermite", *SYSTEM, *BODIES["hermite"], "stray"], capsys)
    assert parsed == ["dunklcalc hermite", "dunklcalc", "dunklcalc hermite"]

"""The table-driven ``repro`` parser: argument snapshot and usage errors.

``data/cli_parser.json`` records every subcommand's arguments (option
strings, dest, default, required, nargs, action kind, choices) as the
hand-written parser declared them before the command table replaced it.
The table must reproduce it exactly, apart from the validations it adds
on purpose: ``--design`` choices, and the positive / comma-list types
that the usage-error tests below exercise.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import _comma_list, _positive, build_parser, main
from repro.hardware import PRIOR_DESIGNS

PARSER_SNAPSHOT = json.loads(
    (Path(__file__).parent / "data" / "cli_parser.json").read_text()
)
BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"

#: (command, dest) pairs whose choices the table added.
ADDED_CHOICES = (("fig6", "design"), ("trace", "design"))


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices


def _arguments(parser: argparse.ArgumentParser) -> dict:
    return {
        name: {
            a.dest: {
                "option_strings": list(a.option_strings),
                "default": a.default,
                "required": a.required,
                "nargs": a.nargs,
                "action": type(a).__name__,
                "choices": None if a.choices is None else list(a.choices),
            }
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, command in _subcommands(parser).items()
    }


def test_parser_matches_snapshot():
    current = json.loads(json.dumps(_arguments(build_parser())))
    for command, dest in ADDED_CHOICES:
        assert current[command][dest]["choices"] == list(PRIOR_DESIGNS)
        current[command][dest]["choices"] = None
    assert current == PARSER_SNAPSHOT


@pytest.mark.parametrize("command", sorted(PARSER_SNAPSHOT))
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: repro {command}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        # --cache-mb 0 used to mean "no cache limit" (or a zero-byte cache).
        ["bootstrap", "--config", "all", "--cache-mb", "0"],
        ["trace", "bootstrap", "--out", "t.json", "--cache-mb", "0"],
        ["profile", "bootstrap", "--cache-mb", "0"],
        ["memsim", "--cache-mb", "0"],
        ["search", "--quick", "--cache-mb", "0"],
        ["bootstrap", "--cache-mb", "-5"],
        ["bootstrap", "--cache-mb", "nan"],
        ["bootstrap", "--cache-mb", "inf"],
        ["bootstrap", "--cache-mb", "lots"],
    ],
)
def test_cache_mb_must_be_positive(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # a regression must not litter the cwd
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --cache-mb" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fig6", "--design", "NOPE"], "--design"),
        (["trace", "bootstrap", "--out", "t.json", "--design", "NOPE"],
         "--design"),
        (["fig6", "--caches", "32,abc"], "--caches"),
        (["search", "--quick", "--bandwidth", "0"], "--bandwidth"),
        (["search", "--quick", "--multipliers", "0"], "--multipliers"),
        # Each must fail before any workload runs.
        (["memsim", "--tolerance", "-1"], "--tolerance"),
        (["memsim", "--tolerance", "nan"], "--tolerance"),
        (["memsim", "--tolerance", "inf"], "--tolerance"),
        # A row count or depth below one used to slice from the end or
        # print nothing.
        (["search", "--quick", "--top", "-1"], "--top"),
        (["search", "--quick", "--top", "0"], "--top"),
        (["diff", str(BASELINES / "micro__baseline__none__nocache.json"),
          str(BASELINES / "micro__optimal__all__nocache.json"),
          "--force", "--top", "-1"], "--top"),
        (["profile", "micro", "--depth", "-1"], "--depth"),
        (["search", "--quick", "--top", "1.5"], "--top"),
        (["search", "--quick", "--top", "all"], "--top"),
        (["diff", str(BASELINES / "micro__baseline__none__nocache.json"),
          str(BASELINES / "micro__optimal__all__nocache.json"),
          "--force", "--top", "0"], "--top"),
        (["profile", "micro", "--depth", "0"], "--depth"),
        (["profile", "micro", "--depth", "1.5"], "--depth"),
    ],
)
def test_bad_input_is_a_usage_error(argv, flag, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


#: (command, argument name in argparse errors) for every argument with a
#: closed set of choices, read from the parser itself.
CLOSED_CHOICES = [
    (name, action.option_strings[0] if action.option_strings else action.dest)
    for name, command in _subcommands(build_parser()).items()
    for action in command._actions
    if action.choices is not None
]


def test_closed_choices_cover_the_shared_flags():
    flags = {flag for _, flag in CLOSED_CHOICES}
    assert {"--params", "--config", "--design", "target"} <= flags


@pytest.mark.parametrize(
    "command, argument", CLOSED_CHOICES, ids=[":".join(c) for c in CLOSED_CHOICES]
)
def test_unlisted_choice_is_a_usage_error(
    command, argument, capsys, monkeypatch, tmp_path
):
    monkeypatch.chdir(tmp_path)
    given = [argument, "nope"] if argument.startswith("-") else ["nope"]
    with pytest.raises(SystemExit) as exc:
        main([command, *given])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argument}: invalid choice: 'nope'" in err
    assert list(tmp_path.iterdir()) == []


#: The command table's argparse value types, by a short label.
ARGUMENT_TYPES = {
    "int": _positive(int),
    "float": _positive(float),
    "float-or-zero": _positive(float, allow_zero=True),
    "floats": _comma_list(float),
}


@pytest.mark.parametrize(
    "kind, text, value",
    [
        ("int", "7", 7),
        ("float", "0.5", 0.5),
        ("float", "1e3", 1000.0),
        ("float-or-zero", "0", 0.0),
        ("float-or-zero", "0.0", 0.0),
        ("floats", "32", [32.0]),
        ("floats", " 32 , 64 ,", [32.0, 64.0]),
        ("floats", "0.5,256", [0.5, 256.0]),
    ],
)
def test_argument_types_accept_in_range_values(kind, text, value):
    parsed = ARGUMENT_TYPES[kind](text)
    assert parsed == value and type(parsed) is type(value)


@pytest.mark.parametrize(
    "kind, text, reason",
    [
        ("int", "0", "must be positive, got '0'"),
        ("int", "-3", "must be positive, got '-3'"),
        ("int", "1.5", "expected int, got '1.5'"),
        ("float", "abc", "expected float, got 'abc'"),
        ("float", "nan", "must be positive, got 'nan'"),
        ("float", "1e400", "must be positive, got '1e400'"),
        ("float-or-zero", "-0.1", "must be non-negative, got '-0.1'"),
        ("float-or-zero", "-inf", "must be non-negative, got '-inf'"),
        ("floats", " , ", "no values in ' , '"),
        ("floats", "32,0", "must be positive, got '0'"),
        ("floats", "32,lots", "expected float, got 'lots'"),
    ],
)
def test_argument_types_name_the_reason(kind, text, reason):
    with pytest.raises(argparse.ArgumentTypeError) as excinfo:
        ARGUMENT_TYPES[kind](text)
    assert str(excinfo.value) == reason


@pytest.mark.parametrize(
    "argv, message",
    [
        (["top", "events.jsonl"], "invalid choice: 'top'"),
        (["dash", "events.jsonl"], "invalid choice: 'dash'"),
        (["sweep", "ablation-cache", "--quick", "--events", "events.jsonl"],
         "unrecognized arguments: --events"),
        (["serve", "mixed"], "invalid choice: 'serve'"),
        # The domain rules run as tier-1 tests (tests/test_invariants.py).
        (["lint", "src/repro"], "invalid choice: 'lint'"),
        # The sweep process pool and its resume are retired: every sweep
        # runs as one in-process pass.
        (["table5", "--quick", "--jobs", "2"], "unrecognized arguments: --jobs"),
        (["fig6", "--jobs", "2"], "unrecognized arguments: --jobs"),
        (["search", "--quick", "--jobs", "2"], "unrecognized arguments: --jobs"),
        (["memsim", "--jobs", "2"], "unrecognized arguments: --jobs"),
        (["sweep", "table5", "--quick", "--jobs", "2"],
         "unrecognized arguments: --jobs"),
        (["sweep", "table5", "--quick", "--resume", "sweep_report.json"],
         "unrecognized arguments: --resume"),
        # NTT parity is a tier-1 test (tests/kernels/test_ntt_differential.py)
        # and its speedup gate a benchmark (benchmarks/test_ntt_speedup.py).
        (["kernels", "--parity-only"], "invalid choice: 'kernels'"),
        # Costs are exact integers: bench gates them with no slack.
        (["bench", "--check", "--rel-tol", "0.05"],
         "unrecognized arguments: --rel-tol"),
        (["bench", "--check", "--abs-tol", "1024"],
         "unrecognized arguments: --abs-tol"),
    ],
)
def test_retired_commands_and_flags_are_usage_errors(
    argv, message, capsys, monkeypatch, tmp_path
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # nothing ran, nothing written


def test_comma_lists_parse_to_values():
    args = build_parser().parse_args(["fig6", "--caches", "32, 64,"])
    assert args.caches == [32.0, 64.0]


def test_zero_is_allowed_where_it_is_meaningful():
    args = build_parser().parse_args(["memsim", "--tolerance", "0"])
    assert args.tolerance == 0.0

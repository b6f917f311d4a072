"""The command line is read from one command table.  `_match` reads a
canonical command line (exact words and flags, each value a token of its
own) straight off the table; every other one, help and usage errors
included, goes to the argparse parser `build_parser` makes from the same
table.  Both must agree with the parser written out by hand below, kept as
the oracle: `_match` returns its arguments or declines, and `main` prints
its help texts and usage errors and exits with its codes."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tiltkit import cli
from tiltkit.cli import (
    ENV_WORKSPACE,
    _match,
    build_parser,
    cmd_algebra_build,
    cmd_algebra_info,
    cmd_apr,
    cmd_glue,
    cmd_invariants_compare,
    cmd_module_check,
    cmd_recollement_verify,
    cmd_tilting_check,
    main,
)
from tiltkit.formats import algebra_input_to_json

from conftest import loop_pair_presentation


def eager_build_parser():
    p = argparse.ArgumentParser(prog="tiltkit",
                                description="exact tilting/derived-equivalence "
                                            "certificates for quiver algebras")
    p.add_argument("--workspace", default=None, help="workspace root "
                   f"(default ${ENV_WORKSPACE} or .tiltkit)")
    p.add_argument("--field", default=None, help="field override: Q (default)")
    sub = p.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="build or inspect algebras")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    ab = alg_sub.add_parser("build")
    ab.add_argument("input")
    ab.set_defaults(func=cmd_algebra_build)
    ai = alg_sub.add_parser("info")
    ai.add_argument("input")
    ai.set_defaults(func=cmd_algebra_info)

    mod = sub.add_parser("module", help="validate module files")
    mod_sub = mod.add_subparsers(dest="subcommand", required=True)
    mc = mod_sub.add_parser("check")
    mc.add_argument("algebra")
    mc.add_argument("module")
    mc.set_defaults(func=cmd_module_check)

    apr = sub.add_parser("apr", help="generalized APR tilting certificate")
    apr.add_argument("algebra")
    apr.add_argument("--e", required=True, help="comma-separated idempotents of e_B")
    apr.add_argument("--bound", type=int, default=12)
    apr.add_argument("--force", action="store_true",
                     help="build T even when the preconditions fail")
    apr.add_argument("--out", default=None)
    apr.set_defaults(func=cmd_apr)

    tc = sub.add_parser("tilting-check", help="three-condition tilting report")
    tc.add_argument("algebra")
    tc.add_argument("module")
    tc.add_argument("--bound", type=int, default=12)
    tc.add_argument("--out", default=None)
    tc.set_defaults(func=cmd_tilting_check)

    gl = sub.add_parser("glue", help="glued tilting certificates")
    gl.add_argument("algebra")
    gl.add_argument("--e", required=True)
    gl.add_argument("--mode", choices=["jshriek", "jstar", "stalk"], required=True)
    gl.add_argument("-Y", dest="y", default=None, help="complex over the corner C")
    gl.add_argument("-Z", dest="z", default=None, help="complex over the corner B")
    gl.add_argument("-T", dest="t", default=None, help="module over C (stalk mode)")
    gl.add_argument("--shift", type=int, default=1)
    gl.add_argument("--bound", type=int, default=12)
    gl.add_argument("--out", default=None)
    gl.set_defaults(func=cmd_glue)

    rec = sub.add_parser("recollement", help="six-functor verification")
    rec_sub = rec.add_subparsers(dest="subcommand", required=True)
    rv = rec_sub.add_parser("verify")
    rv.add_argument("algebra")
    rv.add_argument("corpus")
    rv.add_argument("--e", required=True)
    rv.add_argument("--out", default=None)
    rv.set_defaults(func=cmd_recollement_verify)

    inv = sub.add_parser("invariants", help="derived-invariant comparison")
    inv_sub = inv.add_subparsers(dest="subcommand", required=True)
    ic = inv_sub.add_parser("compare")
    ic.add_argument("algebra")
    ic.add_argument("other")
    ic.set_defaults(func=cmd_invariants_compare)
    return p


def captured(call, argv):
    """(result or exit code, stdout, stderr) of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def outcome(parser, argv):
    """(parsed arguments or exit code, stdout, stderr) of one parse."""
    result, out, err = captured(parser.parse_args, argv)
    return vars(result) if isinstance(result, argparse.Namespace) else result, out, err


HELP = [["--help"], ["-h"]] + [[c, "--help"] for c in (
    "algebra", "module", "apr", "tilting-check", "glue", "recollement", "invariants")] + [
    ["algebra", "build", "--help"], ["algebra", "info", "-h"], ["module", "check", "--help"],
    ["recollement", "verify", "--help"], ["invariants", "compare", "--help"]]

USAGE_ERRORS = [
    [], ["bogus"], ["--field"], ["--workspace"], ["algebra"], ["algebra", "bogus"],
    ["algebra", "build"], ["algebra", "info", "a", "b"], ["module", "check", "a"],
    ["apr"], ["apr", "a"], ["apr", "a", "--e"], ["apr", "a", "--e", "x", "--bound", "two"],
    ["apr", "a", "--e", "x", "--extra"], ["apr", "a", "--e", "x", "--field", "F2"],
    ["tilting-check", "a"], ["glue", "a", "--e", "x"],
    ["glue", "a", "--e", "x", "--mode", "bogus"], ["glue", "a", "--mode", "stalk"],
    ["recollement"], ["recollement", "verify", "a", "c"], ["invariants", "compare", "a"],
    ["--field", "F2", "algebra", "info"],
]

PARSED = [
    ["algebra", "build", "a.json"], ["--field", "F2", "algebra", "info", "a.json"],
    ["--workspace", "ws", "module", "check", "a.json", "m.json"],
    ["apr", "a.json", "--e", "x"], ["apr", "a.json", "--e", "x,y", "--bound", "5", "--force",
                                    "--out", "o.json"],
    ["tilting-check", "a.json", "m.json", "--bound", "3"],
    ["glue", "a.json", "--e", "x", "--mode", "stalk", "-T", "t.json", "--shift", "2"],
    ["glue", "a.json", "--e", "x", "--mode", "jshriek", "-Y", "y.json", "-Z", "z.json"],
    ["recollement", "verify", "a.json", "corpus", "--e", "x", "--out", "r.json"],
    ["--field=F101", "invariants", "compare", "a.json", "b.json"],
]


@pytest.mark.parametrize("argv", HELP + USAGE_ERRORS + PARSED, ids=" ".join)
def test_parser_matches_the_eager_oracle(argv):
    want = outcome(eager_build_parser(), argv)
    assert outcome(build_parser(), argv) == want
    if argv in HELP:
        assert want[0] == 0 and want[1]
    elif argv in USAGE_ERRORS:
        assert want[0] == 2 and want[2]


def assert_match_agrees(oracle, argv):
    """_match declines argv, or returns the oracle's arguments; it prints
    nothing either way.  True when it did not decline."""
    ns, out, err = captured(_match, argv)
    assert (out, err) == ("", "")
    if ns is not None:
        assert vars(ns) == outcome(oracle, argv)[0]
    return ns is not None


@pytest.mark.parametrize("argv", HELP + USAGE_ERRORS + PARSED, ids=" ".join)
def test_matcher_returns_the_oracles_arguments_or_declines(argv):
    accepted = assert_match_agrees(eager_build_parser(), argv)
    assert not (accepted and argv in HELP + USAGE_ERRORS)


# one command line of each shape the benchmark issues
BENCHMARK_SHAPES = [
    ["apr", "lp33.json", "--e", "x", "--out", "apr.json"],
    ["tilting-check", "lp32.json", "tilt-module.json", "--out", "report.json"],
    ["glue", "lp33.json", "--e", "x", "--mode", "jshriek", "--out", "glue.json"],
    ["glue", "lp22.json", "--e", "x", "--mode", "stalk", "-T", "T2.json", "--shift", "1",
     "--out", "glue.json"],
    ["glue", "lp12.json", "--e", "x", "--mode", "jstar", "--out", "glue.json"],
    ["algebra", "info", "lp65.json"],
    ["recollement", "verify", "lp65.json", "corpus-lp65", "--e", "x", "--out", "rec.json"],
    ["recollement", "verify", "a3.json", "corpus-a3", "--e", "u,v", "--out", "rec.json"],
    ["invariants", "compare", "lp65.json", "renamed.json"],
]


@pytest.mark.parametrize("argv", [argv for argv in PARSED if not any("=" in a for a in argv)]
                         + BENCHMARK_SHAPES, ids=" ".join)
def test_matcher_reads_canonical_command_lines(argv):
    assert assert_match_agrees(eager_build_parser(), argv)


# command words: (positional count, {flag: its values, or None for a flag
# that takes none})
PATHS, INTS = ["a.json", "b.json", "apr", "glue"], ["5", "0", " 3", "two", "-1", "2.5"]
SHAPES = {
    ("algebra", "build"): (1, {}),
    ("algebra", "info"): (1, {}),
    ("module", "check"): (2, {}),
    ("apr",): (1, {"--e": ["x", "x,y"], "--bound": INTS, "--force": None, "--out": PATHS}),
    ("tilting-check",): (2, {"--bound": INTS, "--out": PATHS}),
    ("glue",): (1, {"--e": ["x"], "--mode": ["jshriek", "jstar", "stalk", "bogus"],
                    "-Y": PATHS, "-Z": PATHS, "-T": PATHS, "--shift": INTS, "--bound": INTS,
                    "--out": PATHS}),
    ("recollement", "verify"): (2, {"--e": ["x", "u,v"], "--out": PATHS}),
    ("invariants", "compare"): (2, {}),
}
NOISE = ["-h", "--help", "--e=x", "--", "-", "-1", "--fo", "--extra", "--field", "--workspace",
         "bogus", "", "two", "a b", "algebra", "info"]


def random_argv(rng):
    """A command line near canonical form: global options, command words,
    about the right number of positionals and a random choice of flags,
    with now and then a token from NOISE put in or a token dropped."""
    argv = []
    for flag in ("--workspace", "--field"):
        if rng.random() < 0.3:
            argv += [flag, rng.choice(["ws", "F2", "Q", "-1", "info"])]
    words = rng.choice(sorted(SHAPES))
    count, flags = SHAPES[words]
    pieces = [[rng.choice(PATHS)] for _ in range(max(0, count + rng.choice([-1, 0, 0, 0, 1])))]
    for flag, values in flags.items():
        if rng.random() < 0.6:
            pieces.append([flag] if values is None else [flag, rng.choice(values)])
    rng.shuffle(pieces)
    argv += list(words) + [token for piece in pieces for token in piece]
    if rng.random() < 0.3:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(NOISE))
    if rng.random() < 0.1:
        del argv[rng.randrange(len(argv))]
    return argv


def test_matcher_agrees_with_the_oracle_on_random_command_lines():
    oracle, rng = eager_build_parser(), random.Random(20241)
    accepted = sum(assert_match_agrees(oracle, random_argv(rng)) for _ in range(2500))
    # the lines are near canonical, so a good share must take the matcher
    assert accepted >= 500


@pytest.mark.parametrize("argv", HELP + USAGE_ERRORS, ids=" ".join)
def test_main_prints_the_oracles_help_and_usage_errors(argv):
    assert captured(main, argv) == outcome(eager_build_parser(), argv)


# the add_argument keywords _match reads; a command table entry with any
# other (nargs, say) would be misread, so it must fail here first
MATCHER_KEYWORDS = {"dest", "type", "default", "required", "choices", "action", "help"}


def test_command_table_uses_only_keywords_the_matcher_reads():
    arguments = list(cli._OPTIONS)
    for _, _, command in cli._COMMANDS:
        for _, args in ([(func, args) for _, func, args in command]
                        if isinstance(command, list) else [command]):
            arguments += [arg for arg in args if not isinstance(arg, str)]
            assert all(not arg.startswith("-") for arg in args if isinstance(arg, str))
    for flag, kwargs in arguments:
        assert flag.startswith("-")
        assert set(kwargs) <= MATCHER_KEYWORDS, (flag, kwargs)
        assert kwargs.get("action", "store_true") == "store_true", (flag, kwargs)


def test_canonical_command_line_does_not_import_argparse(tmp_path):
    # nor the modules of the rare paths: traceback (an internal error) and
    # hashlib (storing an artifact, which only `algebra build` does)
    (tmp_path / "lp22.json").write_text(
        json.dumps(algebra_input_to_json(loop_pair_presentation(2, 2))), encoding="utf-8")
    code = ("import sys\n"
            "from tiltkit.cli import main\n"
            "assert main(['--workspace', 'ws', 'algebra', 'info', 'lp22.json']) == 0\n"
            "assert main(['--workspace', 'ws', 'algebra', 'info', 'missing.json']) == 2\n"
            "print([m for m in ('argparse', 'traceback', 'hashlib') if m in sys.modules])\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"
    assert "missing.json" in run.stderr

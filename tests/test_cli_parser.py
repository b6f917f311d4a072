"""The subcommand parser adds the arguments of the chosen subcommand only.
Its help texts, usage errors and parsed arguments must be those of the
parser that built every subcommand up front, kept here as the oracle."""

import argparse
import contextlib
import io

import pytest

from tiltkit.cli import (
    ENV_WORKSPACE,
    build_parser,
    cmd_algebra_build,
    cmd_algebra_info,
    cmd_apr,
    cmd_glue,
    cmd_invariants_compare,
    cmd_module_check,
    cmd_recollement_verify,
    cmd_tilting_check,
)


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


def outcome(parser, argv):
    """(parsed arguments or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


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


def test_parser_builds_the_chosen_subcommand_only():
    parser = build_parser()
    parser.parse_args(["apr", "a.json", "--e", "x"])
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.pending) == ["algebra", "glue", "invariants", "module", "recollement",
                                   "tilting-check"]
    # the apr parser keeps its arguments for a second parse
    assert vars(parser.parse_args(["apr", "b.json", "--e", "y"]))["algebra"] == "b.json"

"""Command-line front end.

Subcommands: algebra build|info, module check, apr, tilting-check, glue,
recollement verify, invariants compare.  Exit codes: 0 when the certificate
or report is valid; 1 when it is INVALID, a precondition fails or a
construction is refused; 2 for a reported error (bad input, field or
option) or a usage error; 3 for an internal error, an unexpected exception.
Artifacts are canonical JSON (sorted keys, exact rationals, no timestamps),
cached in a content-addressed workspace with atomic write-then-rename.

The commands and their arguments are one table, `_COMMANDS`, written in
argparse's keywords.  `_match` reads a command line in canonical form (exact
command words and flags, each value a token of its own) straight off that
table.  Any other command line, such as a request for help, a usage error,
an abbreviated flag or --flag=value, goes to the argparse parser that
`build_parser` makes from the same table; it writes every help text and
usage error, and argparse is imported only then.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from .algebra import AlgebraError, detect_triangular
from .certs import invariants_compare
from .complexes import stalk_complex
from .formats import (
    FormatError,
    SizeLimitError,
    algebra_input_to_json,
    canonical_json,
    certificate_to_json,
    jsonable,
    parse_algebra_input,
    parse_complex,
    parse_field,
    parse_module,
)
from .glue import (
    GlueRefusal,
    glue_jshriek,
    glue_jstar,
    shifted_stalk_glue,
)
from .linalg import LinalgError
from .modules import ModuleError, regular_module, simple_module, tilting_module_check
from .recollement import (
    IdempotentRecollement,
    functor_criteria_check,
    torsion_canonical_sequence,
    verify_recollement_axioms,
)
from .translate import AprPreconditionError, apr_equivalent_algebra, build_apr_tilting
from .algebra import build_fd_algebra

ENV_WORKSPACE = "TILTKIT_WORKSPACE"


class CliError(Exception):
    pass


def workspace_root(args) -> Path:
    root = args.workspace or os.environ.get(ENV_WORKSPACE) or ".tiltkit"
    return Path(root)


def atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def store_artifact(root: Path, doc) -> Path:
    import hashlib      # here, as only `algebra build` stores an artifact
    text = canonical_json(doc)
    digest = hashlib.sha256(text.encode()).hexdigest()
    path = root / "objects" / f"{digest}.json"
    if not path.exists():
        atomic_write(path, text)
    return path


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise CliError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}")
    except UnicodeDecodeError as err:
        raise CliError(f"{path}: not UTF-8 text: byte {err.object[err.start]:#04x} "
                       f"at offset {err.start}")
    except ValueError as err:   # a number json cannot convert, such as a very long int
        raise CliError(f"{path}: {err}")
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply") from None
    except OSError as err:
        raise CliError(f"{path}: {err}")


def field_from_flag(flag):
    """--field Q keeps the rationals; --field F<p> switches to a prime field."""
    if flag is None:
        return None
    if flag == "Q":
        return parse_field("Q")
    if flag.startswith("F") and flag[1:].isdecimal():
        try:
            p = int(flag[1:])
        except ValueError:   # more digits than int() converts
            raise CliError(f"field flag F<p> with {len(flag) - 1} digits: "
                           "the characteristic must be below 2^31") from None
        return parse_field({"p": p})
    raise CliError(f"unknown field flag {flag!r}; use Q or F<p>")


def load_algebra(path, field_flag):
    doc = load_json(path)
    if isinstance(doc, dict) and doc.get("kind") == "algebra":
        if "input" not in doc:
            raise FormatError('algebra schema violation: an "algebra" artifact has no "input"')
        doc = doc["input"]
    pres = parse_algebra_input(doc, field_override=field_from_flag(field_flag))
    return build_fd_algebra(pres), pres


def parse_idempotent_subset(a, spec) -> list:
    """The idempotent indices named in `spec`, by name or by an index in
    ASCII digits, sorted; a subset that is empty or holds every idempotent
    is refused, and then one that names an idempotent twice."""
    out, pieces = [], []
    names = {n: i for i, n in enumerate(a.idempotent_names)}
    for piece in spec.split(","):
        piece = piece.strip()
        if piece in names:
            out.append(names[piece])
        elif piece.isascii() and piece.isdigit() and int(piece) < a.idempotent_count:
            out.append(int(piece))
        else:
            raise CliError(f"unknown idempotent {piece!r}; have {list(names)}")
        pieces.append(piece)
    subset = sorted(set(out))
    if not subset or len(subset) == a.idempotent_count:
        raise CliError("idempotent subset must be proper and nonempty")
    for k, i in enumerate(out):
        if i in out[:k]:
            raise CliError(f"idempotent {pieces[k]!r} named twice")
    return subset


def emit(args, doc, default_name):
    root = workspace_root(args)
    out = getattr(args, "out", None)
    text = canonical_json(doc)
    if out:
        atomic_write(Path(out), text)
        return Path(out)
    path = root / default_name
    atomic_write(path, text)
    return path


# -- subcommands ------------------------------------------------------------------------


def cmd_algebra_build(args):
    a, pres = load_algebra(args.input, args.field)
    doc = {
        "kind": "algebra",
        "input": algebra_input_to_json(pres),
        "summary": {
            "dimension": a.dim,
            "corner_dims": [[a.block_dim(i, j) for j in range(a.idempotent_count)]
                            for i in range(a.idempotent_count)],
            "bound_truncates": a.bound_truncates,
        },
    }
    entries, det = a.cartan_matrix()
    doc["summary"]["cartan"] = entries
    doc["summary"]["cartan_det"] = det
    path = store_artifact(workspace_root(args), doc)
    print(f"dimension {a.dim}")
    print(f"corner dims {doc['summary']['corner_dims']}")
    print(f"cartan {entries} det {det}")
    print(f"artifact {path}")
    return 0


def cmd_algebra_info(args):
    a, _ = load_algebra(args.input, args.field)
    print(f"dimension {a.dim}")
    print(f"idempotents {a.idempotent_names}")
    print(f"radical dim {a.radical_dim()}")
    entries, det = a.cartan_matrix()
    print(f"cartan {entries} det {det}")
    print(f"center dim {a.center_dimension()}")
    return 0


def cmd_module_check(args):
    a, _ = load_algebra(args.algebra, args.field)
    try:
        mod = parse_module(load_json(args.module), a)
    except (ModuleError, FormatError) as err:
        print(f"INVALID: {err}")
        return 1
    print(f"valid module with dims {dict(zip(a.idempotent_names, mod.dims))}")
    return 0


def cmd_apr(args):
    a, _ = load_algebra(args.algebra, args.field)
    subset = parse_idempotent_subset(a, args.e)
    pres = detect_triangular(a, subset)
    if pres is None:
        print("INVALID: the chosen idempotent set has a nonzero corner e*A*f")
        return 1
    try:
        data = build_apr_tilting(pres, enforce=not args.force, bound=args.bound)
    except AprPreconditionError as err:
        print(f"precondition failure: {err}")
        return 1
    cert = apr_equivalent_algebra(data)
    doc = certificate_to_json(cert)
    path = emit(args, doc, "apr-certificate.json")
    print(f"verdict {cert.verdict}")
    for c in cert.conditions:
        print(f"  {c.id}: {c.verdict}")
    print(f"certificate {path}")
    return 0 if cert.verdict == "VALID" else 1


def cmd_tilting_check(args):
    a, _ = load_algebra(args.algebra, args.field)
    mod = parse_module(load_json(args.module), a)
    rep = tilting_module_check(mod, bound=args.bound)
    doc = {
        "kind": "tilting-report",
        "pd": jsonable(rep.pd),
        "ext_table": {str(k): v for k, v in rep.ext_table.items()},
        "coresolution": rep.coresolution_lengths,
        "failure_stage": rep.failure_stage,
        "verdict": jsonable(rep.verdict),
        "notes": rep.notes,
    }
    path = emit(args, doc, "tilting-report.json")
    print(f"verdict {rep.verdict} (pd {rep.pd})")
    print(f"report {path}")
    return 0 if rep.verdict is True else 1


def cmd_glue(args):
    a, _ = load_algebra(args.algebra, args.field)
    subset = parse_idempotent_subset(a, args.e)
    pres = detect_triangular(a, subset)
    if pres is None:
        print("INVALID: the chosen idempotent set has a nonzero corner e*A*f")
        return 1
    try:
        if args.mode == "stalk":
            if not args.t:
                raise CliError("--mode stalk needs -T MODULE (over the corner C)")
            t_mod = parse_module(load_json(args.t), pres.algebra_c)
            cert = shifted_stalk_glue(pres, t_mod, args.shift, bound=args.bound)
        else:
            y = parse_complex(load_json(args.y), pres.algebra_c,
                              lambda m: parse_module(m, pres.algebra_c)) \
                if args.y else stalk_complex(regular_module(pres.algebra_c), 0)
            z = parse_complex(load_json(args.z), pres.algebra_b,
                              lambda m: parse_module(m, pres.algebra_b)) \
                if args.z else stalk_complex(regular_module(pres.algebra_b), 0)
            cert = glue_jshriek(pres, y, z, bound=args.bound) if args.mode == "jshriek" \
                else glue_jstar(pres, y, z, bound=args.bound)
    except GlueRefusal as err:
        print(f"refused: {err}")
        return 1
    doc = certificate_to_json(cert)
    path = emit(args, doc, "glue-certificate.json")
    print(f"verdict {cert.verdict}")
    for c in cert.conditions:
        print(f"  {c.id}: {c.verdict}" + (f" window {c.window}" if c.window else ""))
    print(f"certificate {path}")
    return 0 if cert.verdict == "VALID" else 1


def cmd_recollement_verify(args):
    a, _ = load_algebra(args.algebra, args.field)
    subset = parse_idempotent_subset(a, args.e)
    corpus = []
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        raise CliError(f"{corpus_dir}: not a directory")
    files = sorted(corpus_dir.glob("*.json"))
    witnesses = []
    for fp in files:
        try:
            corpus.append(parse_module(load_json(fp), a))
        except (ModuleError, FormatError) as err:
            witnesses.append({"file": fp.name, "error": str(err)})
    if not corpus:
        corpus = [regular_module(a)] + \
            [m for m in (simple_module(a, i) for i in range(a.idempotent_count))
             if not m.is_zero()]
    rec = IdempotentRecollement(a, subset)
    report = verify_recollement_axioms(rec, corpus)
    crit = functor_criteria_check(a, subset)
    torsion_rows = []
    pres = detect_triangular(a, subset)
    if pres is not None:
        for mod in corpus:
            wit = torsion_canonical_sequence(pres, mod)
            torsion_rows.append({
                "dims": list(mod.dims),
                "torsion_dim": wit.torsion.total_dim,
                "free_dim": wit.torsion_free.total_dim,
                "exact": wit.exact,
                "hom_vanishes": wit.hom_vanishes,
            })
    doc = {
        "kind": "recollement-report",
        "axioms_ok": report.ok,
        "axiom_failures": [jsonable(vars(c)) for c in report.failures()],
        "corrupted_modules": witnesses,
        "functor_criteria": {
            "quotient_preserves_projectives": jsonable(crit.quotient_preserves_projectives),
            "quotient_projective_over_ambient": jsonable(crit.quotient_projective_over_ambient),
            "complement_quotient_exact": jsonable(crit.complement_quotient_exact),
            "corner_tensor_faithful_dims": jsonable(crit.corner_tensor_faithful_dims),
            "corner_vanishes": crit.corner_vanishes,
            "all_four_iff_corner": crit.all_four == crit.corner_vanishes,
        },
        "torsion": torsion_rows,
    }
    path = emit(args, doc, "recollement-report.json")
    ok = report.ok and not witnesses and (crit.all_four == crit.corner_vanishes)
    print(f"axioms {'ok' if report.ok else 'FAILED'}; "
          f"criteria consistent: {crit.all_four == crit.corner_vanishes}")
    print(f"report {path}")
    return 0 if ok else 1


def cmd_invariants_compare(args):
    a, _ = load_algebra(args.algebra, args.field)
    b, _ = load_algebra(args.other, args.field)
    inv = invariants_compare(a, b)
    for name, (x, y) in inv.values.items():
        print(f"{name}: {x} vs {y} {'==' if x == y else '!='}")
    return 0 if inv.all_equal else 1


_BOUND = ("--bound", {"type": int, "default": 12})
_E = ("--e", {"required": True})
_OUT = ("--out", {"default": None})

# The command table, in argparse's keywords, read by `_match` and by
# `build_parser`.  _OPTIONS come before the command word.  A command is
# (name, help, arguments): the arguments of a command are (function,
# [positional name or (flag, add_argument keywords)]), those of a command
# with subcommands [(name, function, arguments)].
_OPTIONS = [
    ("--workspace", {"default": None,
                     "help": f"workspace root (default ${ENV_WORKSPACE} or .tiltkit)"}),
    ("--field", {"default": None, "help": "field override: Q (default)"}),
]
_COMMANDS = [
    ("algebra", "build or inspect algebras",
     [("build", cmd_algebra_build, ["input"]), ("info", cmd_algebra_info, ["input"])]),
    ("module", "validate module files", [("check", cmd_module_check, ["algebra", "module"])]),
    ("apr", "generalized APR tilting certificate", (cmd_apr, [
        "algebra", ("--e", {"required": True, "help": "comma-separated idempotents of e_B"}),
        _BOUND, ("--force", {"action": "store_true",
                             "help": "build T even when the preconditions fail"}), _OUT])),
    ("tilting-check", "three-condition tilting report",
     (cmd_tilting_check, ["algebra", "module", _BOUND, _OUT])),
    ("glue", "glued tilting certificates", (cmd_glue, [
        "algebra", _E,
        ("--mode", {"choices": ["jshriek", "jstar", "stalk"], "required": True}),
        ("-Y", {"dest": "y", "default": None, "help": "complex over the corner C"}),
        ("-Z", {"dest": "z", "default": None, "help": "complex over the corner B"}),
        ("-T", {"dest": "t", "default": None, "help": "module over C (stalk mode)"}),
        ("--shift", {"type": int, "default": 1}), _BOUND, _OUT])),
    ("recollement", "six-functor verification",
     [("verify", cmd_recollement_verify, ["algebra", "corpus", _E, _OUT])]),
    ("invariants", "derived-invariant comparison",
     [("compare", cmd_invariants_compare, ["algebra", "other"])]),
]


def _dest(flag, kwargs):
    return kwargs.get("dest", flag.lstrip("-").replace("-", "_"))


def _read_flag(argv, i, kwargs, ns):
    """Store the flag argv[i] and its value in `ns`; the index after them,
    or None when argparse must read the command line."""
    if kwargs.get("action") == "store_true":
        ns[_dest(argv[i], kwargs)] = True
        return i + 1
    if i + 1 == len(argv) or argv[i + 1].startswith("-"):
        return None
    value = argv[i + 1]
    if "type" in kwargs:
        try:
            value = kwargs["type"](value)
        except ValueError:
            return None
    if "choices" in kwargs and value not in kwargs["choices"]:
        return None
    ns[_dest(argv[i], kwargs)] = value
    return i + 2


def _match(argv):
    """The namespace build_parser().parse_args(argv) returns, read off the
    command table, when argv is in canonical form: exact command words and
    flags, each value a token of its own that does not start with -, and
    --workspace and --field before the command word.  None for any other
    argv, such as help, a usage error, an abbreviation or --flag=value,
    which argparse then reads.  Prints nothing."""
    ns = {_dest(flag, kwargs): kwargs["default"] for flag, kwargs in _OPTIONS}
    options, i = dict(_OPTIONS), 0
    while i < len(argv) and argv[i] in options:
        i = _read_flag(argv, i, options[argv[i]], ns)
        if i is None:
            return None
    commands = {name: arguments for name, _, arguments in _COMMANDS}
    if i == len(argv) or argv[i] not in commands:
        return None
    ns["command"], arguments = argv[i], commands[argv[i]]
    i += 1
    if isinstance(arguments, list):
        subcommands = {name: (func, args) for name, func, args in arguments}
        if i == len(argv) or argv[i] not in subcommands:
            return None
        ns["subcommand"], arguments = argv[i], subcommands[argv[i]]
        i += 1
    func, args = arguments
    names = [arg for arg in args if isinstance(arg, str)]
    flags = dict(arg for arg in args if not isinstance(arg, str))
    for flag, kwargs in flags.items():
        ns[_dest(flag, kwargs)] = False if kwargs.get("action") == "store_true" \
            else kwargs.get("default")
    seen, values = set(), []
    while i < len(argv):
        token = argv[i]
        if token in flags:
            seen.add(token)
            i = _read_flag(argv, i, flags[token], ns)
            if i is None:
                return None
        elif token.startswith("-"):
            return None
        else:
            values.append(token)
            i += 1
    if len(values) != len(names) or any(
            kwargs.get("required") and flag not in seen for flag, kwargs in flags.items()):
        return None
    ns.update(zip(names, values), func=func)
    return SimpleNamespace(**ns)


def _add_arguments(parser, arguments):
    """Add a command's arguments, in the form of the command table."""
    if isinstance(arguments, list):
        sub = parser.add_subparsers(dest="subcommand", required=True)
        for name, func, args in arguments:
            _add_arguments(sub.add_parser(name), (func, args))
        return
    func, args = arguments
    for arg in args:
        flag, kwargs = (arg, {}) if isinstance(arg, str) else arg
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=func)


def build_parser():
    """The argparse parser of the command table: it writes the help texts
    and usage errors, and reads the command lines `_match` declines."""
    import argparse

    p = argparse.ArgumentParser(prog="tiltkit",
                                description="exact tilting/derived-equivalence "
                                            "certificates for quiver algebras")
    for flag, kwargs in _OPTIONS:
        p.add_argument(flag, **kwargs)
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, arguments in _COMMANDS:
        _add_arguments(sub.add_parser(name, help=help_text), arguments)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _match(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        # looked up by name when the command runs, so that a wrapper or
        # patch on the module's command function applies
        code = globals()[args.func.__name__](args)
        sys.stdout.flush()      # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: the rest of the output, and the
        # interpreter's flush at exit, go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the output ended", file=sys.stderr)
        return 2
    except (CliError, FormatError, AlgebraError, ModuleError, LinalgError, SizeLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        import traceback    # here, as only an internal error prints one
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

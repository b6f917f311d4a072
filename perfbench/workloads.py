"""The benchmark's workloads: CLI operations over generated inputs.

Each workload is a fixed list of `tiltkit` command lines.  The seed and
the pass number pick the change of basis applied to every generated module
(never its isomorphism class) and the order in which the operations run.  Every
operation has an id; its expected exit code, first stdout line and output
digest are recorded in expected.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import inputs


@dataclass
class Op:
    id: str
    argv: list
    out: Path | None = None     # the certificate or report the command writes
    largest: bool = False       # the workload's largest instance


def _algebra(work: Path, a, b, names=None) -> str:
    tag = "r" if names else ""
    path = work / f"lp{a}{b}{tag}.json"
    if not path.exists():
        args = (a, b, names) if names else (a, b)
        inputs.write_json(path, inputs.loop_pair_doc(*args))
    return str(path)


def _cert(work: Path, op_id: str, argv: list, largest=False) -> Op:
    out = work / "out" / f"{op_id}.json"
    return Op(op_id, argv + ["--out", str(out)], out, largest)


def _loop_corpus(work: Path, name, rng, modules) -> str:
    path = work / name
    for i, pieces in enumerate(modules):
        inputs.write_json(path / f"m{i}.json", inputs.loop_pair_module_doc(pieces, rng))
    return str(path)


def apr_ladder(work: Path, rng) -> list:
    ops = [_cert(work, f"apr-lp{a}{b}", ["apr", _algebra(work, a, b), "--e", "x"],
                 largest=(a, b) == (3, 3))
           for a, b in ((2, 2), (3, 2), (3, 3))]
    # fails its precondition: M has no free C-summand
    ops.append(_cert(work, "apr-lp12-refused", ["apr", _algebra(work, 1, 2), "--e", "x"]))
    # infinite projective dimension, so not tilting
    mod = work / "tilt-module.json"
    inputs.write_json(mod, inputs.loop_pair_module_doc([(3, 2), (1, 0)], rng))
    ops.append(_cert(work, "tilting-check-lp32",
                     ["tilting-check", _algebra(work, 3, 2), str(mod)]))
    return ops


def glue_homotopy(work: Path, rng) -> list:
    ops = [_cert(work, "jshriek-lp33",
                 ["glue", _algebra(work, 3, 3), "--e", "x", "--mode", "jshriek"],
                 largest=True)]
    for a, b in ((2, 2), (3, 2)):
        alg = _algebra(work, a, b)
        ops.append(_cert(work, f"jshriek-lp{a}{b}",
                         ["glue", alg, "--e", "x", "--mode", "jshriek"]))
        # T = the regular module of the corner C = k[t]/t^b; the certificate
        # embeds End(T) in T's own basis, so T is not conjugated
        t_mod = work / f"T{b}.json"
        inputs.write_json(t_mod, inputs.loop_pair_module_doc([(0, b)]))
        ops.append(_cert(work, f"stalk-lp{a}{b}",
                         ["glue", alg, "--e", "x", "--mode", "stalk", "-T", str(t_mod),
                          "--shift", "1"]))
    # refused: pd of M over C is infinite
    ops.append(_cert(work, "jstar-lp12-refused",
                     ["glue", _algebra(work, 1, 2), "--e", "x", "--mode", "jstar"]))
    return ops


def recollement_large(work: Path, rng) -> list:
    lp65, lp86 = _algebra(work, 6, 5), _algebra(work, 8, 6)
    renamed = _algebra(work, 6, 5, names=("p", "q", "s", "g", "r"))
    a3 = work / "a3.json"
    inputs.write_json(a3, inputs.a3_zero_relation_doc())
    a3_corpus = work / "corpus-a3"
    for i, dims in enumerate([(1, 1, 1, 1, 1), (2, 0, 0, 1, 1)]):
        inputs.write_json(a3_corpus / f"m{i}.json", inputs.a3_module_doc(dims, rng))
    return [
        Op("info-lp65", ["algebra", "info", lp65]),
        Op("info-lp86", ["algebra", "info", lp86], largest=True),
        _cert(work, "verify-lp65",
              ["recollement", "verify", lp65,
               _loop_corpus(work, "corpus-lp65", rng, [[(4, 3)], [(0, 2)]]),
               "--e", "x"]),
        Op("compare-lp65-renamed", ["invariants", "compare", lp65, renamed]),
        _cert(work, "verify-a3",
              ["recollement", "verify", str(a3), str(a3_corpus), "--e", "u,v"]),
    ]


WORKLOADS = {
    "apr-ladder": apr_ladder,
    "glue-homotopy": glue_homotopy,
    "recollement-large": recollement_large,
}


def build(name: str, seed: int, work: Path, pass_no: int = 0) -> list:
    """The workload's operations over inputs written into `work`, with the
    module bases and the order that the seed and the pass number pick."""
    rng = random.Random(f"{name}:{seed}:{pass_no}")
    ops = WORKLOADS[name](work, rng)
    rng.shuffle(ops)
    return ops

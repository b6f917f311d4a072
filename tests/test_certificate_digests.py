"""Byte-identity pins for the CLI's certificates and reports.

Each case runs ``cli.main`` in a fresh workspace on inputs written out
below (fixed bases, no random numbers) and compares the sha256 of what the
command wrote: the ``--out`` file for certificates and reports, stdout for
``algebra info``.  The exact kernel picks pivots deterministically and the
reduced row echelon form is unique, so any change to the arithmetic that
alters a byte of a certificate shows here.
"""

import hashlib
import json

import pytest

from tiltkit.cli import main


def loop_pair_doc(a, b):
    """k<d, f, t>/(d^a, t^b, df - ft) on vertices x, y (a, b >= 2)."""
    def term(coeff, *path):
        return {"coeff": coeff, "path": list(path)}

    return {
        "field": "Q",
        "quiver": {"vertices": ["x", "y"],
                   "arrows": [{"name": "d", "from": "x", "to": "x"},
                              {"name": "f", "from": "x", "to": "y"},
                              {"name": "t", "from": "y", "to": "y"}]},
        "relations": [[term("1", *["d"] * a)], [term("1", *["t"] * b)],
                      [term("1", "d", "f"), term("-1", "f", "t")]],
        "nilpotency_bound": max(a, b, min(a, b) + 1) + 1,
    }


A3_DOC = {
    "field": "Q",
    "quiver": {"vertices": ["u", "v", "w"],
               "arrows": [{"name": "a", "from": "u", "to": "v"},
                          {"name": "b", "from": "v", "to": "w"}]},
    "relations": [[{"coeff": "1", "path": ["a", "b"]}]],
    "nilpotency_bound": 3,
}

# the intervals [u,v] + [v,w], and [u,v] + the simple at w
A3_CORPUS = {
    "m1.json": {"dims": {"u": 1, "v": 2, "w": 1},
                "arrows": {"a": [["1"], ["0"]], "b": [["0", "1"]]}},
    "m2.json": {"dims": {"u": 1, "v": 1, "w": 1},
                "arrows": {"a": [["1"]], "b": [["0"]]}},
}


def t_c_doc(b):
    """The regular module of the corner C = k[t]/t^b of loop pair (a, b)."""
    return {"dims": {"y": b},
            "arrows": {"t": [["1" if i == j + 1 else "0" for j in range(b)]
                             for i in range(b)]}}


DIGESTS = {
    "apr-22": "97b18006d63e2a3094cc0fb2de59c47e6aa7c4d4d21872a64dff428e624a5d2f",
    "apr-32": "45e8c13988b0bc966d4148ea909af35802b5f71dc3e50e8efacacdc766ab6dce",
    "glue-jshriek-22": "71df1c221e1bc4bcd5f80a5f822eb4ca89a79afa6fc930cac6ba72c373baf21d",
    "glue-jshriek-32": "bc93e322cc00f4fa721ef3465db0e17cd9f98df561dbb2583ee25c2c21e0634c",
    "glue-jstar-22": "6b5a7e8cd7eea8c5823adaaed18d9da10bc41af50aff642eb736ee08cb5c030d",
    "glue-stalk-22": "16ce2972e0df63772d73ffadb9c6e911df3db98741b8ed25af13a0ce2294d74d",
    "glue-stalk-32": "3640d0a62cb2e2c7127f40f3193491da4e7c685e27cad6b5d6b93b6ad2dcafe9",
    "glue-stalk-33": "eaae08cac60dd8b1bb2c512821642382c2c35d175c3fe6553567c61fe49c72cd",
    "glue-stalk-32-shift2": "9cf81042923c3a77f1ba932e602bbe9e6d3b79ba85c5c2192f234df3ef6a5299",
    "recollement-32-x-Q": "e468b821f07c60708ed0dc6dbc98759932ab946e891be2debd29ed89f93ce26f",
    "recollement-32-x-F101": "e468b821f07c60708ed0dc6dbc98759932ab946e891be2debd29ed89f93ce26f",
    "recollement-32-y-Q": "cf7b9a856e39621c716a29329bb4d13a4f3e8377f8cc8c82fa2779b33b60f465",
    "recollement-32-y-F101": "cf7b9a856e39621c716a29329bb4d13a4f3e8377f8cc8c82fa2779b33b60f465",
    "recollement-a3": "5370218e01a8f12e03bd1d0be7b4381203f38ef8e6cdc19c46e49686390d1317",
    "info-65-Q": "c265e8c16ce48b740d532920cde0d246d6236637227b710c89a984c4833aa941",
    "info-65-F101": "c265e8c16ce48b740d532920cde0d246d6236637227b710c89a984c4833aa941",
}

# glue --mode jstar on (2,2) writes an INVALID certificate (cross_vanishing
# fails on window (0, 1)) and exits 1; it is the CLI path into inflation
# along e_C, which glue_jstar applies to Z.  B + T[2] on (3,2) is not
# tilting (Ext^0(M, T) is nonzero) and is INVALID too
EXIT_CODES = {"glue-jstar-22": 1, "glue-stalk-32-shift2": 1}


def write_json(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def run_case(case, tmp):
    """Run one case in `tmp`; return (exit code, bytes it wrote)."""
    out = tmp / "out.json"
    kind, _, arg = case.partition("-")
    if kind == "apr":
        write_json(tmp / "alg.json", loop_pair_doc(int(arg[0]), int(arg[1])))
        argv = ["apr", str(tmp / "alg.json"), "--e", "x"]
    elif kind == "glue":
        mode, pair = arg.split("-")[:2]
        a, b = int(pair[0]), int(pair[1])
        write_json(tmp / "alg.json", loop_pair_doc(a, b))
        argv = ["glue", str(tmp / "alg.json"), "--e", "x", "--mode", mode]
        if mode == "stalk":
            write_json(tmp / "t.json", t_c_doc(b))
            shift = "2" if arg.endswith("shift2") else "1"
            argv += ["-T", str(tmp / "t.json"), "--shift", shift]
    elif kind == "recollement" and arg != "a3":
        # loop pair (3,2) with an empty corpus: the report covers A and the
        # simples, and every quotient of the recollement
        _, e, field = arg.split("-")
        write_json(tmp / "alg.json", loop_pair_doc(3, 2))
        (tmp / "corpus").mkdir()
        argv = ["--field", field, "recollement", "verify", str(tmp / "alg.json"),
                str(tmp / "corpus"), "--e", e]
    elif kind == "recollement":
        write_json(tmp / "alg.json", A3_DOC)
        corpus = tmp / "corpus"
        corpus.mkdir()
        for name, doc in A3_CORPUS.items():
            write_json(corpus / name, doc)
        argv = ["recollement", "verify", str(tmp / "alg.json"), str(corpus), "--e", "u,v"]
    else:
        write_json(tmp / "alg.json", loop_pair_doc(6, 5))
        field = arg.split("-")[1]
        return main(["--field", field, "algebra", "info", str(tmp / "alg.json")]), None
    return main(argv + ["--out", str(out)]), out.read_bytes()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_certificate_digest(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TILTKIT_WORKSPACE", str(tmp_path / "ws"))
    rc, written = run_case(case, tmp_path)
    stdout = capsys.readouterr().out
    assert rc == EXIT_CODES.get(case, 0)
    data = stdout.encode() if written is None else written
    assert hashlib.sha256(data).hexdigest() == DIGESTS[case]

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tiltkit.algebra
import tiltkit.cli
import tiltkit.glue
import tiltkit.modules
import tiltkit.recollement
import tiltkit.translate
from tiltkit.cli import main

from conftest import loop_pair_presentation
from tiltkit.formats import algebra_input_to_json


def algebra_doc(a, b):
    return algebra_input_to_json(loop_pair_presentation(a, b))


def write_json(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


@pytest.fixture()
def ws(tmp_path, monkeypatch):
    monkeypatch.setenv("TILTKIT_WORKSPACE", str(tmp_path / "ws"))
    return tmp_path


def alg_file(ws, a, b, name=None):
    p = ws / (name or f"alg{a}{b}.json")
    write_json(p, algebra_doc(a, b))
    return p


def middle_module_doc():
    return {
        "dims": {"x": 3, "y": 2},
        "arrows": {
            "d": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]],
            "t": [["0", "0"], ["1", "0"]],
            "f": [["0", "0", "0"], ["1", "0", "0"]],
        },
    }


def test_algebra_build_summary(ws, capsys):
    rc = main(["algebra", "build", str(alg_file(ws, 3, 2))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dimension 7" in out
    assert "det 6" in out
    artifact = [l for l in out.splitlines() if l.startswith("artifact ")][0].split()[1]
    assert Path(artifact).exists()


def test_algebra_build_schema_error(ws, capsys):
    bad = ws / "bad.json"
    write_json(bad, {"quiver": {"vertices": ["x"], "arrows": [
        {"name": "g", "from": "x", "to": "zzz"}]}, "nilpotency_bound": 2})
    rc = main(["algebra", "build", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_algebra_build_malformed_json(ws, capsys):
    bad = ws / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(["algebra", "build", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_module_check_good_and_corrupt(ws, capsys):
    alg = alg_file(ws, 3, 2)
    good = ws / "mod.json"
    write_json(good, middle_module_doc())
    assert main(["module", "check", str(alg), str(good)]) == 0
    bad_doc = middle_module_doc()
    bad_doc["arrows"]["t"] = [["1", "0"], ["0", "1"]]
    bad = ws / "bad_mod.json"
    write_json(bad, bad_doc)
    capsys.readouterr()
    assert main(["module", "check", str(alg), str(bad)]) == 1
    out = capsys.readouterr().out
    assert out == "INVALID: action not multiplicative at basis pair (f, d)\n"


def _with(path, value):
    """A maker of the middle module document with the entry at `path` set
    to `value`."""
    def edit(doc):
        d = doc
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
        return doc
    return lambda: edit(middle_module_doc())


def _zero_x_with_d(entries):
    def doc():
        d = middle_module_doc()
        d["dims"]["x"] = 0
        d["arrows"] = {"t": d["arrows"]["t"], "d": entries}
        return d
    return doc


MALFORMED_MODULES = {
    "dims-list": (_with(["dims"], [2]), '"dims" must map'),
    "dim-null": (_with(["dims", "y"], None), "non-negative integer, got None"),
    "dim-decimal-string": (_with(["dims", "y"], "2.5"), "non-negative integer, got '2.5'"),
    "dim-negative": (_with(["dims", "y"], -1), "non-negative integer, got -1"),
    "dim-bool": (_with(["dims", "y"], True), "non-negative integer, got True"),
    "arrows-list": (_with(["arrows"], [["1"]]), '"arrows" must map'),
    "arrow-not-rows": (_with(["arrows", "t"], "1"), "use a list of rows"),
    "dim-outside-quiver": (_with(["dims", "z"], 5), "not a vertex of the quiver"),
    "arrow-outside-quiver": (_with(["arrows", "q"], [["1"]]), "not an arrow of the quiver"),
    "ragged-rows": (_with(["arrows", "t"], [["0", "0"], ["1"]]), "rows have different lengths"),
    "bool-scalar": (_with(["arrows", "t"], [[0, 0], [True, 0]]), "bad scalar True"),
    "nonzero-on-zero-shape": (_zero_x_with_d([["1"]]), "nonzero entries in a matrix of shape"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODULES))
def test_malformed_module_file_is_rejected(ws, capsys, case):
    # a malformed module file is INVALID for `module check` and a reported
    # error for `tilting-check`, never an internal error (exit 3) or a verdict
    make, fragment = MALFORMED_MODULES[case]
    alg = alg_file(ws, 3, 2)
    bad = ws / "bad.json"
    write_json(bad, make())
    assert main(["module", "check", str(alg), str(bad)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID: ") and fragment in out
    assert main(["tilting-check", str(alg), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("make", [_with(["dims", "z"], 0),
                                  _with(["arrows", "q"], [["0", "0"]]),
                                  _zero_x_with_d([["0"]]),
                                  _zero_x_with_d([])],
                         ids=["zero-dim-outside-quiver", "zero-arrow-outside-quiver",
                              "zero-entries-on-zero-shape", "empty-on-zero-shape"])
def test_zero_data_outside_the_module_is_accepted(ws, capsys, make):
    alg = alg_file(ws, 3, 2)
    mod = ws / "mod.json"
    write_json(mod, make())
    assert main(["module", "check", str(alg), str(mod)]) == 0
    assert capsys.readouterr().out.startswith("valid module")



def test_a_module_too_large_to_store_is_refused_before_it_is_built(ws, capsys):
    # loop pair (2,2) is the README's algebra: e_y and t span its block
    # (y, y), so y = 2,500 asks for 2 * 2,500^2 dense action matrix entries,
    # above the limit of 10^7; it is refused before any matrix is allocated,
    # as a reported error (exit 2) and not as an INVALID verdict
    alg = alg_file(ws, 2, 2)
    mod = ws / "mod.json"
    write_json(mod, {"dims": {"y": 2500}})
    for argv in (["module", "check"], ["tilting-check"]):
        assert main(argv + [str(alg), str(mod)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: module needs 12500000 matrix entries, above 10000000\n"
        assert captured.out == ""

def test_apr_command_trichotomy(ws, capsys):
    out_file = ws / "cert22.json"
    rc = main(["apr", str(alg_file(ws, 2, 2)), "--e", "x", "--bound", "8",
               "--out", str(out_file)])
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["verdict"] == "VALID"
    assert doc["E_triangular"]["corner_b_dim"] == 2
    rc32 = main(["apr", str(alg_file(ws, 3, 2)), "--e", "x", "--bound", "8",
                 "--out", str(ws / "cert32.json")])
    assert rc32 == 0
    doc32 = json.loads((ws / "cert32.json").read_text())
    assert doc32["verdict"] == "VALID"
    assert "E_triangular" not in doc32
    rc12 = main(["apr", str(alg_file(ws, 1, 2)), "--e", "x", "--bound", "6"])
    assert rc12 == 1
    assert "precondition failure" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["apr"], ["apr", "--force"], ["glue", "--mode", "jshriek"],
])
@pytest.mark.parametrize("subset", ["x,y", "y,x,x", "0,1"])
def test_subset_with_every_idempotent_is_refused(ws, capsys, command, subset):
    rc = main([command[0], str(alg_file(ws, 2, 2)), "--e", subset] + command[1:])
    assert rc == 2
    assert capsys.readouterr().err.strip() == \
        "error: idempotent subset must be proper and nonempty"


@pytest.mark.parametrize("command", [["apr"], ["glue", "--mode", "jshriek"]])
@pytest.mark.parametrize("subset, named", [("x,x", "x"), ("x,0", "0"), ("0,x", "x")])
def test_subset_naming_an_idempotent_twice_is_refused(ws, capsys, command, subset, named):
    # a subset that names one idempotent twice is refused, not read as a set;
    # a subset that holds every idempotent is refused for that first
    rc = main([command[0], str(alg_file(ws, 2, 2)), "--e", subset] + command[1:])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"error: idempotent {named!r} named twice"


@pytest.mark.parametrize("piece", ["\u00b2", "\u0660", "\uff11"],
                         ids=["super-2", "arabic-0", "wide-1"])
def test_an_index_in_digits_that_are_not_ascii_is_an_unknown_idempotent(ws, capsys, piece):
    # str.isdigit accepts a superscript two, which int() refuses, and digits
    # of other scripts, which int() reads; an index is ASCII digits only
    rc = main(["apr", str(alg_file(ws, 2, 2)), "--e", piece])
    assert rc == 2
    assert capsys.readouterr().err.strip() == \
        f"error: unknown idempotent {piece!r}; have ['x', 'y']"


def test_recollement_verify_refuses_a_subset_naming_an_idempotent_twice(ws, capsys):
    assert main(verify_argv(ws, "a3", "u,v,u")) == 2
    assert capsys.readouterr().err.strip() == "error: idempotent 'u' named twice"


ZERO_ALGEBRA_DOC = {"field": "Q", "quiver": {"vertices": [], "arrows": []},
                    "relations": [], "nilpotency_bound": 3}


def test_algebra_with_no_vertices_is_the_zero_algebra(ws, capsys):
    # no vertices is a valid input: the zero algebra, with empty invariants
    path = ws / "zero.json"
    write_json(path, ZERO_ALGEBRA_DOC)
    assert main(["algebra", "info", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dimension 0", "idempotents []", "radical dim 0", "cartan [] det 1", "center dim 0"]
    assert main(["algebra", "build", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "dimension 0", "corner dims []", "cartan [] det 1"]
    assert main(["invariants", "compare", str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "simple_count: 0 vs 0 ==", "cartan_det: 1 vs 1 ==", "center_dim: 0 vs 0 =="]


def test_tilting_check_command(ws, capsys):
    alg = alg_file(ws, 3, 2)
    mod = ws / "mod.json"
    write_json(mod, middle_module_doc())
    rc = main(["tilting-check", str(alg), str(mod), "--bound", "6",
               "--out", str(ws / "tilt.json")])
    assert rc == 1   # the middle term alone is not tilting
    doc = json.loads((ws / "tilt.json").read_text())
    assert doc["verdict"] is False


def test_glue_identity_command(ws):
    rc = main(["glue", str(alg_file(ws, 3, 2)), "--e", "x", "--mode", "jshriek",
               "--bound", "8", "--out", str(ws / "glue.json")])
    assert rc == 0
    doc = json.loads((ws / "glue.json").read_text())
    assert doc["verdict"] == "VALID"
    assert doc["E"]["dimension"] == 7
    assert {c["id"] for c in doc["conditions"]} >= {
        "cross_vanishing", "automatic_reverse_vanishing", "endo_zero_corner"}


def test_glue_stalk_command(ws):
    # T = the regular module of the corner C = k[t]/t^2 given by its arrows
    t_doc = {"dims": {"y": 2}, "arrows": {"t": [["0", "0"], ["1", "0"]]}}
    write_json(ws / "t.json", t_doc)
    rc = main(["glue", str(alg_file(ws, 2, 2)), "--e", "x", "--mode", "stalk",
               "-T", str(ws / "t.json"), "--shift", "1", "--bound", "8",
               "--out", str(ws / "stalk.json")])
    assert rc == 0
    doc = json.loads((ws / "stalk.json").read_text())
    assert doc["verdict"] == "VALID"
    assert doc["E_triangular"]["bimodule_dim"] == 2


# T = C + C over the corner C = k[t]/t^2 of loop pair (2,2), in an adapted
# basis and in a non-adapted one
T_CC_ADAPTED = {"dims": {"y": 4}, "arrows": {"t": [["0", "0", "0", "0"], ["1", "0", "0", "0"],
                                                  ["0", "0", "0", "0"], ["0", "0", "1", "0"]]}}
T_CC_REBASED = {"dims": {"y": 4}, "arrows": {"t": [["0", "0", "0", "0"], ["1", "0", "0", "0"],
                                                  ["1", "0", "0", "0"], ["1", "-1", "1", "0"]]}}


def test_glue_stalk_non_adapted_basis(ws, capsys):
    # the summands of a non-adapted T carry module-map projections, so End(T)
    # and the Ext bimodule are built as for the adapted T
    lines = {}
    for name, t_doc in (("adapted", T_CC_ADAPTED), ("rebased", T_CC_REBASED)):
        write_json(ws / f"{name}.json", t_doc)
        rc = main(["glue", str(alg_file(ws, 2, 2)), "--e", "x", "--mode", "stalk",
                   "-T", str(ws / f"{name}.json"), "--shift", "1",
                   "--out", str(ws / f"{name}-out.json")])
        assert rc == 0
        lines[name] = [l for l in capsys.readouterr().out.splitlines()
                       if not l.startswith("certificate ")]
    assert lines["rebased"] == lines["adapted"]
    assert lines["adapted"][0] == "verdict VALID"
    assert "  homotopy_endo_match: True" in lines["adapted"]


def test_glue_stalk_computes_end_t_once(ws, monkeypatch):
    # End(T) is solved once, by the tilting check: the Ext bimodule and the
    # homotopy cross-check read it back from hom_space's memo
    real_solve, real_endo = tiltkit.modules._solve_hom, tiltkit.glue.endo_algebra
    self_solves, t_mods = [], []

    def counting_solve(x, y):
        if x is y:
            self_solves.append(x)
        return real_solve(x, y)

    def recording_endo(x):
        t_mods.append(x)
        return real_endo(x)

    monkeypatch.setattr(tiltkit.modules, "_solve_hom", counting_solve)
    monkeypatch.setattr(tiltkit.glue, "endo_algebra", recording_endo)
    t_doc = {"dims": {"y": 2}, "arrows": {"t": [["0", "0"], ["1", "0"]]}}
    write_json(ws / "t.json", t_doc)
    rc = main(["glue", str(alg_file(ws, 3, 2)), "--e", "x", "--mode", "stalk",
               "-T", str(ws / "t.json"), "--shift", "1", "--out", str(ws / "stalk.json")])
    assert rc == 0
    assert len(t_mods) == 1
    t = tiltkit.modules._shared(t_mods[0])
    assert sum(tiltkit.modules._shared(x) is t for x in self_solves) == 1


def test_glue_stalk_computes_end_of_each_module_once(ws, monkeypatch):
    # lifting endomorphisms along a resolution reads End of each resolution
    # term from hom_space's memo, so no module content has its End solved twice
    real_solve = tiltkit.modules._solve_hom
    self_solves = []

    def counting_solve(x, y):
        if x is y:
            self_solves.append(x)
        return real_solve(x, y)

    monkeypatch.setattr(tiltkit.modules, "_solve_hom", counting_solve)
    t_doc = {"dims": {"y": 2}, "arrows": {"t": [["0", "0"], ["1", "0"]]}}
    write_json(ws / "t.json", t_doc)
    rc = main(["glue", str(alg_file(ws, 3, 2)), "--e", "x", "--mode", "stalk",
               "-T", str(ws / "t.json"), "--shift", "1", "--out", str(ws / "stalk.json")])
    assert rc == 0
    contents = [tiltkit.modules._shared(x) for x in self_solves]
    assert len(contents) > 1
    assert [sum(y is x for y in contents) for x in contents] == [1] * len(contents)


def test_glue_stalk_builds_the_bimodule_module_once(ws, monkeypatch):
    # M = e_C A e_B is built once as a C-module and kept on the bimodule, so
    # its resolution is shared and Ext^{s-1}(M, T) is computed once
    real_build, real_ext = tiltkit.modules.bimodule_left_module, tiltkit.modules.ext
    built, exts = [], []

    def counting_build(bim):
        built.append(real_build(bim))
        return built[-1]

    def recording_ext(x, y, n, **kwargs):
        exts.append((x, n))
        return real_ext(x, y, n, **kwargs)

    monkeypatch.setattr(tiltkit.modules, "bimodule_left_module", counting_build)
    for mod in (tiltkit.modules, tiltkit.glue):
        monkeypatch.setattr(mod, "ext", recording_ext)
    t_doc = {"dims": {"y": 2}, "arrows": {"t": [["0", "0"], ["1", "0"]]}}
    write_json(ws / "t.json", t_doc)
    rc = main(["glue", str(alg_file(ws, 3, 2)), "--e", "x", "--mode", "stalk",
               "-T", str(ws / "t.json"), "--shift", "1", "--out", str(ws / "stalk.json")])
    assert rc == 0
    assert len(built) == 1
    assert [n for x, n in exts if x is built[0]].count(0) == 1


def test_recollement_verify_builds_each_corner_and_quotient_once(ws, monkeypatch):
    # the recollements of e and of 1 - e and the triangular split share the
    # corners and quotients of the algebra, and the axiom check applies
    # i_shriek and j_upper to each corpus module once
    alg = tiltkit.algebra
    cls = tiltkit.recollement.IdempotentRecollement
    real_corner, real_quotient = alg.CornerData.__init__, alg.QuotientData.__init__
    real_shriek, real_upper = cls.i_shriek, cls.j_upper
    corners, quotients, shrieked, restricted = [], [], [], []

    def recording_corner(self, algebra, basis_indices, idem_map, ambient):
        corners.append((id(ambient), tuple(idem_map)))
        real_corner(self, algebra, basis_indices, idem_map, ambient)

    def recording_quotient(self, algebra, ideal, rep_indices, idem_map, ambient, ideal_basis):
        quotients.append((id(ambient), tuple(rep_indices)))
        real_quotient(self, algebra, ideal, rep_indices, idem_map, ambient, ideal_basis)

    def recording_shriek(self, x):
        shrieked.append(x)
        return real_shriek(self, x)

    def recording_upper(self, x):
        restricted.append(x)
        return real_upper(self, x)

    monkeypatch.setattr(alg.CornerData, "__init__", recording_corner)
    monkeypatch.setattr(alg.QuotientData, "__init__", recording_quotient)
    monkeypatch.setattr(cls, "i_shriek", recording_shriek)
    monkeypatch.setattr(cls, "j_upper", recording_upper)
    corpus = ws / "corpus"
    corpus.mkdir()
    write_json(corpus / "middle.json", middle_module_doc())
    rc = main(["recollement", "verify", str(alg_file(ws, 3, 2)), str(corpus),
               "--e", "x", "--out", str(ws / "rec.json")])
    assert rc == 0
    ambient = corners[0][0]
    assert sorted(k for k in corners if k[0] == ambient) == [(ambient, (0,)), (ambient, (1,))]
    assert len([k for k in quotients if k[0] == ambient]) == 2
    assert len(set(corners)) == len(corners) and len(set(quotients)) == len(quotients)
    assert shrieked and [sum(y is x for y in shrieked) for x in shrieked] == \
        [1] * len(shrieked)
    assert sum(x is shrieked[0] for x in restricted) == 1


def test_bound_truncates_is_computed_only_for_algebra_build(ws, monkeypatch, capsys):
    calls = []
    real = tiltkit.algebra._bound_truncates

    def counting(pres):
        calls.append(pres)
        return real(pres)

    monkeypatch.setattr(tiltkit.algebra, "_bound_truncates", counting)
    assert main(["algebra", "info", str(alg_file(ws, 3, 2))]) == 0
    assert calls == []
    assert main(["algebra", "build", str(alg_file(ws, 3, 2))]) == 0
    assert len(calls) == 1


def test_tilting_check_computes_each_syzygy_once(ws, monkeypatch):
    # a projective cover carries its kernel, so the resolutions behind the
    # tilting check run kernel_of once per cover and never again
    real_kernel, real_cover = tiltkit.modules.kernel_of, tiltkit.modules.projective_cover
    kernels, covers = [], []

    def counting_kernel(map_):
        kernels.append(map_)
        return real_kernel(map_)

    def counting_cover(x):
        covers.append(x)
        return real_cover(x)

    monkeypatch.setattr(tiltkit.modules, "kernel_of", counting_kernel)
    for mod in (tiltkit.modules, tiltkit.recollement):
        monkeypatch.setattr(mod, "projective_cover", counting_cover)
    mod_file = ws / "mod.json"
    write_json(mod_file, middle_module_doc())
    rc = main(["tilting-check", str(alg_file(ws, 3, 2)), str(mod_file), "--bound", "6"])
    assert rc == 1
    assert covers and len(kernels) == len(covers)


def _complex_with(**entries):
    """A complex over the corner C = k[t]/t^2 of loop pair (2,2) split at x:
    P_y in degree 0, with the given entries replaced (None drops one)."""
    doc = {"degrees": [0, 0], "differentials": [],
           "modules": [{"dims": {"y": 2}, "arrows": {"t": [["0", "0"], ["1", "0"]]}}]}
    doc.update(entries)
    return {k: v for k, v in doc.items() if v is not None}


MALFORMED_COMPLEXES = {
    "no-degrees": (_complex_with(degrees=None), "complex schema violation: 'degrees'"),
    "degrees-int": (_complex_with(degrees=3), '"degrees" must be [lo, hi]'),
    "differential-list": (_complex_with(
        degrees=[-1, 0], modules=_complex_with()["modules"] * 2,
        differentials=[[["1", "0"], ["0", "1"]]]), '"differentials" must be a list of maps'),
    "extra-differential": (_complex_with(differentials=[{"y": [["0", "0"], ["0", "0"]]}]),
                           "need one differential between consecutive modules"),
    "unknown-vertex": (_complex_with(
        degrees=[-1, 0], modules=_complex_with()["modules"] * 2,
        differentials=[{"z": [["1", "0"], ["0", "1"]]}]),
        "nonzero matrix for 'z' in differential 0, which is not a vertex"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COMPLEXES))
def test_malformed_complex_file_is_rejected(ws, capsys, case):
    # a malformed complex file is a reported error (exit 2), never an
    # internal error (exit 3)
    doc, fragment = MALFORMED_COMPLEXES[case]
    bad = ws / "bad_complex.json"
    write_json(bad, doc)
    rc = main(["glue", str(alg_file(ws, 2, 2)), "--e", "x", "--mode", "jshriek",
               "-Y", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and fragment in err


def _algebra_with(**entries):
    """The loop pair (2,2) algebra document with the given entries replaced."""
    return lambda: dict(algebra_doc(2, 2), **entries)


def _quiver_with(**entries):
    """The loop pair (2,2) algebra document, without relations, with the
    given entries of its quiver replaced."""
    return lambda: dict(algebra_doc(2, 2), relations=[],
                        quiver=dict(algebra_doc(2, 2)["quiver"], **entries))


MALFORMED_ALGEBRAS = {
    "top-level-list": (lambda: [], "expected an object, got []"),
    "artifact-input-list": (lambda: {"kind": "algebra", "input": []},
                            "expected an object, got []"),
    "artifact-without-input": (lambda: {"kind": "algebra"},
                               'an "algebra" artifact has no "input"'),
    "bound-string": (_algebra_with(nilpotency_bound="x"),
                     "nilpotency_bound must be an integer, got 'x'"),
    "bound-decimal": (_algebra_with(nilpotency_bound=2.5),
                      "nilpotency_bound must be an integer, got 2.5"),
    "bound-bool": (_algebra_with(nilpotency_bound=True),
                   "nilpotency_bound must be an integer, got True"),
    "field-p-string": (_algebra_with(field={"p": "abc"}), "field p must be an integer, got 'abc'"),
    "field-p-bool": (_algebra_with(field={"p": True}), "field p must be an integer, got True"),
    "field-p-huge": (_algebra_with(field={"p": 10**400 + 1}), "must be below 2^31"),
    # a string or an object where the schema asks for a list is refused,
    # not read by iterating over it
    "vertices-string": (_quiver_with(vertices="xy"), "vertices must be a list, got 'xy'"),
    "arrows-object": (_quiver_with(arrows={}), "arrows must be a list, got {}"),
    "relations-object": (_algebra_with(relations={}), "relations must be a list, got {}"),
    "relation-object": (_algebra_with(relations=[{}]), "a relation must be a list, got {}"),
    "path-string": (_algebra_with(relations=[[{"coeff": "1", "path": "dd"}]]),
                    "path must be a list, got 'dd'"),
    "relation-empty": (_algebra_with(relations=[[]]), "relation 0 has no terms"),
    # an object or a list where an arrow name goes is refused before any
    # lookup by name
    "path-entry-object": (_algebra_with(relations=[[{"coeff": "1", "path": [{}, "d"]}]]),
                          "a path entry must be an arrow name, got {}"),
    "path-entry-list": (_algebra_with(relations=[[{"coeff": "1", "path": [["d"], "d"]}]]),
                        "a path entry must be an arrow name, got ['d']"),
    # vertices and arrows are named by strings: a number would be read as
    # an index by --e and could be named by no module file
    "vertex-number": (_quiver_with(vertices=[1, 2], arrows=[{"name": "f", "from": 1, "to": 2}]),
                      "a vertex name must be a string, got 1"),
    "arrow-name-number": (_quiver_with(arrows=[{"name": 7, "from": "x", "to": "y"}]),
                          'arrow "name" must be a string, got 7'),
    "arrow-from-number": (_quiver_with(arrows=[{"name": "f", "from": 0, "to": "y"}]),
                          'arrow "from" must be a string, got 0'),
    "arrow-to-number": (_quiver_with(arrows=[{"name": "f", "from": "x", "to": 1}]),
                        'arrow "to" must be a string, got 1'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ALGEBRAS))
def test_malformed_algebra_file_is_rejected(ws, capsys, case):
    # a malformed algebra file is a reported error (exit 2), never an
    # internal error (exit 3) or an algebra read some other way
    make, fragment = MALFORMED_ALGEBRAS[case]
    bad = ws / "bad_algebra.json"
    write_json(bad, make())
    for argv in (["algebra", "info", str(bad)],
                 ["invariants", "compare", str(alg_file(ws, 2, 2)), str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("command", ["algebra info", "tilting-check", "recollement verify"])
def test_non_utf8_file_is_a_reported_error(ws, capsys, command):
    bad = ws / "latin1.json"
    bad.write_bytes('{"dims": {"x": 1}, "note": "é"}'.encode("latin-1"))
    alg = str(alg_file(ws, 2, 2))
    if command == "recollement verify":
        corpus = ws / "corpus"
        corpus.mkdir()
        bad = bad.replace(corpus / "m.json")
        argv = ["recollement", "verify", alg, str(corpus), "--e", "x"]
    else:
        argv = ["algebra", "info", str(bad)] if command == "algebra info" \
            else ["tilting-check", alg, str(bad)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text: byte 0xe9 at offset 28\n"


def test_well_formed_complex_file_is_accepted(ws):
    good = ws / "complex.json"
    write_json(good, _complex_with())
    assert main(["glue", str(alg_file(ws, 2, 2)), "--e", "x", "--mode", "jshriek",
                 "-Y", str(good), "--out", str(ws / "glue.json")]) == 0


def _simple_stalk(vertex, loop):
    """The stalk complex of the simple at `vertex` over the corner k[loop]/loop^2
    of loop pair (2,2) split at x."""
    return {"degrees": [0, 0], "differentials": [],
            "modules": [{"dims": {vertex: 1}, "arrows": {loop: [["0"]]}}]}


@pytest.mark.parametrize("mode, side, message", [
    ("jshriek", "-Z", "refused: cannot resolve the B-side input within bound 4"),
    ("jstar", "-Z", "refused: inflated B-side complex cannot be resolved within bound 4"),
    ("jshriek", "-Y", "refused: cannot resolve the C-side input within bound 4"),
    ("jstar", "-Y", "refused: cannot resolve the C-side input within bound 4"),
], ids=["jshriek-Z", "jstar-Z", "jshriek-Y", "jstar-Y"])
def test_glue_side_beyond_the_bound_is_refused(ws, capsys, mode, side, message):
    # the simples of B = k[d]/d^2 and C = k[t]/t^2 have infinite pd, so each
    # side that holds one cannot be resolved, and every such side is a
    # refused construction (exit 1), not a reported error
    stalk = ws / "stalk.json"
    write_json(stalk, _simple_stalk("x", "d") if side == "-Z" else _simple_stalk("y", "t"))
    rc = main(["glue", str(alg_file(ws, 2, 2)), "--e", "x", "--mode", mode,
               side, str(stalk), "--bound", "4"])
    assert rc == 1
    assert capsys.readouterr().out == message + "\n"


def test_glue_jstar_refusal(ws, capsys):
    rc = main(["glue", str(alg_file(ws, 1, 2)), "--e", "x", "--mode", "jstar",
               "--bound", "5"])
    assert rc == 1
    assert "refused" in capsys.readouterr().out


def test_recollement_verify_command(ws, capsys):
    corpus = ws / "corpus"
    corpus.mkdir()
    write_json(corpus / "middle.json", middle_module_doc())
    write_json(corpus / "proj_x.json", {
        "dims": {"x": 3, "y": 2},
        "arrows": {
            "d": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]],
            "t": [["0", "0"], ["1", "0"]],
            "f": [["1", "0", "0"], ["0", "1", "0"]],
        },
    })
    rc = main(["recollement", "verify", str(alg_file(ws, 3, 2)), str(corpus),
               "--e", "x", "--out", str(ws / "rec.json")])
    assert rc == 0
    doc = json.loads((ws / "rec.json").read_text())
    assert doc["axioms_ok"] is True
    assert doc["functor_criteria"]["all_four_iff_corner"] is True
    assert all(row["exact"] and row["hom_vanishes"] for row in doc["torsion"])


def test_recollement_verify_catches_corrupt(ws):
    corpus = ws / "corpus"
    corpus.mkdir()
    bad = middle_module_doc()
    bad["arrows"]["t"] = [["1", "0"], ["0", "1"]]
    write_json(corpus / "bad.json", bad)
    rc = main(["recollement", "verify", str(alg_file(ws, 3, 2)), str(corpus),
               "--e", "x", "--out", str(ws / "rec.json")])
    assert rc == 1
    doc = json.loads((ws / "rec.json").read_text())
    assert doc["corrupted_modules"] == [
        {"file": "bad.json", "error": "action not multiplicative at basis pair (f, d)"}]


@pytest.mark.parametrize("make", ["missing", "file"])
def test_recollement_verify_refuses_a_corpus_that_is_not_a_directory(ws, capsys, make):
    corpus = ws / "corpus"
    if make == "file":
        write_json(corpus, middle_module_doc())
    rc = main(["recollement", "verify", str(alg_file(ws, 3, 2)), str(corpus),
               "--e", "x", "--out", str(ws / "rec.json")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"error: {corpus}: not a directory"
    assert not (ws / "rec.json").exists()


def test_recollement_verify_empty_corpus_uses_the_default(ws, capsys):
    corpus = ws / "corpus"
    corpus.mkdir()
    rc = main(["recollement", "verify", str(alg_file(ws, 3, 2)), str(corpus),
               "--e", "x", "--out", str(ws / "rec.json")])
    assert rc == 0
    doc = json.loads((ws / "rec.json").read_text())
    assert doc["axioms_ok"] is True
    # the regular module and the two simples
    assert len(doc["torsion"]) == 3


A3_DOC = {
    "field": "Q",
    "quiver": {"vertices": ["u", "v", "w"],
               "arrows": [{"name": "a", "from": "u", "to": "v"},
                          {"name": "b", "from": "v", "to": "w"}]},
    "relations": [[{"coeff": "1", "path": ["a", "b"]}]],
    "nilpotency_bound": 3,
}


def verify_argv(ws, algebra, e):
    """recollement verify on loop pair (a, b) or on u -> v -> w (a b = 0),
    with the default corpus: the regular module and the simples."""
    if algebra == "a3":
        path = ws / "a3.json"
        write_json(path, A3_DOC)
    else:
        path = alg_file(ws, int(algebra[2]), int(algebra[3]))
    corpus = ws / "corpus"
    corpus.mkdir(exist_ok=True)
    return ["recollement", "verify", str(path), str(corpus), "--e", e]


@pytest.mark.parametrize("algebra, e", [("lp65", "x"), ("a3", "u,v")])
def test_recollement_verify_over_prime_fields(ws, algebra, e):
    # no step of the axiom check decomposes a module, so F_p gives the Q report
    argv = verify_argv(ws, algebra, e)
    reports = {}
    for field in ("Q", "F101", "F2"):
        out = ws / f"rec-{field}.json"
        assert main(["--field", field] + argv + ["--out", str(out)]) == 0
        reports[field] = out.read_bytes()
    assert reports["F101"] == reports["Q"]
    assert reports["F2"] == reports["Q"]


# Counted are the intertwining systems solved (`_solve_hom`): hom_space keeps
# its result for each pair of module contents, so a repeated pair is a
# lookup.  Before the axioms were checked by their canonical maps,
# `recollement verify` made 97 calls of hom_space on loop pair (3,2) and 160
# on u -> v -> w, those of its abstract isomorphism tests (Krull-Schmidt)
# included.  While each call solved, it made 84 and 144.


@pytest.mark.parametrize("algebra, e, solves", [("lp32", "x", 50), ("a3", "u,v", 61)])
def test_hom_space_calls_of_recollement_verify_are_pinned(ws, monkeypatch, algebra, e, solves):
    real = tiltkit.modules._solve_hom
    counted = []

    def counting(x, y):
        counted.append((x, y))
        return real(x, y)

    monkeypatch.setattr(tiltkit.modules, "_solve_hom", counting)
    assert main(verify_argv(ws, algebra, e) + ["--out", str(ws / "rec.json")]) == 0
    assert len(counted) == solves


def test_invariants_compare_command(ws, capsys):
    a = alg_file(ws, 2, 2, "a.json")
    b = alg_file(ws, 2, 2, "b.json")
    assert main(["invariants", "compare", str(a), str(b)]) == 0
    point = ws / "point.json"
    write_json(point, {"field": "Q",
                       "quiver": {"vertices": ["v"], "arrows": []},
                       "relations": [], "nilpotency_bound": 1})
    assert main(["invariants", "compare", str(a), str(point)]) == 1


def renamed(doc, names):
    """The document with every string in `names` replaced by its new name."""
    if isinstance(doc, dict):
        return {k: renamed(v, names) for k, v in doc.items()}
    if isinstance(doc, list):
        return [renamed(v, names) for v in doc]
    return names.get(doc, doc) if isinstance(doc, str) else doc


def test_invariants_compare_refines_each_algebra_once(ws, monkeypatch, capsys):
    # the simple count and the basic Cartan determinant share one refinement
    # of the idempotents, which builds the corner algebra at each vertex once
    real_corner = tiltkit.algebra.corner_algebra
    corners = []

    def counting_corner(a, subset):
        corners.append(subset)
        return real_corner(a, subset)

    monkeypatch.setattr(tiltkit.algebra, "corner_algebra", counting_corner)
    a = alg_file(ws, 6, 5)
    b = ws / "renamed.json"
    write_json(b, renamed(algebra_doc(6, 5),
                          {"x": "p", "y": "q", "d": "s", "f": "g", "t": "r"}))
    assert main(["invariants", "compare", str(a), str(b)]) == 0
    assert "simple_count: 2 vs 2 ==" in capsys.readouterr().out
    assert len(corners) == 4


def test_certificates_byte_identical(ws):
    alg = alg_file(ws, 2, 2)
    for name in ("c1.json", "c2.json"):
        rc = main(["apr", str(alg), "--e", "x", "--bound", "8",
                   "--out", str(ws / name)])
        assert rc == 0
    assert (ws / "c1.json").read_bytes() == (ws / "c2.json").read_bytes()


def test_workspace_cache_is_pure(ws, capsys):
    alg = alg_file(ws, 3, 2)
    assert main(["algebra", "build", str(alg)]) == 0
    first = capsys.readouterr().out
    import shutil
    shutil.rmtree(Path(str(ws / "ws")), ignore_errors=True)
    assert main(["algebra", "build", str(alg)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_algebra_info_prime_field(ws, capsys):
    rc = main(["--field", "F101", "algebra", "info", str(alg_file(ws, 2, 2))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dimension 6" in out and "det 4" in out


def test_algebra_info_small_prime_field(ws, capsys):
    # the radical of a path algebra is its arrow ideal in every
    # characteristic, so F2 is not refused although p <= dim
    rc = main(["--field", "F2", "algebra", "info", str(alg_file(ws, 2, 2))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "radical dim 4" in out and "det 4" in out


def test_bad_field_flag(ws, capsys):
    rc = main(["--field", "R", "algebra", "info", str(alg_file(ws, 2, 2))])
    assert rc == 2


@pytest.mark.parametrize("flag, fragment", [
    ("F2147483659", "the characteristic of a prime field must be below 2^31"),
    # int() refuses 5000 digits from Python 3.10.7 on; before, the prime
    # field refuses the value
    ("F" + "1" * 5000, "must be below 2^31"),
    ("F\u00b2", "unknown field flag 'F\u00b2'; use Q or F<p>"),
], ids=["prime-above-bound", "5000-digits", "superscript-digit"])
def test_field_flag_out_of_range_is_a_reported_error(ws, capsys, flag, fragment):
    rc = main(["--field", flag, "algebra", "info", str(alg_file(ws, 2, 2))])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_deeply_nested_json_is_a_reported_error(ws, capsys):
    # json.load recurses once per nesting level
    path = ws / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["algebra", "info", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_a_reported_error(ws, unbuffered):
    # the reader of stdout is gone before the command prints: exit 2 with
    # one error line, and no traceback, also none from the interpreter's
    # flush of a buffered stdout at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(tiltkit.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    try:
        run = subprocess.run([sys.executable, "-m", "tiltkit.cli", "algebra", "info",
                              str(alg_file(ws, 2, 2))],
                             stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert run.returncode == 2
    assert run.stderr == "error: standard output was closed before the output ended\n"


def test_overlong_number_in_file_is_a_reported_error(ws, capsys):
    # json cannot convert 5000 digits to an int where Python limits int
    # conversion, and the prime field refuses the value where it does not
    text = json.dumps(algebra_doc(2, 2), sort_keys=True)
    path = ws / "long_p.json"
    path.write_text(text.replace('"Q"', '{"p": 1' + "0" * 4999 + "}"), encoding="utf-8")
    assert main(["algebra", "info", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["apr", "tilting-check"])
def test_prime_field_decomposition_refused(ws, capsys, command):
    if command == "apr":
        argv = ["apr", str(alg_file(ws, 2, 2)), "--e", "x"]
    else:
        mod = ws / "mod.json"
        write_json(mod, middle_module_doc())
        argv = ["tilting-check", str(alg_file(ws, 3, 2)), str(mod)]
    rc = main(["--field", "F101"] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: decomposition over the prime field F101 is not supported yet\n"


def test_internal_error_exit_code(ws, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("tiltkit.cli.cmd_algebra_info", boom)
    rc = main(["algebra", "info", str(alg_file(ws, 2, 2))])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.rstrip().splitlines()[-1] == "internal error: RuntimeError: boom"


@pytest.mark.parametrize("field, coeff, message", [
    ("F101", "-1/101", "scalar '-1/101' has no value in F101: "
                       "its denominator is divisible by 101"),
    ("Q", "abc", "bad scalar 'abc'; use an integer or 'num/den' string"),
    ("Q", "1/0", "bad scalar '1/0': zero denominator"),
], ids=["denominator-p", "malformed", "zero-denominator"])
def test_bad_scalar_refused(ws, capsys, field, coeff, message):
    doc = algebra_doc(2, 2)
    commutation = [rel for rel in doc["relations"] if len(rel) == 2][0]
    commutation[1]["coeff"] = coeff
    path = ws / "bad_scalar.json"
    write_json(path, doc)
    rc = main(["--field", field, "algebra", "info", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"

"""Modules with one content share one cache.

Two modules over one algebra object with equal `dims` and `mats` (entry
types included) read and write one `_cache`, and `hom_space` keeps its
result for every pair of contents there.  So what is computed from one
module is seen by every equal one, and it must be what the module would
have computed alone.

The first test is a source guard in the style of `tests/test_zero_idiom.py`:
it fails when a `src/tiltkit` function reads or writes `._cache` of a module
it has not passed through `_shared`.  `_shared` itself and `Module.__init__`,
which makes a new module's own cache, are exempt.

The other tests compare each output read through the shared caches with the
same output on an equal module over a fresh algebra object, whose caches
hold nothing (the behaviour before sharing), on rebased modules over Q and
F101: equal entries of equal types.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from tiltkit import complexes, glue, modules, recollement
from tiltkit.cli import main
from tiltkit.formats import algebra_input_to_json
from tiltkit.linalg import QQ, Matrix
from tiltkit.modules import (
    DecompositionError,
    Module,
    _shared,
    decompose_instances,
    endo_algebra,
    ext,
    hom_space,
    min_projective_resolution,
    radical_vectors,
    simple_module,
    tilting_module_check,
)

from conftest import A3_DOC, FIELDS, algebras, loop_pair_presentation, modules_over, typed

SRC = Path(__file__).resolve().parent.parent / "src" / "tiltkit"
EXEMPT = {("_shared", None), ("__init__", "Module")}


# -- the guard ---------------------------------------------------------------------------


def _is_shared_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_shared")


def unshared_cache_uses(source):
    """Line numbers of the `._cache` reads and writes in `source` whose
    module has not passed through `_shared` before, in the same function.
    A use outside every function is always reported."""
    tree = ast.parse(source)
    found = []

    def visit(node, scope, cls):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                visit(child, scope, node.name)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if (node.name, cls) not in EXEMPT:
                check(node)
            return
        if scope is None:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr == "_cache":
                    found.append(sub.lineno)

    def check(fn):
        shared = {}     # name -> first line where it passes through _shared
        for sub in ast.walk(fn):
            if _is_shared_call(sub) and sub.args and isinstance(sub.args[0], ast.Name):
                name = sub.args[0].id
                shared[name] = min(shared.get(name, sub.lineno), sub.lineno)
        for sub in ast.walk(fn):
            if not (isinstance(sub, ast.Attribute) and sub.attr == "_cache"):
                continue
            if _is_shared_call(sub.value):
                continue
            if (isinstance(sub.value, ast.Name)
                    and shared.get(sub.value.id, sub.lineno + 1) <= sub.lineno):
                continue
            found.append(sub.lineno)

    for node in tree.body:
        visit(node, None, None)
    return sorted(found)


@pytest.mark.parametrize("snippet, flagged", [
    ("def f(x):\n    return x._cache.get('a')\n", [2]),
    ("def f(x):\n    return _shared(x)._cache.get('a')\n", []),
    ("def f(x):\n    _shared(x)\n    return x._cache\n", []),
    ("def f(x, y):\n    _shared(x)\n    return y._cache\n", [3]),
    ("def f(x):\n    c = x._cache\n    _shared(x)\n    return c\n", [2]),
    ("def f(x):\n    x.other._cache['a'] = 1\n", [2]),
    ("def f(x):\n    _shared(x.other)\n    x.other._cache['a'] = 1\n", [3]),
    ("x._cache = {}\n", [1]),
    ("class Module:\n    def __init__(self):\n        self._cache = {}\n", []),
    ("class Other:\n    def __init__(self):\n        self._cache = {}\n", [3]),
    ("def _shared(x):\n    x._cache = x._first._cache\n", []),
])
def test_guard_recognises_unshared_cache_uses(snippet, flagged):
    assert unshared_cache_uses(snippet) == flagged


def test_every_cache_use_in_source_is_shared():
    found = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py"))
             for line in unshared_cache_uses(p.read_text(encoding="utf-8"))]
    assert not found, "._cache used without _shared: " + ", ".join(found)


# -- sharing against fresh caches ----------------------------------------------------------


INDICES = range(3)      # loop pairs (2,2), (3,2) and (3,3)


def resolution_data(res):
    return (res.length, res.completed, res.summands,
            [typed(m) for m in res.modules],
            [typed(d) for d in [res.augmentation] + res.differentials])


def hom_data(h):
    return [typed(b) for b in h.basis], [typed(v, h.source.algebra.field) for v in h.span.vectors]


def outputs(x, simple):
    """What a caller reads from x through the module caches."""
    cover = modules._cover(x)
    out = {
        "radical": [typed(v, x.algebra.field) for v in radical_vectors(x)],
        "cover": (cover.summands, typed(cover.map), typed(cover.kernel),
                  typed(cover.inclusion)),
        # shallow first: on a fresh module it is a fresh run to bound 1
        "shallow": resolution_data(min_projective_resolution(x, 1)),
        "resolution": resolution_data(min_projective_resolution(x, 4)),
        "end": hom_data(hom_space(x, x)),
        "to_simple": hom_data(hom_space(x, simple)),
        "from_simple": hom_data(hom_space(simple, x)),
        "ext1": [typed(c) for c in ext(x, x, 1, bound=4).cocycles],
    }
    try:
        pieces = decompose_instances(x)
    except DecompositionError as err:
        out["summands"] = str(err)
    else:
        out["summands"] = [(typed(m), typed(p), typed(i)) for m, p, i in pieces]
        e = endo_algebra(x)
        out["endo"] = [[typed(v, e.field) for v in row] for row in e.table]
        rep = tilting_module_check(x, bound=4)
        out["tilting"] = (rep.pd, rep.ext_table, rep.coresolution_lengths, rep.verdict)
    return out


@pytest.mark.parametrize("index", INDICES)
@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_shared_caches_give_what_fresh_caches_give(field, index):
    a, xs = modules_over(field, index)
    fresh = algebras(field)[index]
    assert fresh is not a
    for x in xs:
        twin = Module(a, x.dims, x.mats)
        assert _shared(twin) is _shared(x)
        # x fills the shared caches, and twin reads them
        outputs(x, simple_module(a, 0))
        want = outputs(Module(fresh, x.dims, x.mats), simple_module(fresh, 0))
        # repr tells an int from an equal Fraction, which == does not
        assert repr(outputs(twin, simple_module(a, 0))) == repr(want)


def retyped(x):
    """x with its first int entry written as an equal Fraction."""
    k, r, c = next((k, r, c) for k, m in enumerate(x.mats) for r, row in enumerate(m.data)
                   for c, v in enumerate(row) if type(v) is int)
    data = [list(row) for row in x.mats[k].data]
    data[r][c] = Fraction(data[r][c])
    return Module(x.algebra, x.dims,
                  x.mats[:k] + [Matrix(x.algebra.field, data, cols=x.mats[k].cols)] + x.mats[k + 1:])


def test_an_int_and_an_equal_fraction_are_not_one_content():
    # results built from them differ in type, so they do not share a cache
    a, xs = modules_over(QQ, 1)
    x = xs[-1]
    y = retyped(x)
    assert y.mats == x.mats
    assert _shared(y) is not _shared(x)
    assert _shared(Module(a, x.dims, list(x.mats))) is _shared(x)


# -- the Hom memo ------------------------------------------------------------------------


def test_hom_space_keeps_every_pair_of_contents():
    a = algebras(QQ)[0]
    p, s = modules_over(QQ, 0)[1][-1], simple_module(a, 0)
    x = Module(a, p.dims, p.mats)
    h = hom_space(s, x)
    assert hom_space(s, x) is h
    assert hom_space(Module(a, s.dims, s.mats), Module(a, x.dims, x.mats)) is h


def test_a_retyped_module_gets_its_own_solve(monkeypatch):
    solved = []
    real = modules._solve_hom
    monkeypatch.setattr(modules, "_solve_hom", lambda x, y: solved.append(x) or real(x, y))
    x = modules_over(QQ, 1)[1][-1]
    fresh = algebras(QQ)[1]         # its memo is empty
    y = Module(fresh, x.dims, x.mats)
    end = hom_space(y, y)
    assert hom_space(Module(fresh, x.dims, x.mats), Module(fresh, x.dims, x.mats)) is end
    assert len(solved) == 1
    z = retyped(y)
    assert hom_space(z, z) is not end
    assert solved == [y, z]


def hom_requests(monkeypatch):
    """Every (x, y, result) of a hom_space call, from any module that binds it."""
    seen = []
    real = modules.hom_space

    def recording(x, y):
        seen.append((x, y, real(x, y)))
        return seen[-1][2]

    for mod in (modules, complexes, glue, recollement):
        monkeypatch.setattr(mod, "hom_space", recording)
    return seen


# A module with a block of dimension 2 or more at each end of an arrow, as
# a corpus file: on loop pair (3,2) the non-tilting module of
# `test_projective_covers_of_tilting_check_are_pinned`, and on u -> v -> w
# (a b = 0) one with a and b of rank 1.
TWIN = {
    "lp32": {"dims": {"x": 4, "y": 2},
             "arrows": {"d": [["0", "0", "0", "0"], ["1", "0", "0", "0"],
                              ["0", "1", "0", "0"], ["0", "0", "0", "0"]],
                        "t": [["0", "0"], ["1", "0"]],
                        "f": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}},
    "a3": {"dims": {"u": 2, "v": 2, "w": 1},
           "arrows": {"a": [["1", "0"], ["0", "0"]], "b": [["0", "1"]]}},
}


def reversed_basis(doc):
    """The module with the basis of every block in reverse order: another
    content with the same dims."""
    return {"dims": doc["dims"],
            "arrows": {k: [row[::-1] for row in m[::-1]] for k, m in doc["arrows"].items()}}


@pytest.mark.parametrize("field", ["Q", "F101"])
@pytest.mark.parametrize("corpus", ["default", "twins"])
@pytest.mark.parametrize("algebra, e", [("lp32", "x"), ("a3", "u,v")])
def test_the_memo_gives_what_a_fresh_solve_gives(tmp_path, monkeypatch, algebra, e, corpus,
                                                 field):
    # every Hom space that recollement verify reads, memo hits included, has
    # the basis maps and span vectors that solving its own pair gives.  The
    # twins are a module and its copy in reversed bases, whose Hom spaces to
    # and from any module differ though their dims agree.
    monkeypatch.setenv("TILTKIT_WORKSPACE", str(tmp_path / "ws"))
    doc = A3_DOC if algebra == "a3" else algebra_input_to_json(loop_pair_presentation(3, 2))
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    (tmp_path / "corpus").mkdir()
    if corpus == "twins":
        for name, m in [("m", TWIN[algebra]), ("m-reversed", reversed_basis(TWIN[algebra]))]:
            (tmp_path / "corpus" / f"{name}.json").write_text(json.dumps(m), encoding="utf-8")
    seen = hom_requests(monkeypatch)
    out = tmp_path / "rec.json"
    assert main(["--field", field, "recollement", "verify", str(path), str(tmp_path / "corpus"),
                 "--e", e, "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["corrupted_modules"] == []
    assert len({(id(_shared(x)), id(_shared(y))) for x, y, _ in seen}) < len(seen)
    for x, y, h in seen:
        assert (h.source.dims, h.target.dims) == (x.dims, y.dims)
        assert hom_data(h) == hom_data(modules._solve_hom(x, y))

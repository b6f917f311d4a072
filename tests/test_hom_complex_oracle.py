"""Lifts through quasi-isomorphisms, and Hom_K from the resolved complexes,
against the code they replaced and `tests/reference.py`.

`_lift_through_quasi_iso` solves the block system
[[D_0(P, R), 0], [q o -, D_{-1}(P, Y)]] [g; h] = [0; target] built from the
Hom-complex differential D_n f = (-1)^n d_Y o f - f o d_P.  The oracle below
is the function as it was before, copied verbatim up to its name and with
its solve through `reference.solve`: it wrote its chain-map and homotopy
equations by hand.  Hom_K is compared with `reference.hom_homotopy`
(`conftest.assert_same_hom`).  Every comparison runs over Q and over F_101
and requires equal entries, with types as `conftest.entry_types` reads them.

The two-term complexes of `tests/test_complexes.py` and `tests/test_glue.py`
all have projective terms, so `proj_resolve` returns them with the identity
witness and never lifts.  The lifts are compared here on two-term complexes
of modules of finite projective dimension that are not all projective
(`conftest.two_term_complexes`): tau^{-1}(A e_y) beside the projectives of
loop pairs, whose global dimension is infinite, and the simples, an
injective and a projective of a3z, whose global dimension is finite; each
differential is a basis map, the sum of the basis maps or zero.
"""

import json

import pytest

import tiltkit.complexes
import tiltkit.modules
import tiltkit.recollement
from tiltkit.cli import main
from tiltkit.complexes import (
    Complex,
    ComplexError,
    ResolvedComplex,
    proj_resolve,
    stalk_complex,
)
from tiltkit.formats import algebra_input_to_json
from tiltkit.linalg import Matrix
from tiltkit.modules import hom_space

import reference
from conftest import (
    ALGEBRA_IDS,
    FIELDS,
    LIFT_ALGEBRAS,
    assert_same_hom_over_window,
    complexes_over,
    finite_pd_modules,
    loop_pair_presentation,
    two_term_complexes,
    typed,
)


# -- the code before the change -------------------------------------------------------


def parent_lift_through_quasi_iso(p: Complex, resolved: ResolvedComplex, target_comps,
                                   target_complex: Complex):
    """Find g: p -> resolved.complex and homotopy h with
    witness o g - target = d h + h d, by one joint linear solve."""
    r = resolved.complex
    y = target_complex
    q = resolved.witness
    a = p.algebra
    f = a.field
    g_degrees = [m for m in p.degrees()
                 if not p.term(m).is_zero() and r.term(m) is not None
                 and not r.term(m).is_zero()]
    h_degrees = [m for m in p.degrees()
                 if not p.term(m).is_zero() and y.term(m - 1) is not None
                 and not y.term(m - 1).is_zero()]
    g_homs = {m: hom_space(p.term(m), r.term(m)) for m in g_degrees}
    h_homs = {m: hom_space(p.term(m), y.term(m - 1)) for m in h_degrees}
    offs = {}
    pos = 0
    for m in g_degrees:
        offs[("g", m)] = pos
        pos += g_homs[m].dimension
    for m in h_degrees:
        offs[("h", m)] = pos
        pos += h_homs[m].dimension
    total = pos
    rows = []
    rhs = []

    def add_equations(cspace, build_terms, const_map):
        con = [[f.zero()] * total for _ in range(cspace.dimension)]
        for kind, m, mapper, sgn in build_terms:
            key = (kind, m)
            if key not in offs:
                continue
            basis = (g_homs if kind == "g" else h_homs)[m].basis
            for j, b in enumerate(basis):
                coords = cspace.coordinates_of(mapper(b))
                for rr, val in enumerate(coords):
                    con[rr][offs[key] + j] += sgn * val
        cvec = [f.zero()] * cspace.dimension if const_map is None else \
            cspace.coordinates_of(const_map)
        for rr in range(cspace.dimension):
            rows.append(con[rr])
            rhs.append(cvec[rr])

    # chain condition on g: d_r o g_m - g_{m+1} o d_p = 0
    for m in p.degrees():
        pm = p.term(m)
        if pm.is_zero():
            continue
        tgt = r.term(m + 1)
        if tgt is None or tgt.is_zero():
            continue
        cspace = hom_space(pm, tgt)
        if cspace.dimension == 0:
            continue
        terms = []
        d_r = r.diff(m)
        if d_r is not None:
            terms.append(("g", m, lambda b, d_r=d_r: d_r.compose(b), f.one()))
        d_p = p.diff(m)
        if d_p is not None:
            terms.append(("g", m + 1, lambda b, d_p=d_p: b.compose(d_p), -f.one()))
        add_equations(cspace, terms, None)
    # homotopy condition: q o g_m - target_m = d_y h_m + h_{m+1} d_p
    for m in p.degrees():
        pm = p.term(m)
        if pm.is_zero():
            continue
        ym = y.term(m)
        if ym is None or ym.is_zero():
            if m in target_comps and not target_comps[m].is_zero():
                raise ComplexError("target map hits a zero degree")
            continue
        cspace = hom_space(pm, ym)
        if cspace.dimension == 0:
            continue
        terms = []
        qm = q.component(m)
        if qm is not None:
            terms.append(("g", m, lambda b, qm=qm: qm.compose(b), f.one()))
        d_y = y.diff(m - 1)
        if d_y is not None:
            terms.append(("h", m, lambda b, d_y=d_y: d_y.compose(b), -f.one()))
        d_p = p.diff(m)
        if d_p is not None:
            terms.append(("h", m + 1, lambda b, d_p=d_p: b.compose(d_p), -f.one()))
        const = target_comps.get(m)
        add_equations(cspace, terms, const)
    if rows:
        vec = reference.solve(Matrix(f, rows, cols=total), rhs)
        if vec is None:
            raise ComplexError("comparison lift has no solution; witness is not a quasi-isomorphism")
    else:
        vec = [f.zero()] * total
    g = {}
    for m in g_degrees:
        lo = offs[("g", m)]
        coords = vec[lo: lo + g_homs[m].dimension]
        comp = g_homs[m].from_coordinates(coords)
        if not comp.is_zero():
            g[m] = comp
    h = {}
    for m in h_degrees:
        lo = offs[("h", m)]
        coords = vec[lo: lo + h_homs[m].dimension]
        comp = h_homs[m].from_coordinates(coords)
        h[m] = comp
    return g, h


# -- comparison ------------------------------------------------------------------------


def outcome(fn, *args):
    """fn(*args), or the type and message of the ComplexError it raises."""
    try:
        return fn(*args)
    except ComplexError as err:
        return type(err), str(err)


@pytest.mark.parametrize("index", [0, 2, 5], ids=[ALGEBRA_IDS[i] for i in (0, 2, 5)])
@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_hom_homotopy_matches_parent(field, index):
    cxs = complexes_over(field, index)
    assert assert_same_hom_over_window([(p, y) for p in cxs for y in cxs]) > 0


def lift_summary(lift):
    if not isinstance(lift, tuple) or len(lift) != 2 or not isinstance(lift[0], dict):
        return lift
    return tuple([(m, typed(part[m])) for m in sorted(part)] for part in lift)


@pytest.fixture()
def lifts(monkeypatch):
    """Each call of `_lift_through_quasi_iso` also runs the parent code on
    the same complexes, once per target; the pairs of outcomes are
    collected."""
    pairs = []
    real = tiltkit.complexes._lift_through_quasi_iso

    def both(p, q, targets):
        got = outcome(real, p, q, targets)
        resolved = ResolvedComplex(q.source, q, False)
        for i, target in enumerate(targets):
            want = outcome(parent_lift_through_quasi_iso, p, resolved, target, q.target)
            pairs.append((lift_summary(got if isinstance(got, tuple) else
                                       (got[i][0].comps, got[i][1])), lift_summary(want)))
        return real(p, q, targets)

    monkeypatch.setattr(tiltkit.complexes, "_lift_through_quasi_iso", both)
    return pairs


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
@pytest.mark.parametrize("name", sorted(LIFT_ALGEBRAS))
def test_lift_through_quasi_iso_matches_parent(name, field, lifts):
    a = LIFT_ALGEBRAS[name](field)
    resolved = []
    for x in two_term_complexes(name, a):
        r = proj_resolve(x, 6)
        if not r.truncated:
            resolved.append(r.complex)
    assert lifts and all(got == want for got, want in lifts)
    assert any(isinstance(got[0], list) and got[0] for got, _ in lifts)
    # Hom_K from the resolved complexes, which have up to three terms
    targets = [stalk_complex(m, 0) for m in finite_pd_modules(name, a)[:2]]
    sources = [resolved[0], resolved[-1]]
    assert_same_hom_over_window([(p, y) for p in sources for y in targets + sources[:1]])


# -- hom_space solves of the CLI on loop pair (3,3), pinned ------------------------------

# hom_space keeps its result for each pair of module contents, so a call on
# a pair it has seen is a lookup; the test counts the intertwining systems
# solved (`_solve_hom`), not the calls.  Before hom_layout read End of a
# repeated term from the module cache and every lift along a resolution
# became one solve per call of _lift_through_quasi_iso, `apr` made 20 calls
# and `glue --mode stalk` with T = C made 20.  Before equal modules shared
# their caches and Hom spaces, the three commands made 18, 7 and 11.  While
# only the pairs a caller had asked for were kept, `apr` solved 12 times:
# `endo_triangularity` solved Hom(tau^-1, A e_B) again.  While `tau_inverse`
# also reported whether its input had an injective summand, `apr` solved 11
# times: that report solved Hom spaces against the dual over A^op.


@pytest.mark.parametrize("argv, calls", [
    (["apr", "--e", "x"], 10),
    (["glue", "--e", "x", "--mode", "jshriek"], 5),
    (["glue", "--e", "x", "--mode", "stalk", "-T", "t.json", "--shift", "1"], 5),
])
def test_hom_space_calls_of_the_cli_are_pinned(argv, calls, tmp_path, monkeypatch):
    monkeypatch.setenv("TILTKIT_WORKSPACE", str(tmp_path / "ws"))
    path = tmp_path / "alg33.json"
    path.write_text(json.dumps(algebra_input_to_json(loop_pair_presentation(3, 3)),
                               sort_keys=True), encoding="utf-8")
    # T = C = k[t]/t^3, the stalk tilting module over the corner at y
    (tmp_path / "t.json").write_text(json.dumps(
        {"dims": {"y": 3}, "arrows": {"t": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]}}),
        encoding="utf-8")
    argv = [str(tmp_path / arg) if arg == "t.json" else arg for arg in argv]
    real = tiltkit.modules._solve_hom
    counted = []

    def counting(x, y):
        counted.append((x, y))
        return real(x, y)

    monkeypatch.setattr(tiltkit.modules, "_solve_hom", counting)
    assert main([argv[0], str(path)] + argv[1:]) == 0
    assert len(counted) == calls


# The module is the sum of pieces (3,2) and (1,0) of `loop_pair_module_doc` in
# perfbench/inputs.py, unrebased: the non-tilting module of the benchmark's
# `tilting-check`.  Its syzygies alternate with period 2, and the cover of a
# syzygy is kept for every module with its content, so the resolution to the
# default bound builds 3 covers.  Before equal modules shared their caches it
# built 13, one per term.


def test_projective_covers_of_tilting_check_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv("TILTKIT_WORKSPACE", str(tmp_path / "ws"))
    path = tmp_path / "alg32.json"
    path.write_text(json.dumps(algebra_input_to_json(loop_pair_presentation(3, 2)),
                               sort_keys=True), encoding="utf-8")
    j3 = [["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"]]
    (tmp_path / "mod.json").write_text(json.dumps(
        {"dims": {"x": 4, "y": 2},
         "arrows": {"d": j3, "t": [["0", "0"], ["1", "0"]],
                    "f": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}}), encoding="utf-8")
    real = tiltkit.modules.projective_cover
    covered = []

    def counting(x):
        covered.append(x)
        return real(x)

    for mod in (tiltkit.modules, tiltkit.recollement):
        monkeypatch.setattr(mod, "projective_cover", counting)
    assert main(["tilting-check", str(path), str(tmp_path / "mod.json")]) == 1
    assert len(covered) == 3

"""Hom_K as the cohomology of the Hom complex, against the code it replaced.

`hom_homotopy` takes ker D_n / im D_{n-1} of the Hom-complex differential
D_n f = (-1)^n d_Y o f - f o d_P, and `_lift_through_quasi_iso` solves the
block system [[D_0(P, R), 0], [q o -, D_{-1}(P, Y)]] [g; h] = [0; target]
built from the same differential.  The oracles below are the two functions
as they were before, copied verbatim up to their names and with their
solves through `conftest.rref_solve`: each wrote its chain-map and boundary
equations by hand.  `parent_hom_homotopy` returns the old `HomotopyHom` as
`ParentHomotopyHom`.  Every comparison runs over Q and over F_101 and
requires equal entries of equal types, except that class coordinates need
only agree in `entry_types`: over Q an integral one may be an int in one
and a Fraction in the other.

The two-term complexes of `tests/test_complexes.py` and `tests/test_glue.py`
all have projective terms, so `proj_resolve` returns them with the identity
witness and never lifts.  The lifts are compared here on two-term complexes
of modules of finite projective dimension that are not all projective:
tau^{-1}(A e_y) beside the projectives of loop pairs, whose global dimension
is infinite, and the simples, an injective and a projective of a3z, whose
global dimension is finite; each differential is a basis map, the sum of the
basis maps or zero.
"""

import functools
import json
import random
from dataclasses import dataclass, field

import pytest

import tiltkit.complexes
import tiltkit.modules
import tiltkit.recollement
from tiltkit.cli import main
from tiltkit.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    ResolvedComplex,
    forced_window,
    hom_homotopy,
    proj_resolve,
    shift_complex,
    stalk_complex,
)
from tiltkit.formats import algebra_input_to_json
from tiltkit.linalg import QQ, Matrix, PrimeField
from tiltkit.modules import (
    ModuleMap,
    direct_sum,
    hom_space,
    projective_module,
    same_algebra,
    simple_module,
)
from tiltkit.translate import tau_inverse

from conftest import (
    SubspaceQuotient,
    a3_zero_relation_algebra,
    entry_types,
    injective_module,
    loop_pair_algebra,
    loop_pair_presentation,
    rref_solve,
)
from test_ext_homotopy import (
    ALGEBRA_IDS,
    assert_same_coordinates,
    complexes_over,
    rebased,
    typed_map,
)

F101 = PrimeField(101)
FIELDS = [QQ, F101]


# -- the code before the change -------------------------------------------------------


@dataclass
class ParentHomotopyHom:
    """Hom_K(P, Y[n]): chain maps modulo null-homotopic maps."""
    source: Complex
    target: Complex
    degree: int
    dim: int
    reps: list = field(default_factory=list)       # ChainMaps P -> Y[n]
    class_quotient: SubspaceQuotient | None = None
    coord_layout: list = field(default_factory=list)
    rep_matrix: Matrix | None = None  # columns = projected coordinates of reps

    def coordinates_of(self, cm: ChainMap):
        coords = []
        for m, h in self.coord_layout:
            comp = cm.component(m)
            if comp is None:
                coords.extend([self.source.algebra.field.zero()] * h.dimension)
            else:
                coords.extend(h.coordinates_of(comp))
        return coords

    def class_coordinates(self, cm: ChainMap):
        """Coefficients of the homotopy class of cm in the chosen rep basis."""
        cls = self.class_quotient.project(self.coordinates_of(cm))
        sol = rref_solve(self.rep_matrix, cls)
        if sol is None:
            raise ComplexError("homotopy class escapes the computed basis")
        return sol


def parent_hom_homotopy(p: Complex, y: Complex, n: int) -> ParentHomotopyHom:
    """Dimension and representatives of Hom_{K}(P, Y[n]) for P a bounded
    complex of projectives, via two nested linear systems (chain maps, then
    null-homotopies)."""
    a = p.algebra
    if not same_algebra(a, y.algebra):
        raise ComplexError("hom between complexes over different algebras")
    f = a.field
    degrees = [m for m in p.degrees()
               if p.term(m) is not None and y.term(m + n) is not None
               and not p.term(m).is_zero() and not y.term(m + n).is_zero()]
    if not degrees:
        return ParentHomotopyHom(p, y, n, 0, [],
                                 SubspaceQuotient(f, 0, []), [], Matrix.zeros(f, 0, 0))
    homs = {m: hom_space(p.term(m), y.term(m + n)) for m in degrees}
    layout = [(m, homs[m]) for m in degrees]
    offs = {}
    pos = 0
    for m, h in layout:
        offs[m] = pos
        pos += h.dimension
    total = pos
    sign = f.one() if n % 2 == 0 else -f.one()
    # chain-map conditions: sign * d_Y o f_m - f_{m+1} o d_P = 0 in
    # Hom(P^m, Y^{m+n+1})
    rows = []
    for m in p.degrees():
        pm = p.term(m)
        if pm is None or pm.is_zero():
            continue
        tgt = y.term(m + n + 1)
        if tgt is None or tgt.is_zero():
            continue
        cspace = hom_space(pm, tgt)
        if cspace.dimension == 0:
            continue
        con = [[f.zero()] * total for _ in range(cspace.dimension)]
        d_y = y.diff(m + n)
        if d_y is not None and m in homs:
            for j, b in enumerate(homs[m].basis):
                coords = cspace.coordinates_of(d_y.compose(b).scale(sign))
                for r, val in enumerate(coords):
                    con[r][offs[m] + j] += val
        d_p = p.diff(m)
        if d_p is not None and (m + 1) in homs:
            for j, b in enumerate(homs[m + 1].basis):
                coords = cspace.coordinates_of(b.compose(d_p))
                for r, val in enumerate(coords):
                    con[r][offs[m + 1] + j] -= val
        rows.extend(row for row in con if any(row))
    if rows:
        chain_vectors = Matrix(f, rows, cols=total).nullspace()
    else:
        chain_vectors = [v for v in Matrix.identity(f, total).columns()]
    # boundaries: h = (h_m: P^m -> Y^{m+n-1}); boundary(h)_m =
    # sign * d_Y o h_m + h_{m+1} o d_P
    h_degrees = [m for m in p.degrees()
                 if p.term(m) is not None and y.term(m + n - 1) is not None
                 and not p.term(m).is_zero() and not y.term(m + n - 1).is_zero()]
    h_homs = {m: hom_space(p.term(m), y.term(m + n - 1)) for m in h_degrees}
    boundaries = []
    for m in h_degrees:
        for b in h_homs[m].basis:
            vec = [f.zero()] * total
            d_y = y.diff(m + n - 1)
            if d_y is not None and m in homs:
                coords = homs[m].coordinates_of(d_y.compose(b).scale(sign))
                for r, val in enumerate(coords):
                    vec[offs[m] + r] += val
            d_p = p.diff(m - 1)
            if d_p is not None and (m - 1) in homs:
                coords = homs[m - 1].coordinates_of(b.compose(d_p))
                for r, val in enumerate(coords):
                    vec[offs[m - 1] + r] += val
            if any(vec):
                boundaries.append(vec)
    sq = SubspaceQuotient(f, total, boundaries)
    # one elimination of [boundaries | cycles]: a pivot past the boundaries is
    # a cycle outside the span of the boundaries and the earlier cycles
    _, _, pivots = Matrix.from_columns(
        f, boundaries + chain_vectors, rows=total).rank_and_rref()
    reps_coords = [chain_vectors[c - len(boundaries)] for c in pivots if c >= len(boundaries)]
    chosen = [sq.project(v) for v in reps_coords]
    reps = []
    for v in reps_coords:
        comps = {}
        for m, h in layout:
            coords = v[offs[m]: offs[m] + h.dimension]
            comps[m] = h.from_coordinates(coords)
        reps.append(ChainMap(p, shift_complex(y, n), comps, check=False))
    rep_matrix = Matrix.from_columns(f, chosen, rows=sq.quotient_dim)
    return ParentHomotopyHom(p, y, n, len(reps_coords), reps, sq, layout, rep_matrix)


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
        vec = rref_solve(Matrix(f, rows, cols=total), rhs)
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


def hom_summary(h):
    classes = [h.class_coordinates(r) for r in h.reps]
    return (h.dim, classes, entry_types(h.source.algebra.field, classes),
            [[(m, typed_map(r.comps[m])) for m in sorted(r.comps)] for r in h.reps])


def assert_same_hom(p, y, n):
    want = parent_hom_homotopy(p, y, n)
    got = hom_homotopy(p, y, n)
    assert hom_summary(got) == hom_summary(want)
    probes = list(want.reps)
    if len(probes) >= 2:
        probes.append(probes[0].scale(p.algebra.field.of(3)).add(probes[1]))
    for probe in probes:
        assert_same_coordinates(p.algebra.field, got.class_coordinates(probe),
                                want.class_coordinates(probe))
    return got.dim


def assert_same_hom_over_window(pairs):
    seen = 0
    for p, y in pairs:
        lo, hi = forced_window(p, y)
        for n in range(lo - 1, hi + 2):
            seen += assert_same_hom(p, y, n)
    return seen


@pytest.mark.parametrize("index", [0, 2, 5], ids=[ALGEBRA_IDS[i] for i in (0, 2, 5)])
@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_hom_homotopy_matches_parent(field, index):
    cxs = complexes_over(field, index)
    assert assert_same_hom_over_window([(p, y) for p in cxs for y in cxs]) > 0


def lift_summary(lift):
    if not isinstance(lift, tuple) or len(lift) != 2 or not isinstance(lift[0], dict):
        return lift
    return tuple([(m, typed_map(part[m])) for m in sorted(part)] for part in lift)


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


LIFT_ALGEBRAS = {
    "loop22": lambda f: loop_pair_algebra(2, 2, field=f),
    "loop33": lambda f: loop_pair_algebra(3, 3, field=f),
    "a3z": a3_zero_relation_algebra,
}


def finite_pd_modules(name, a):
    """Modules of finite projective dimension, not all projective."""
    projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
    if name == "a3z":
        injectives = [injective_module(a, i) for i in range(a.idempotent_count)]
        return [simple_module(a, i) for i in range(a.idempotent_count)] + \
            injectives[:1] + projectives[-1:]
    tau = tau_inverse(projectives[1]).module
    return [tau, rebased(direct_sum([tau, projectives[0]])[0], random.Random(5))] + \
        projectives


def two_term_complexes(name, a):
    mods = finite_pd_modules(name, a)
    out = []
    for x in mods:
        for y in mods:
            basis = hom_space(x, y).basis
            diffs = basis[:1] + [ModuleMap.zero(x, y)]
            if len(basis) > 1:
                diffs.append(functools.reduce(ModuleMap.add, basis))
            for d in diffs:
                cx = Complex(a, 0, [x, y], [d])
                if not cx.all_projective():
                    out.append(cx)
    return out


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

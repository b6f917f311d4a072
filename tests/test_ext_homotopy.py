"""Ext as a homotopy Hom: `ext` through `hom_homotopy`, compared with the
computations it replaced.

The oracles below are copied verbatim from the code before the change, up
to their names: `oracle_ext` (with its `OracleExtGroup`) is the old `ext`,
which took the homology of Hom(P_bullet, y) at position n by hand, and
`oracle_hom_homotopy` (with `OracleHomotopyHom`) is the old `hom_homotopy`.
Their solves go through `conftest.rref_solve`, which gives the solution the
old factor-once solve gave.  Both pick their representatives with one
`span_basis` per candidate; the new code picks the cycles at which no
boundary ends (`linalg.reversed_span`).  Each test requires equal
dimensions and equal representative components (equal entries of equal
types).  Class coordinates must be equal and agree in `entry_types`: over Q
an integral one may be an int in one and a Fraction in the other.
"""

import functools
import random
from dataclasses import dataclass, field

import pytest

import tiltkit.modules
from tiltkit.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    direct_sum_complexes,
    forced_window,
    hom_homotopy,
    resolution_complex,
    shift_complex,
    stalk_complex,
)
from tiltkit.linalg import QQ, Matrix, PrimeField, span_basis
from tiltkit.modules import (
    HomSpace,
    Module,
    ModuleError,
    ModuleMap,
    Resolution,
    direct_sum,
    ext,
    hom_space,
    min_projective_resolution,
    projective_module,
    regular_module,
    same_algebra,
    simple_module,
    zero_module,
)

from conftest import (
    SubspaceQuotient,
    a3_zero_relation_algebra,
    entry_types,
    loop_pair_algebra,
    padded_resolution,
    rref_solve,
)

F101 = PrimeField(101)
FIELDS = [QQ, F101]
LOOP_PAIRS = [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]
BOUND = 2


# -- the old code -----------------------------------------------------------------


@dataclass
class OracleExtGroup:
    dim: int | None
    cocycles: list | None
    known: bool
    degree: int
    hom: HomSpace | None = None
    class_quotient: SubspaceQuotient | None = None
    resolution: Resolution | None = None
    rep_matrix: Matrix | None = None  # columns = projected coordinates of cocycles

    def class_coordinates(self, map_: ModuleMap):
        """Coordinates of a cocycle's class in the chosen representative basis."""
        cls = self.class_quotient.project(self.hom.coordinates_of(map_))
        sol = rref_solve(self.rep_matrix, cls)
        if sol is None:
            raise ModuleError("class does not lie in the Ext group")
        return sol


def oracle_ext(x, y, n, bound=12, resolution=None):
    if n < 0:
        raise ModuleError("ext degree must be >= 0")
    res = resolution if resolution is not None else \
        min_projective_resolution(x, max(bound, n + 1))
    if not res.completed and res.length < n + 1:
        return OracleExtGroup(None, None, False, n, resolution=res)
    if res.completed and n > res.length:
        return OracleExtGroup(0, [], True, n, resolution=res)
    f = x.algebra.field
    h_n = hom_space(res.modules[n], y)
    # delta_n: Hom(P_n, y) -> Hom(P_{n+1}, y)
    if n + 1 <= res.length:
        h_np = hom_space(res.modules[n + 1], y)
        d_np = res.differentials[n]
        cols = [h_np.coordinates_of(b.compose(d_np)) for b in h_n.basis]
        delta_n = Matrix.from_columns(f, cols, rows=h_np.dimension) if h_n.basis \
            else Matrix.zeros(f, h_np.dimension, 0)
        kernel = delta_n.nullspace() if h_n.basis else []
    else:
        kernel = [v for v in Matrix.identity(f, h_n.dimension).columns()]
    if n == 0:
        boundaries = []
    else:
        h_prev = hom_space(res.modules[n - 1], y)
        d_n = res.differentials[n - 1]
        boundaries = [h_n.coordinates_of(b.compose(d_n)) for b in h_prev.basis]
    sq = SubspaceQuotient(f, h_n.dimension, boundaries)
    # pick kernel vectors independent modulo boundaries
    reps = []
    chosen = []
    for v in kernel:
        cand = chosen + [sq.project(v)]
        if len(span_basis(f, cand, sq.quotient_dim)) > len(chosen):
            chosen = cand
            reps.append(v)
    cocycles = [h_n.from_coordinates(v) for v in reps]
    return OracleExtGroup(len(reps), cocycles, True, n, hom=h_n, class_quotient=sq,
                          resolution=res,
                          rep_matrix=Matrix.from_columns(f, chosen, rows=sq.quotient_dim))


@dataclass
class OracleHomotopyHom:
    source: Complex
    target: Complex
    degree: int
    dim: int | None
    known: bool
    reps: list = field(default_factory=list)       # ChainMaps P -> Y[n]
    hom_spaces: dict = field(default_factory=dict)  # m -> HomSpace(P^m, Y^{m+n})
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


def oracle_hom_homotopy(p, y, n, known=True):
    a = p.algebra
    if not same_algebra(a, y.algebra):
        raise ComplexError("hom between complexes over different algebras")
    f = a.field
    if not known:
        return OracleHomotopyHom(p, y, n, None, False)
    degrees = [m for m in p.degrees()
               if p.term(m) is not None and y.term(m + n) is not None
               and not p.term(m).is_zero() and not y.term(m + n).is_zero()]
    if not degrees:
        return OracleHomotopyHom(p, y, n, 0, True, [],
                                 {}, SubspaceQuotient(f, 0, []), [], Matrix.zeros(f, 0, 0))
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
    reps_coords = []
    chosen = []
    for v in chain_vectors:
        cand = chosen + [sq.project(v)]
        if len(span_basis(f, cand, sq.quotient_dim)) > len(chosen):
            chosen.append(sq.project(v))
            reps_coords.append(v)
    reps = []
    for v in reps_coords:
        comps = {}
        for m, h in layout:
            coords = v[offs[m]: offs[m] + h.dimension]
            comps[m] = h.from_coordinates(coords)
        reps.append(ChainMap(p, shift_complex(y, n), comps, check=False))
    rep_matrix = Matrix.from_columns(f, chosen, rows=sq.quotient_dim)
    return OracleHomotopyHom(p, y, n, len(reps_coords), True, reps, homs, sq, layout,
                             rep_matrix)


# -- cases --------------------------------------------------------------------------


def typed(values):
    return [(type(v), v) for v in values]


def typed_map(m: ModuleMap):
    return [[typed(row) for row in c.data] for c in m.components]


def assert_same_coordinates(field, got, want):
    """Equal class coordinates.  Over Q an integral one may be an int or a
    Fraction, as the elimination that reached it decides, so only their
    values and `entry_types` are compared."""
    assert got == want
    assert entry_types(field, [got]) == entry_types(field, [want])


def algebras(field):
    return [loop_pair_algebra(a, b, field=field) for a, b in LOOP_PAIRS] + \
        [a3_zero_relation_algebra(field)]


ALGEBRA_IDS = [f"loop{a}{b}" for a, b in LOOP_PAIRS] + ["a3z"]


def unimodular(field, rng, n):
    """A seeded integer matrix of determinant +-1 read over `field`: a
    product of elementary row additions and a row permutation."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return Matrix(field, [[field.of(v) for v in row] for row in rows], cols=n)


def rebased(x, rng):
    """x in a seeded unimodular basis of each block."""
    a = x.algebra
    gs = [unimodular(a.field, rng, d) for d in x.dims]
    invs = [g.inverse() if g.rows else g for g in gs]
    mats = [gs[a.block_row[k]] * m * invs[a.block_col[k]] for k, m in enumerate(x.mats)]
    out = Module(a, x.dims, mats)
    out.validate()
    return out


@functools.cache
def modules_over(field, index):
    """Simples, projectives, the regular module and a seeded sum of
    projectives in a unimodular basis of each block."""
    a = algebras(field)[index]
    rng = random.Random(3 + index)
    projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
    total, _, _ = direct_sum([rng.choice(projectives) for _ in range(2)])
    return a, [simple_module(a, i) for i in range(a.idempotent_count)] + projectives + \
        [regular_module(a), rebased(total, rng)]


def resolutions(x, padded):
    """The minimal resolution of x, truncated at BOUND, and with `padded`
    also its variant with one more free summand in P_0 and P_1."""
    res = min_projective_resolution(x, BOUND)
    return [res, padded_resolution(res)] if padded else [res]


def ext_on(x, y, n, res):
    """ext(x, y, n) computed on the resolution res of x, which decides
    degree n: it is complete, or it reaches P_{n+1}."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiltkit.modules, "min_projective_resolution", lambda *_: res)
        return ext(x, y, n)


def assert_same_ext(x, y, res):
    """ext against the oracle on res in each degree res decides, and on
    minimal resolutions deep enough in the two degrees past a truncated res."""
    top = (res.pd if res.completed else res.length) + 1
    for n in range(top + 1):
        if res.completed or n < res.length:
            want, got = oracle_ext(x, y, n, resolution=res), ext_on(x, y, n, res)
        else:
            want, got = oracle_ext(x, y, n, bound=n + 1), ext(x, y, n, bound=n + 1)
        assert want.known
        assert (got.dim, got.degree) == (want.dim, want.degree)
        assert [typed_map(c) for c in got.cocycles] == [typed_map(c) for c in want.cocycles]
        probes = list(want.cocycles)
        used = want.resolution
        if n > 0 and want.cocycles:
            d = used.differentials[n - 1]
            for b in hom_space(used.modules[n - 1], y).basis[:2]:
                probes.append(want.cocycles[-1].add(b.compose(d)))
        if len(want.cocycles) >= 2:
            probes.append(want.cocycles[0].scale(y.algebra.field.of(3)).add(want.cocycles[1]))
        for probe in probes:
            assert_same_coordinates(y.algebra.field, got.class_coordinates(probe),
                                    want.class_coordinates(probe))


# -- Ext --------------------------------------------------------------------------------


@pytest.mark.parametrize("index", range(len(ALGEBRA_IDS)), ids=ALGEBRA_IDS)
@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_ext_matches_oracle(field, index):
    a, mods = modules_over(field, index)
    # targets: a simple, a projective, the rebased sum and the zero module
    ys = [mods[0], mods[a.idempotent_count], mods[-1], zero_module(a)]
    for i, x in enumerate(mods):
        # padded resolutions of the first simple and of the regular module
        for res in resolutions(x, i in (0, len(mods) - 2)):
            for y in ys:
                assert_same_ext(x, y, res)


def test_ext_of_zero_target_is_zero():
    a = a3_zero_relation_algebra()
    s = simple_module(a, 0)
    for n in range(3):
        e = ext(s, zero_module(a), n)
        assert (e.dim, e.cocycles) == (0, [])
        p_n = e.resolution.modules[n]
        assert e.class_coordinates(ModuleMap.zero(p_n, zero_module(a))) == []


# -- Hom_K between complexes ---------------------------------------------------------------


def complexes_over(field, index):
    """Resolution complexes, a shifted one and a degreewise direct sum."""
    _, mods = modules_over(field, index)
    out = [resolution_complex(min_projective_resolution(x, 2)) for x in mods[:3]]
    out.append(shift_complex(out[0], 1))
    out.append(direct_sum_complexes([out[1], out[2]])[0])
    return out


@pytest.mark.parametrize("index", [0, 1, 5], ids=[ALGEBRA_IDS[i] for i in (0, 1, 5)])
@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_hom_homotopy_matches_oracle(field, index):
    cxs = complexes_over(field, index)
    seen = 0
    for p in cxs:
        for y in cxs:
            lo, hi = forced_window(p, y)
            for n in range(lo - 1, hi + 2):
                want = oracle_hom_homotopy(p, y, n)
                got = hom_homotopy(p, y, n)
                assert got.dim == want.dim
                assert [sorted(r.comps) for r in got.reps] == \
                    [sorted(r.comps) for r in want.reps]
                for g, w in zip(got.reps, want.reps):
                    assert [typed_map(g.comps[m]) for m in sorted(g.comps)] == \
                        [typed_map(w.comps[m]) for m in sorted(w.comps)]
                probes = list(want.reps)
                if len(probes) >= 2:
                    probes.append(probes[0].scale(field.of(3)).add(probes[1]))
                for probe in probes:
                    assert_same_coordinates(field, got.class_coordinates(probe),
                                            want.class_coordinates(probe))
                seen += got.dim
    assert seen > 0

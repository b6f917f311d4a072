"""Coordinates read off echelon bases, against the solves they replaced.

`HomSpace.coordinates_of` and `submodule` now read the coordinates of a
vector off a basis that is already echelon (`EchelonBasis.coordinates`): a
`hom_space` basis is the kernel basis of the intertwining system, each vector
1 at its own free column and 0 at the other free columns, and a `submodule`
block is an rref, each row 1 at its own pivot and 0 at the others'.  An exact
residual check then decides membership.  `hom_space` builds its rows from the
generators' action matrices directly.  The oracles below are the parent's
`HomSpace` (its `coordinates_of` solves against the basis matrix),
`hom_space` and `submodule`, copied verbatim up to their names, except that
their solves go through `conftest.rref_solve`, as the factor-once solve
they used is gone, and that `ParentHomSpace` eliminates its basis matrix
once for all its lookups.  Both must give the same Hom bases, coordinates,
refusals, submodule actions and inclusions, entry for entry, on modules in a
seeded basis over Q and F_101.

`is_selfinjective_local` now resolves each simple to depth 2, which is all
Ext^1 needs; the old bound, copied below, resolved k[t]/t^b to depth b + 1.
"""

import functools
import random
from dataclasses import dataclass

import pytest

from tiltkit.algebra import corner_algebra, is_selfinjective_local
from tiltkit.linalg import Matrix
from tiltkit.modules import (
    DecompositionError,
    Module,
    ModuleError,
    ModuleMap,
    _block_parts,
    _flatten_components,
    decompose_instances,
    ext,
    hom_space,
    kernel_of,
    projective_cover,
    regular_module,
    same_algebra,
    simple_module,
    submodule,
    zero_module,
)

from conftest import (
    a2_algebra,
    a3_zero_relation_algebra,
    entry_types,
    loop_pair_algebra,
    matrix2_algebra,
    nilpotent_loop_algebra,
    product_kk_algebra,
    rref_solve,
)
from test_algebra_generators import a_generators
from test_ext_homotopy import ALGEBRA_IDS, FIELDS, modules_over

# -- the code before the change -------------------------------------------------------


@dataclass
class ParentHomSpace:
    source: Module
    target: Module
    basis: list           # ModuleMaps
    matrix: Matrix        # columns = flattened coordinates of the basis maps

    @property
    def dimension(self):
        return len(self.basis)

    @functools.cached_property
    def _solver(self):
        """One elimination for every lookup.  The basis maps are independent,
        so a solution is unique: it is read off rows at which the columns of
        the basis matrix stay independent, through the inverse of the square
        matrix those rows form."""
        _, _, rows = self.matrix.transpose().rank_and_rref()
        square = Matrix(self.matrix.field, [self.matrix.data[r] for r in rows],
                        cols=self.dimension)
        return rows, square.inverse()

    def coordinates_of(self, map_: ModuleMap):
        flat = _flatten_components(map_.components)
        if self.dimension == 0:
            if any(flat):
                raise ModuleError("map not in hom space")
            return []
        rows, inverse = self._solver
        sol = inverse.apply([flat[r] for r in rows])
        if self.matrix.apply(sol) != flat:
            raise ModuleError("map not in hom space")
        return sol


def parent_hom_space(x: Module, y: Module) -> ParentHomSpace:
    """Basis of Hom_A(x, y) by solving the intertwining system on a
    generating set of the algebra (idempotent blocks are built in)."""
    if not same_algebra(x.algebra, y.algebra):
        raise ModuleError("hom between modules over different algebras")
    a = x.algebra
    f = a.field
    n = len(x.dims)
    sizes = [y.dims[i] * x.dims[i] for i in range(n)]
    offs = [sum(sizes[:i]) for i in range(n)]
    total_unknowns = sum(sizes)

    def unknown(i, r, c):
        return offs[i] + r * x.dims[i] + c

    rows = []
    z = f.zero()
    for gvec, gr, gc in a_generators(a):
        gx = x.block_action(gvec, gr, gc)
        gy = y.block_action(gvec, gr, gc)
        # component[gr] * gx == gy * component[gc]
        for al in range(y.dims[gr]):
            for be in range(x.dims[gc]):
                row = [z] * total_unknowns
                for gm in range(x.dims[gr]):
                    if gx.data[gm][be]:
                        row[unknown(gr, al, gm)] = row[unknown(gr, al, gm)] + gx.data[gm][be]
                for gm in range(y.dims[gc]):
                    if gy.data[al][gm]:
                        row[unknown(gc, gm, be)] = row[unknown(gc, gm, be)] - gy.data[al][gm]
                if any(row):
                    rows.append(row)
    if total_unknowns == 0:
        return ParentHomSpace(x, y, [], Matrix.zeros(f, 0, 0))
    if rows:
        null = Matrix(f, rows, cols=total_unknowns).nullspace()
    else:
        null = Matrix.zeros(f, 1, total_unknowns).nullspace()
    basis = []
    for v in null:
        comps = []
        for i in range(n):
            block = [[v[unknown(i, r, c)] for c in range(x.dims[i])]
                     for r in range(y.dims[i])]
            comps.append(Matrix(f, block, cols=x.dims[i]))
        basis.append(ModuleMap(x, y, comps))
    mat = Matrix.from_columns(f, [_flatten_components(b.components) for b in basis],
                              rows=sum(sizes))
    return ParentHomSpace(x, y, basis, mat)


def parent_submodule(module, vectors, check_stable=True):
    """The submodule spanned by total-coordinate vectors.

    Returns (sub Module, inclusion ModuleMap).  Vectors must span an
    action-stable subspace; per-block components are taken because submodules
    are graded by the idempotent decomposition.
    """
    a = module.algebra
    f = a.field
    parts = _block_parts(module, vectors)
    dims = [len(p) for p in parts]
    incl = [Matrix.from_columns(f, parts[i], rows=module.dims[i]) for i in range(len(dims))]
    mats = []
    for k in range(a.dim):
        r, c = a.block_row[k], a.block_col[k]
        cols = []
        for v in parts[c]:
            w = module.mats[k].apply(v)
            sol = rref_solve(incl[r], w)
            if sol is None:
                raise ModuleError("subspace is not action-stable")
            cols.append(sol)
        mats.append(Matrix.from_columns(f, cols, rows=dims[r]) if cols
                    else Matrix.zeros(f, dims[r], 0))
    sub = Module(a, dims, mats)
    inc_map = ModuleMap(sub, module, incl)
    if check_stable:
        inc_map.check_intertwines()
    return sub, inc_map


def parent_is_selfinjective_local(c):
    """Verdicts (local, self-injective) with failing witnesses.

    local: dim(C / rad C) == 1.  self-injective: Ext^1(S, C) = 0 for every
    simple S, which forces Ext^1(-, C) = 0 on all finite-dimensional modules.
    """
    local = (c.dim - c.radical_dim()) == 1
    witnesses = []
    reg = regular_module(c)
    selfinj = True
    for i in range(c.idempotent_count):
        s = simple_module(c, i)
        if s.total_dim == 0:
            continue
        e = ext(s, reg, 1, bound=max(4, c.dim + 1))
        if e.dim is None or e.dim != 0:
            selfinj = False
            witnesses.append((c.idempotent_names[i], e.dim))
    return local, selfinj, witnesses


# -- helpers ----------------------------------------------------------------------------

CASES = [(field, index) for field in FIELDS for index in range(len(ALGEBRA_IDS))]
CASE_IDS = [f"{field.name}-{name}" for field in FIELDS for name in ALGEBRA_IDS]


@functools.cache
def setting(field, index):
    """The algebra, its test modules (simples, projectives, the regular
    module, a rebased sum of projectives) and the zero module."""
    a, mods = modules_over(field, index)
    return a, mods + [zero_module(a)]


def pairs(mods):
    """Every module against a simple, a projective, the rebased sum and the
    zero module, and the rebased sum against every module."""
    n = mods[0].algebra.idempotent_count
    targets = [mods[0], mods[n], mods[-2], mods[-1]]
    return [(x, y) for x in mods for y in targets] + [(mods[-2], y) for y in mods]


def assert_same_matrix(field, got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.data == want.data
    assert entry_types(field, got.data) == entry_types(field, want.data)


def assert_same_map(field, got, want):
    assert len(got.components) == len(want.components)
    for g, w in zip(got.components, want.components):
        assert_same_matrix(field, g, w)


def members(field, x, h, rng):
    """The maps in h whose coordinates are looked up: the composites
    `endo_algebra` asks for when x is h's source and target (products of
    basis maps and the idempotents of the summand instances), and seeded
    random combinations of the basis with their coefficients (None where
    unknown)."""
    out = []
    if h.source is x and h.target is x and h.dimension:
        out += [(b2.compose(b1), None) for b1 in h.basis for b2 in h.basis]
        try:
            out += [(incl.compose(proj), None) for _, proj, incl in decompose_instances(x)]
        except DecompositionError:      # over F_p when End(x) is not local
            pass
    for _ in range(3):
        coeffs = [field.of(rng.randint(-3, 3)) for _ in h.basis]
        m = ModuleMap.zero(h.source, h.target)
        for c, b in zip(coeffs, h.basis):
            m = m.add(b.scale(c))
        out.append((m, coeffs))
    return out


def bumped(m, v, i, j):
    """m with 1 added to entry (i, j) of component v."""
    f = m.source.algebra.field
    comps = [Matrix(f, c.data) if c.rows else c for c in m.components]
    comps[v].data[i][j] = comps[v].data[i][j] + f.one()
    return ModuleMap(m.source, m.target, comps)


# -- equal to the oracle ----------------------------------------------------------------


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_hom_space_matches_oracle(field, index):
    _, mods = setting(field, index)
    for x, y in pairs(mods):
        got, want = hom_space(x, y), parent_hom_space(x, y)
        assert got.dimension == want.dimension
        for g, w in zip(got.basis, want.basis):
            assert_same_map(field, g, w)
        vectors = want.matrix.columns() if want.dimension else []
        assert got.span.vectors == vectors
        assert entry_types(field, got.span.vectors) == entry_types(field, vectors)


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_coordinates_match_oracle(field, index):
    _, mods = setting(field, index)
    rng = random.Random(11 + index)
    refused = 0
    for x, y in pairs(mods) + [(mods[-3], mods[-3])]:     # and the regular module
        got, want = hom_space(x, y), parent_hom_space(x, y)
        for m, coeffs in members(field, x, got, rng):
            coords = got.coordinates_of(m)
            assert coords == want.coordinates_of(m)
            assert coeffs is None or coords == coeffs
            # one entry off: refused exactly where the oracle refuses it
            cells = [(v, i, j) for v, c in enumerate(m.components)
                     for i in range(c.rows) for j in range(c.cols)]
            if not cells:
                continue
            off = bumped(m, *rng.choice(cells))
            try:
                expected = want.coordinates_of(off)
            except ModuleError:
                refused += 1
                with pytest.raises(ModuleError, match="map not in hom space"):
                    got.coordinates_of(off)
            else:
                assert got.coordinates_of(off) == expected
    assert refused >= 10


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_cover_kernels_match_oracle(field, index):
    _, mods = setting(field, index)
    for x in mods[:-1]:
        cover = projective_cover(x)
        p = cover.projective
        # the vectors kernel_of spans: blockwise nullspaces of the cover map
        vectors = []
        for i, m in enumerate(cover.map.components):
            lo, _ = p.block_slice(i)
            for v in m.nullspace():
                full = [field.zero()] * p.total_dim
                full[lo:lo + len(v)] = v
                vectors.append(full)
        want_sub, want_incl = parent_submodule(p, vectors, check_stable=False)
        for sub, incl in [(cover.kernel, cover.inclusion), kernel_of(cover.map),
                          submodule(p, vectors)]:
            assert sub.dims == want_sub.dims
            for g, w in zip(sub.mats, want_sub.mats):
                assert_same_matrix(field, g, w)
            assert_same_map(field, incl, want_incl)


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_unstable_subspace_is_refused_like_the_oracle(field, index):
    a, mods = setting(field, index)
    refused = 0
    for x in mods[:-1]:
        for t in range(x.total_dim):
            unit = [field.zero()] * x.total_dim
            unit[t] = field.one()
            try:
                want_sub, want_incl = parent_submodule(x, [unit], check_stable=False)
            except ModuleError:
                refused += 1
                with pytest.raises(ModuleError, match="not action-stable"):
                    submodule(x, [unit])
            else:
                sub, incl = submodule(x, [unit])
                for g, w in zip(sub.mats, want_sub.mats):
                    assert_same_matrix(field, g, w)
                assert_same_map(field, incl, want_incl)
    assert refused


# -- Ext^1 from a resolution of length 2 ----------------------------------------------


def selfinjective_cases():
    """k[t]/t^b for b = 1..6 (named tb), and the fixture algebras with each
    of their one-vertex corners."""
    out = [(f"t{b}", nilpotent_loop_algebra(b)) for b in range(1, 7)]
    fixtures = [(f"lp{a}{b}", loop_pair_algebra(a, b))
                for a, b in [(1, 2), (2, 2), (3, 2), (3, 3), (4, 3)]]
    fixtures += [("a2", a2_algebra()), ("kk", product_kk_algebra()),
                 ("mat2", matrix2_algebra()), ("a3z", a3_zero_relation_algebra())]
    for name, a in fixtures:
        out.append((name, a))
        out += [(f"{name}-e{i}", corner_algebra(a, [i]).algebra)
                for i in range(a.idempotent_count)]
    return out


SELFINJECTIVE_CASES = selfinjective_cases()


@pytest.mark.parametrize("c", [c for _, c in SELFINJECTIVE_CASES],
                         ids=[name for name, _ in SELFINJECTIVE_CASES])
def test_selfinjective_verdicts_match_the_deep_resolution(c):
    assert is_selfinjective_local(c) == parent_is_selfinjective_local(c)

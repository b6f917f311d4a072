"""Coordinates read off echelon bases, against `tests/reference.py`.

`HomSpace.coordinates_of` and `submodule` read the coordinates of a vector
off a basis that is already echelon (`EchelonBasis.coordinates`): a
`hom_space` basis is the kernel basis of the intertwining system, each vector
1 at its own free column and 0 at the other free columns, and a `submodule`
block is an rref, each row 1 at its own pivot and 0 at the others'.  An exact
residual check then decides membership.  `hom_space` builds its rows from the
generators' action matrices only.  `reference.hom` solves the intertwining
equations of every basis element, which have the same solutions, so both
give the same basis; `reference.coordinates` and `reference.submodule`
solve for coordinates.  Hom bases, coordinates, refusals, submodule actions
and inclusions must agree entry for entry, with types as
`conftest.entry_types` reads them, on modules in a seeded basis over Q and
F_101.

`is_selfinjective_local` now resolves each simple to depth 2, which is all
Ext^1 needs; the old bound, copied below, resolved k[t]/t^b to depth b + 1.
"""

import functools
import random

import pytest

from tiltkit.algebra import corner_algebra, is_selfinjective_local
from tiltkit.linalg import Matrix
from tiltkit.modules import (
    DecompositionError,
    ModuleError,
    ModuleMap,
    decompose_instances,
    ext,
    hom_space,
    kernel_of,
    projective_cover,
    regular_module,
    simple_module,
    submodule,
    zero_module,
)

import reference
from conftest import (
    ALGEBRA_IDS,
    FIELDS,
    a2_algebra,
    a3_zero_relation_algebra,
    loop_pair_algebra,
    matrix2_algebra,
    modules_over,
    nilpotent_loop_algebra,
    product_kk_algebra,
    typed,
)

# -- the code before the change -------------------------------------------------------


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


# -- equal to the reference -------------------------------------------------------------


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_hom_space_matches_oracle(field, index):
    _, mods = setting(field, index)
    for x, y in pairs(mods):
        got, want = hom_space(x, y), reference.hom(x, y)
        assert [typed(b) for b in got.basis] == [typed(b) for b in want]
        assert [typed(v, field) for v in got.span.vectors] == \
            [typed(reference.flatten(b), field) for b in want]


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_coordinates_match_oracle(field, index):
    _, mods = setting(field, index)
    rng = random.Random(11 + index)
    refused = 0
    for x, y in pairs(mods) + [(mods[-3], mods[-3])]:     # and the regular module
        got, basis = hom_space(x, y), reference.hom(x, y)
        for m, coeffs in members(field, x, got, rng):
            coords = got.coordinates_of(m)
            assert typed(coords, field) == typed(reference.coordinates(basis, m), field)
            assert coeffs is None or coords == coeffs
            # one entry off: refused exactly where the reference finds no coordinates
            cells = [(v, i, j) for v, c in enumerate(m.components)
                     for i in range(c.rows) for j in range(c.cols)]
            if not cells:
                continue
            off = bumped(m, *rng.choice(cells))
            expected = reference.coordinates(basis, off)
            if expected is None:
                refused += 1
                with pytest.raises(ModuleError, match="map not in hom space"):
                    got.coordinates_of(off)
            else:
                assert got.coordinates_of(off) == expected
    assert refused >= 10


def assert_same_submodule(got, want):
    (sub, incl), (want_sub, want_incl) = got, want
    assert typed(sub) == typed(want_sub)
    assert typed(incl) == typed(want_incl)


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
        want = reference.submodule(p, vectors)
        for got in [(cover.kernel, cover.inclusion), kernel_of(cover.map),
                    submodule(p, vectors)]:
            assert_same_submodule(got, want)


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_unstable_subspace_is_refused_like_the_oracle(field, index):
    a, mods = setting(field, index)
    refused = 0
    for x in mods[:-1]:
        for t in range(x.total_dim):
            unit = [field.zero()] * x.total_dim
            unit[t] = field.one()
            try:
                want = reference.submodule(x, [unit])
            except ValueError:
                refused += 1
                with pytest.raises(ModuleError, match="not action-stable"):
                    submodule(x, [unit])
            else:
                assert_same_submodule(submodule(x, [unit]), want)
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

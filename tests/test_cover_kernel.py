"""Projective covers that carry their kernel, and `Module.action_column`,
compared with the code they replaced.

The oracles below are `projective_cover`, `is_projective` and
`min_projective_resolution` as they were written before a cover kept its
kernel, copied verbatim up to the names of their helpers and without the
resolution cache: every caller ran `kernel_of(cover.map)` again, and the
cover built each action as a dense total matrix (`Module.total_action`),
summed them in `Module.act` and took rad(A)*X from the columns of those
sums.  The current code must give equal entries of equal types (over Q, of
exact rational types, ``conftest.entry_types``): cover maps,
summands, the kernel and its inclusion (against `kernel_of(cover.map)`)
and every term of a resolution.
"""

import functools
import random

import pytest

from tiltkit.algebra import FDAlgebra
from tiltkit.linalg import QQ, EchelonBasis, Matrix, PrimeField, span_basis
from tiltkit.modules import (
    Module,
    ModuleError,
    ModuleMap,
    direct_sum,
    dual_module,
    is_projective,
    kernel_of,
    min_projective_resolution,
    projective_cover,
    projective_module,
    quotient_module,
    radical_vectors,
    regular_module,
    simple_module,
    zero_module,
)

from conftest import SubspaceQuotient, a3_zero_relation_algebra, entry_types, loop_pair_algebra

F101 = PrimeField(101)
FIELDS = [QQ, F101]
LOOP_PAIRS = [(2, 2), (3, 2), (3, 3), (4, 4), (5, 4), (5, 5), (6, 5)]
BOUND = 3


# -- the old code -----------------------------------------------------------------


def oracle_total_action(x, k):
    a = x.algebra
    f = a.field
    n = x.total_dim
    out = Matrix.zeros(f, n, n)
    r, c = a.block_row[k], a.block_col[k]
    ro, co = x.offset(r), x.offset(c)
    m = x.mats[k]
    for i in range(m.rows):
        for j in range(m.cols):
            out.data[ro + i][co + j] = m.data[i][j]
    return out


def oracle_act(x, vec):
    f = x.algebra.field
    out = Matrix.zeros(f, x.total_dim, x.total_dim)
    for k, c in enumerate(vec):
        if c:
            out = out + oracle_total_action(x, k).scale(c)
    return out


def oracle_radical_vectors(module):
    a = module.algebra
    vectors = []
    for s in a.radical_generators():
        vectors.extend(oracle_act(module, s).columns())
    return span_basis(a.field, vectors, module.total_dim)


def oracle_projective_cover(x):
    """(cover map, summands) as the old `projective_cover` built them."""
    if x.is_zero():
        raise ModuleError("projective cover of the zero module")
    a = x.algebra
    f = a.field
    rad = oracle_radical_vectors(x)
    gens = []
    covered = EchelonBasis(f, rad)
    guard = 0
    while len(covered) < x.total_dim:
        guard += 1
        if guard > x.total_dim + 1:
            raise ModuleError("cover construction failed to terminate")
        pick = None
        for i in range(len(x.dims)):
            lo, hi = x.block_slice(i)
            for t in range(lo, hi):
                unit = [f.zero()] * x.total_dim
                unit[t] = f.one()
                if not covered.contains(unit):
                    pick = (i, unit)
                    break
            if pick:
                break
        if pick is None:
            raise ModuleError("no coordinate generator found outside the covered span")
        gens.append(pick)
        for k in range(a.dim):
            covered.add(oracle_total_action(x, k).apply(pick[1]))
    summand_mods = [projective_module(a, i) for (i, _) in gens]
    p, incs, _ = direct_sum(summand_mods)
    comps = [Matrix.zeros(f, x.dims[i], p.dims[i]) for i in range(len(x.dims))]
    for s, ((gi, gvec), pm) in enumerate(zip(gens, summand_mods)):
        col_basis = pm.layout
        for r in range(len(x.dims)):
            off = sum(m.dims[r] for m in summand_mods[:s])
            lo, hi = x.block_slice(r)
            for t, k in enumerate(col_basis[r]):
                w = oracle_total_action(x, k).apply(gvec)
                for row in range(x.dims[r]):
                    comps[r].data[row][off + t] = w[lo + row]
    cover_map = ModuleMap(p, x, comps)
    if not cover_map.is_surjective():
        raise ModuleError("constructed cover is not surjective")
    ker, _ = kernel_of(cover_map)
    if not ker.is_zero():
        radp = SubspaceQuotient(f, p.total_dim, oracle_radical_vectors(p))
        kv = []
        for i in range(len(p.dims)):
            lo, _ = p.block_slice(i)
            for v in cover_map.components[i].nullspace():
                total = [f.zero()] * p.total_dim
                for t, xx in enumerate(v):
                    total[lo + t] = xx
                kv.append(total)
        for v in kv:
            if not radp.contains(v):
                raise ModuleError(
                    "cover kernel escapes rad P; distinguished idempotents are "
                    "likely not primitive")
    return cover_map, [i for (i, _) in gens]


def oracle_is_projective(x):
    if x.is_zero():
        return True
    cover_map, _ = oracle_projective_cover(x)
    ker, _ = kernel_of(cover_map)
    return ker.is_zero()


def oracle_min_projective_resolution(x, bound):
    """(modules, differentials, augmentation, summands, completed)."""
    if x.is_zero():
        p = zero_module(x.algebra)
        return [p], [], ModuleMap.zero(p, x), [[]], True
    cover_map, cover_summands = oracle_projective_cover(x)
    modules = [cover_map.source]
    summands = [cover_summands]
    diffs = []
    aug = cover_map
    current = cover_map
    completed = False
    while len(modules) - 1 < bound:
        ker, incl = kernel_of(current)
        if ker.is_zero():
            completed = True
            break
        c_map, c_summands = oracle_projective_cover(ker)
        modules.append(c_map.source)
        summands.append(c_summands)
        diffs.append(incl.compose(c_map))
        current = c_map
    else:
        ker, _ = kernel_of(current)
        completed = ker.is_zero()
    return modules, diffs, aug, summands, completed


# -- inputs -------------------------------------------------------------------------


def _builders(field):
    out = {f"lp{a}{b}": functools.partial(loop_pair_algebra, a, b, field=field)
           for a, b in LOOP_PAIRS}
    out["a3z"] = lambda: a3_zero_relation_algebra(field)
    return out


CASES = [(field, name) for field in FIELDS for name in _builders(field)]


@functools.cache
def algebra(field, name):
    return _builders(field)[name]()


def case_id(case):
    field, name = case
    return f"{field.name}-{name}"


def unimodular(f, rng, n):
    """A random integer matrix of determinant +-1, read in f: elementary row
    additions and a row permutation."""
    rows = [[f.of(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = f.of(rng.choice((-2, -1, 1, 2)))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return Matrix(f, rows, cols=n)


def rebased(x, rng):
    """x in a seeded unimodular basis of each block."""
    a = x.algebra
    gs = [unimodular(a.field, rng, d) for d in x.dims]
    invs = [g.inverse() if g.rows else g for g in gs]
    mats = [gs[a.block_row[k]] * m * invs[a.block_col[k]] for k, m in enumerate(x.mats)]
    out = Module(a, x.dims, mats)
    out.validate()
    return out


def inputs(case):
    """Fresh modules (so no resolution is cached on them): the projectives,
    the simples, the regular module, a rebased sum of projectives, rebased
    quotients of the projectives by the submodule one seeded radical vector
    generates, and the duals of the simples and of the regular module over
    the opposite algebra."""
    a = algebra(*case)
    rng = random.Random(case_id(case))
    n = a.idempotent_count
    projectives = [projective_module(a, i) for i in range(n)]
    simples = [simple_module(a, i) for i in range(n)]
    out = projectives + simples + [regular_module(a)]
    total, _, _ = direct_sum([rng.choice(projectives) for _ in range(rng.randint(2, 3))])
    out.append(rebased(total, rng))
    for p in projectives:
        rad_p = oracle_radical_vectors(p)
        if rad_p:
            v = rng.choice(rad_p)
            quot, _, _ = quotient_module(
                p, [oracle_total_action(p, k).apply(v) for k in range(a.dim)])
            out.append(rebased(quot, rng))
    out += [dual_module(x) for x in simples + [regular_module(a)]]
    return out


# -- equal to the oracle ---------------------------------------------------------------


def assert_same_matrix(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.data == want.data
    assert entry_types(got.field, got.data) == entry_types(want.field, want.data)


def assert_same_module(got, want):
    assert got.dims == want.dims
    for g, w in zip(got.mats, want.mats, strict=True):
        assert_same_matrix(g, w)


def assert_same_map(got, want):
    assert_same_module(got.source, want.source)
    assert_same_module(got.target, want.target)
    for g, w in zip(got.components, want.components, strict=True):
        assert_same_matrix(g, w)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_action_column_matches_total_action(case):
    for x in inputs(case):
        f = x.algebra.field
        for k in range(x.algebra.dim):
            total = oracle_total_action(x, k)
            for t in range(x.total_dim):
                unit = [f.zero()] * x.total_dim
                unit[t] = f.one()
                got, want = x.action_column(k, t), total.apply(unit)
                assert got == want
                assert entry_types(f, [got]) == entry_types(f, [want])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_act_and_radical_vectors_match_oracle(case):
    for x in inputs(case):
        a = x.algebra
        for s in a.radical_generators() + a.idempotents:
            assert_same_matrix(x.act(s), oracle_act(x, s))
        assert radical_vectors(x) == oracle_radical_vectors(x)
        assert radical_vectors(x) is radical_vectors(x)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cover_carries_its_kernel(case):
    for x in inputs(case):
        cover = projective_cover(x)
        want_map, want_summands = oracle_projective_cover(x)
        assert_same_map(cover.map, want_map)
        assert cover.summands == want_summands
        ker, incl = kernel_of(cover.map)
        assert_same_module(cover.kernel, ker)
        assert_same_map(cover.inclusion, incl)
        assert cover.inclusion.source is cover.kernel
        assert is_projective(x) == oracle_is_projective(x)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_resolution_matches_oracle(case):
    for x in inputs(case):
        res = min_projective_resolution(x, BOUND)
        modules, diffs, aug, summands, completed = oracle_min_projective_resolution(x, BOUND)
        assert len(res.modules) == len(modules)
        for got, want in zip(res.modules, modules):
            assert_same_module(got, want)
        assert len(res.differentials) == len(diffs)
        for got, want in zip(res.differentials, diffs):
            assert_same_map(got, want)
        assert_same_map(res.augmentation, aug)
        assert res.summands == summands
        assert res.completed == completed


def test_inputs_reach_both_resolution_outcomes():
    outcomes = {min_projective_resolution(x, BOUND).completed
                for case in CASES for x in inputs(case)}
    assert outcomes == {True, False}


# -- the minimality refusal --------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cover_kernel_escaping_the_radical_is_refused(field):
    # A = k x k with the unit as its only distinguished idempotent, which is
    # not primitive: the "cover" A -> X of a 1-dimensional module has a
    # kernel k outside rad A = 0
    z, o = field.zero(), field.one()
    table = [[[o, z], [z, z]], [[z, z], [z, o]]]
    a = FDAlgebra.from_structure_constants(field, table, [[o, o]])
    assert a.idempotent_count == 1 and a.dim == 2
    for acting in (0, 1):
        mats = [Matrix(field, [[o if k == acting else z]], cols=1) for k in range(2)]
        x = Module(a, [1], mats)
        x.validate()
        with pytest.raises(ModuleError, match="cover kernel escapes rad P"):
            projective_cover(x)
        with pytest.raises(ModuleError, match="cover kernel escapes rad P"):
            oracle_projective_cover(x)

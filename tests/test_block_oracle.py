"""Maps between direct sums placed by `Matrix.from_blocks`, against the code
they replaced.

`direct_sum`, `direct_sum_complexes` and `cone` now place each block of a
map between direct sums with `Matrix.from_blocks` (through
`modules.block_map` for module maps).  The oracles below are the parent's
`direct_sum`, `direct_sum_complexes` and `cone`, copied verbatim up to their
names: they copied blocks entry by entry, and built every differential as a
sum of composites inclusion o block o projection.  Both must give the same
modules, differentials, inclusions and projections, entry for entry, on
modules in a seeded basis and on complexes built from them, over Q and F_101.
"""

import functools
import itertools
import random

import pytest

from tiltkit.complexes import (
    ChainMap,
    Complex,
    cone,
    direct_sum_complexes,
    hom_homotopy,
    resolution_complex,
    shift_complex,
    stalk_complex,
)
from tiltkit.linalg import Matrix
from tiltkit.modules import (
    Module,
    ModuleError,
    ModuleMap,
    direct_sum,
    min_projective_resolution,
    zero_module,
)

from conftest import entry_types
from test_ext_homotopy import ALGEBRA_IDS, FIELDS, modules_over

BOUND = 2


# -- the code before the change -------------------------------------------------------


def parent_direct_sum(modules):
    """Direct sum with per-summand inclusion and projection maps."""
    if not modules:
        raise ModuleError("empty direct sum needs an algebra; use zero_module")
    a = modules[0].algebra
    f = a.field
    n = a.idempotent_count
    dims = [sum(m.dims[i] for m in modules) for i in range(n)]
    mats = []
    for k in range(a.dim):
        r, c = a.block_row[k], a.block_col[k]
        out = Matrix.zeros(f, dims[r], dims[c])
        ro = co = 0
        for m in modules:
            blk = m.mats[k]
            for i in range(blk.rows):
                for j in range(blk.cols):
                    out.data[ro + i][co + j] = blk.data[i][j]
            ro += m.dims[r]
            co += m.dims[c]
        mats.append(out)
    total = Module(a, dims, mats)
    inclusions, projections = [], []
    for idx, m in enumerate(modules):
        incs, projs = [], []
        for i in range(n):
            off = sum(mm.dims[i] for mm in modules[:idx])
            inc = Matrix.zeros(f, dims[i], m.dims[i])
            prj = Matrix.zeros(f, m.dims[i], dims[i])
            for t in range(m.dims[i]):
                inc.data[off + t][t] = f.one()
                prj.data[t][off + t] = f.one()
            incs.append(inc)
            projs.append(prj)
        inclusions.append(ModuleMap(m, total, incs))
        projections.append(ModuleMap(total, m, projs))
    return total, inclusions, projections


def parent_cone(u: ChainMap) -> Complex:
    """Mapping cone: C^k = P^{k+1} + Q^k with d = [[-d_P, 0], [u, d_Q]]."""
    p, q = u.source, u.target
    a = p.algebra
    f = a.field
    if p.is_zero() and q.is_zero():
        return Complex(a, 0, [], [], check=False)
    lo = min(p.lo - 1, q.lo)
    hi = max(p.hi - 1, q.hi)
    terms = []
    parts = []
    for k in range(lo, hi + 1):
        pk1 = p.term(k + 1) or zero_module(a)
        qk = q.term(k) or zero_module(a)
        total, incs, projs = parent_direct_sum([pk1, qk])
        terms.append(total)
        parts.append((pk1, qk, incs, projs))
    diffs = []
    for i, k in enumerate(range(lo, hi)):
        pk1, qk, incs, projs = parts[i]
        pk2, qk1, incs1, projs1 = parts[i + 1]
        d = ModuleMap.zero(terms[i], terms[i + 1])
        dp = p.diff(k + 1)
        if dp is not None:
            d = d.add(incs1[0].compose(dp.scale(-f.one())).compose(projs[0]))
        uk = u.component(k + 1)
        if uk is not None:
            d = d.add(incs1[1].compose(uk).compose(projs[0]))
        dq = q.diff(k)
        if dq is not None:
            d = d.add(incs1[1].compose(dq).compose(projs[1]))
        diffs.append(d)
    return Complex(a, lo, terms, diffs)


def parent_direct_sum_complexes(parts):
    """Degreewise direct sum with inclusion and projection chain maps."""
    parts = [p for p in parts]
    a = parts[0].algebra
    nonzero = [p for p in parts if not p.is_zero()]
    if not nonzero:
        z = Complex(a, 0, [], [], check=False)
        return z, [ChainMap(p, z, {}, check=False) for p in parts], \
            [ChainMap(z, p, {}, check=False) for p in parts]
    lo = min(p.lo for p in nonzero)
    hi = max(p.hi for p in nonzero)
    terms = []
    sums = []
    for k in range(lo, hi + 1):
        mods = [(p.term(k) or zero_module(a)) for p in parts]
        total, incs, projs = parent_direct_sum(mods)
        terms.append(total)
        sums.append((mods, incs, projs))
    diffs = []
    for i, k in enumerate(range(lo, hi)):
        mods, incs, projs = sums[i]
        mods1, incs1, projs1 = sums[i + 1]
        d = ModuleMap.zero(terms[i], terms[i + 1])
        for t, p in enumerate(parts):
            dp = p.diff(k)
            if dp is not None:
                d = d.add(incs1[t].compose(dp).compose(projs[t]))
        diffs.append(d)
    total_complex = Complex(a, lo, terms, diffs)
    inc_maps, proj_maps = [], []
    for t, p in enumerate(parts):
        ic, pc = {}, {}
        for i, k in enumerate(range(lo, hi + 1)):
            if p.term(k) is not None:
                ic[k] = sums[i][1][t]
                pc[k] = sums[i][2][t]
        inc_maps.append(ChainMap(p, total_complex, ic, check=False))
        proj_maps.append(ChainMap(total_complex, p, pc, check=False))
    return total_complex, inc_maps, proj_maps


# -- comparison ------------------------------------------------------------------------


def entries(field, mats):
    """Values and entry types of a list of matrices, for an exact comparison."""
    return [(m.rows, m.cols, m.data, entry_types(field, m.data)) for m in mats]


def module_entries(x: Module):
    return x.dims, entries(x.algebra.field, x.mats)


def map_entries(g: ModuleMap):
    return g.source.dims, g.target.dims, entries(g.source.algebra.field, g.components)


def complex_entries(x: Complex):
    return (x.lo, [module_entries(t) for t in x.terms], [map_entries(d) for d in x.diffs])


def chain_map_entries(u: ChainMap):
    return sorted((n, map_entries(g)) for n, g in u.comps.items())


@functools.cache
def complexes_over(field, index):
    """Stalks of the seeded modules, their resolutions truncated at BOUND,
    and one resolution shifted by 1."""
    a, modules = modules_over(field, index)
    resolutions = [resolution_complex(min_projective_resolution(x, BOUND)) for x in modules]
    return a, modules, [stalk_complex(x, 1) for x in modules[:2]] + resolutions + \
        [shift_complex(resolutions[-1], 1)]


CASES = [(field, i) for field in FIELDS for i in range(len(ALGEBRA_IDS))]
CASE_IDS = [f"{field}-{name}" for field in FIELDS for name in ALGEBRA_IDS]


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_direct_sum_equals_the_parent(field, index):
    a, modules = modules_over(field, index)
    rng = random.Random(f"direct-sum:{field}:{index}")
    choices = [[m] for m in modules] + [modules[-2:], modules[::-1]] + \
        [[zero_module(a)] + rng.sample(modules, 2) for _ in range(3)]
    for parts in choices:
        total, incs, projs = direct_sum(parts)
        want_total, want_incs, want_projs = parent_direct_sum(parts)
        assert module_entries(total) == module_entries(want_total)
        assert [map_entries(g) for g in incs + projs] == \
            [map_entries(g) for g in want_incs + want_projs]


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_direct_sum_complexes_equals_the_parent(field, index):
    _, _, cxs = complexes_over(field, index)
    rng = random.Random(f"direct-sum-complexes:{field}:{index}")
    for parts in [cxs[:2], cxs[-2:], cxs[1:4]] + [rng.sample(cxs, 3) for _ in range(3)]:
        total, incs, projs = direct_sum_complexes(parts)
        want_total, want_incs, want_projs = parent_direct_sum_complexes(parts)
        assert complex_entries(total) == complex_entries(want_total)
        assert [chain_map_entries(u) for u in incs + projs] == \
            [chain_map_entries(u) for u in want_incs + want_projs]


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_cone_equals_the_parent(field, index):
    """Cones of the augmentations onto stalks, of identities, and of
    representatives of the homotopy classes P -> Q[n] between resolutions."""
    _, modules, cxs = complexes_over(field, index)
    resolutions = cxs[2:-1]
    maps = []
    for x in modules[-2:]:
        res = min_projective_resolution(x, BOUND)
        maps.append(ChainMap(resolution_complex(res), stalk_complex(x), {0: res.augmentation}))
    for p in resolutions[-2:]:
        maps.append(ChainMap(p, p, {n: ModuleMap.identity(p.term(n)) for n in p.degrees()}))
    # the resolutions of the simples have three terms
    for p, q in itertools.permutations(resolutions[:3], 2):
        for n in (0, 1):
            maps += hom_homotopy(p, q, n).reps[:2]
    assert len(maps) > 4
    for u in maps:
        assert complex_entries(cone(u)) == complex_entries(parent_cone(u))

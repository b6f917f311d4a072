"""Maps between direct sums placed by `Matrix.from_blocks`, against
`tests/reference.py`.

`direct_sum`, `direct_sum_complexes` and `cone` place each block of a map
between direct sums with `Matrix.from_blocks` (through `modules.block_map`
for module maps).  `reference.direct_sum` copies the blocks entry by entry,
and `reference.direct_sum_complexes` and `reference.cone` build every
differential as a sum of composites inclusion o block o projection.  Both
must give the same modules, differentials, inclusions and projections,
entry for entry, on modules in a seeded basis and on complexes built from
them, over Q and F_101.
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
from tiltkit.modules import (
    ModuleMap,
    direct_sum,
    min_projective_resolution,
    zero_module,
)

import reference
from conftest import ALGEBRA_IDS, FIELDS, modules_over, typed

BOUND = 2


def complex_entries(x: Complex):
    return x.lo, [typed(t) for t in x.terms], [typed(d) for d in x.diffs]


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
        want_total, want_incs, want_projs = reference.direct_sum(parts)
        assert typed(total) == typed(want_total)
        assert [typed(g) for g in incs + projs] == [typed(g) for g in want_incs + want_projs]


@pytest.mark.parametrize("field, index", CASES, ids=CASE_IDS)
def test_direct_sum_complexes_equals_the_parent(field, index):
    _, _, cxs = complexes_over(field, index)
    rng = random.Random(f"direct-sum-complexes:{field}:{index}")
    for parts in [cxs[:2], cxs[-2:], cxs[1:4]] + [rng.sample(cxs, 3) for _ in range(3)]:
        total, incs, projs = direct_sum_complexes(parts)
        want_total, want_incs, want_projs = reference.direct_sum_complexes(parts)
        assert complex_entries(total) == complex_entries(want_total)
        assert [typed(u) for u in incs + projs] == [typed(u) for u in want_incs + want_projs]


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
        assert complex_entries(cone(u)) == complex_entries(reference.cone(u))

"""Ext and Hom_K against `tests/reference.py`.

`ext(x, y, n)` is Hom_K(P, y[n]) for the resolution complex P of x, and
`hom_homotopy` takes ker D_n / im D_{n-1} of the Hom complex.  Both are
compared with `reference.hom_homotopy`, which writes the chain-map and
null-homotopy equations out entry by entry: equal dimensions, equal
representatives (the first kernel-basis cycles independent modulo the
boundaries and the cycles before them, entry for entry) and equal class
coordinates, with types as `conftest.entry_types` reads them.  The Ext
probes add coboundaries and combinations to the representatives.
"""

import pytest

from tiltkit.complexes import ChainMap, resolution_complex, shift_complex, stalk_complex
from tiltkit.modules import (
    ModuleMap,
    ext,
    min_projective_resolution,
    simple_module,
    zero_module,
)

import reference
from conftest import (
    ALGEBRA_IDS,
    FIELDS,
    a3_zero_relation_algebra,
    assert_same_hom_over_window,
    complexes_over,
    ext_on,
    modules_over,
    padded_resolution,
    typed,
)

BOUND = 2


def resolutions(x, padded):
    """The minimal resolution of x, truncated at BOUND, and with `padded`
    also its variant with one more free summand in P_0 and P_1."""
    res = min_projective_resolution(x, BOUND)
    return [res, padded_resolution(res)] if padded else [res]


def assert_same_ext(x, y, res):
    """ext against the reference Hom_K on res in each degree res decides,
    and on minimal resolutions deep enough in the two degrees past a
    truncated res."""
    field = y.algebra.field
    top = (res.pd if res.completed else res.length) + 1
    for n in range(top + 1):
        if res.completed or n < res.length:
            used, got = res, ext_on(x, y, n, res)
        else:
            used, got = min_projective_resolution(x, n + 1), ext(x, y, n, bound=n + 1)
        p, shifted = resolution_complex(used), shift_complex(stalk_complex(y), n)
        want = reference.hom_homotopy(p, stalk_complex(y), n)
        assert (got.dim, got.degree) == (want.dim, n)
        cocycles = [r.comps[-n] for r in want.reps]
        assert [typed(c) for c in got.cocycles] == [typed(c) for c in cocycles]
        probes = list(cocycles)
        if n > 0 and cocycles:
            d = used.differentials[n - 1]
            for b in reference.hom(used.modules[n - 1], y)[:2]:
                probes.append(cocycles[-1].add(b.compose(d)))
        if len(cocycles) >= 2:
            probes.append(cocycles[0].scale(field.of(3)).add(cocycles[1]))
        for probe in probes:
            cm = ChainMap(p, shifted, {-n: probe}, check=False)
            assert typed(got.class_coordinates(probe), field) == \
                typed(want.class_coordinates(cm), field)


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


@pytest.mark.parametrize("index", [0, 1, 5], ids=[ALGEBRA_IDS[i] for i in (0, 1, 5)])
@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_hom_homotopy_matches_oracle(field, index):
    cxs = complexes_over(field, index)
    assert assert_same_hom_over_window([(p, y) for p in cxs for y in cxs]) > 0

"""`projective_module(a, *vertices)`, the one builder of A e_{v_1} + ... +
A e_{v_m}, against `reference.projective_module` and `reference.direct_sum`,
and the constructions it replaced.

Layouts are checked against `reference.projective_layout` and
`IdempotentRecollement._corner_column` against `reference.corner_column`;
the regular-module coordinate loop of `certs.refine_idempotents` is the old
code, copied verbatim up to its name and with its regular module built by
the reference.
Each test requires equal dimensions, equal entries of equal types (over Q,
of exact rational types, ``conftest.entry_types``) and equal layouts.
"""

import functools

import pytest

from tiltkit.algebra import FDAlgebra, PathAlgebraPresentation, Quiver, build_fd_algebra
from tiltkit.certs import refine_idempotents
from tiltkit.linalg import QQ
from tiltkit.modules import (
    ModuleError,
    decompose_instances,
    direct_sum,
    projective_cover,
    projective_module,
    regular_module,
    simple_module,
    tilting_module_check,
    zero_module,
)
from tiltkit.recollement import IdempotentRecollement

import reference
from conftest import F101, a3_zero_relation_algebra, glued_loop_fixture, loop_pair_algebra, typed


# -- the old code -----------------------------------------------------------------


def oracle_regular_module(a: FDAlgebra):
    if a.idempotent_count == 0:
        return zero_module(a)
    return reference.direct_sum([reference.projective_module(a, i)
                                 for i in range(a.idempotent_count)])[0]


def oracle_reg_coord_of(a: FDAlgebra):
    n = a.idempotent_count
    reg_coord_of = [None] * a.dim
    pos = 0
    for j in range(n):
        for i in range(n):
            for k in a.basis_in_block(j, i):
                reg_coord_of[k] = pos
                pos += 1
    return reg_coord_of


def oracle_refine_idempotents(a: FDAlgebra):
    """The new idempotents of the old `refine_idempotents`, from the old
    regular module and its coordinate loop."""
    reg = oracle_regular_module(a)
    reg_coord_of = oracle_reg_coord_of(a)
    unit_reg = [a.field.zero()] * a.dim
    u = a.unit()
    for k in range(a.dim):
        unit_reg[reg_coord_of[k]] = u[k]
    new_idems = []
    for _, proj, incl in decompose_instances(reg):
        psi = incl.compose(proj).total_matrix()
        img = psi.apply(unit_reg)
        elem = [a.field.zero()] * a.dim
        for k in range(a.dim):
            elem[k] = img[reg_coord_of[k]]
        new_idems.append(elem)
    return new_idems


# -- the algebras ------------------------------------------------------------------


def a3_path_algebra(field=QQ):
    """u -> v -> w without relations."""
    q = Quiver(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w")])
    return build_fd_algebra(PathAlgebraPresentation(q, [], 3, field=field))


def _builders(field):
    out = {f"lp{a}{b}": functools.partial(loop_pair_algebra, a, b, field=field)
           for a, b in ((2, 2), (3, 3), (6, 5))}
    out["a3z"] = functools.partial(a3_zero_relation_algebra, field)
    out["a3"] = functools.partial(a3_path_algebra, field)
    if field == QQ:
        out["glued-jordan-322"] = lambda: glued_loop_fixture(3, 2, 2).ambient
    return out


CASES = [(field, name) for field in (QQ, F101) for name in _builders(field)]


@functools.cache
def algebra(field, name):
    return _builders(field)[name]()


def case_id(case):
    return f"{case[0]!r}-{case[1]}"


def vertex_tuples(a):
    """Each vertex alone, each ordered pair (repeats included), and all
    vertices with the first one again at the end."""
    n = a.idempotent_count
    out = [(i,) for i in range(n)]
    out += [(i, j) for i in range(n) for j in range(n)]
    out.append(tuple(range(n)) + (0,))
    return out


def same_module(got, want):
    """Equal dimensions, and equal action matrices with entries of equal types."""
    assert got.algebra is want.algebra
    assert typed(got) == typed(want)


def layout(mod):
    return mod.layout


# -- the builder -------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_projective_sums_match_the_old_direct_sums(case):
    a = algebra(*case)
    for vertices in vertex_tuples(a):
        want = reference.direct_sum([reference.projective_module(a, i) for i in vertices])[0]
        same_module(projective_module(a, *vertices), want)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_layouts_match_the_old_ones(case):
    a = algebra(*case)
    for vertices in vertex_tuples(a):
        assert layout(projective_module(a, *vertices)) == \
            reference.projective_layout(a, vertices)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_regular_module_matches_the_old_one(case):
    a = algebra(*case)
    reg = regular_module(a)
    same_module(reg, oracle_regular_module(a))
    assert reg is projective_module(a, *range(a.idempotent_count))
    coords = [k for lay in layout(reg) for k in lay]
    assert [coords.index(k) for k in range(a.dim)] == oracle_reg_coord_of(a)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_repeated_calls_return_the_same_object(case):
    a = algebra(*case)
    for vertices in vertex_tuples(a):
        assert projective_module(a, *vertices) is projective_module(a, *vertices)
    assert regular_module(a) is regular_module(a)


def test_unknown_vertices_are_refused():
    a = algebra(QQ, "lp22")
    for vertices in ((2,), (-1,), (0, 2)):
        with pytest.raises(ModuleError, match="unknown vertex index"):
            projective_module(a, *vertices)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_corner_columns_match_the_old_ones(case):
    a = algebra(*case)
    n = a.idempotent_count
    for mask in range(1, 2 ** n - 1):
        rec = IdempotentRecollement(a, [i for i in range(n) if mask >> i & 1])
        for i in range(n):
            same_module(rec._corner_column(i), reference.corner_column(a, rec.subset,
                                                                        rec.corner, i))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_projective_covers_are_the_cached_sums(case):
    a = algebra(*case)
    n = a.idempotent_count
    for x in [simple_module(a, i) for i in range(n)] + [projective_module(a, 1, 0)]:
        cover = projective_cover(x)
        assert cover.projective is projective_module(a, *cover.summands)


@pytest.mark.parametrize("name", ["lp22", "lp33", "a3z", "a3", "glued-jordan-322"])
def test_refined_idempotents_match_the_old_ones(name):
    # one distinguished idempotent, the unit: not primitive, so the regular
    # module is decomposed and its summands read back as algebra elements
    a = algebra(QQ, name)
    coarse = FDAlgebra.from_structure_constants(a.field, a.table, [a.unit()])
    assert not coarse.is_idempotent_primitive(0)
    refined = refine_idempotents(coarse)
    want = FDAlgebra.from_structure_constants(
        coarse.field, coarse.table, oracle_refine_idempotents(coarse))
    assert refined.idempotent_count == a.idempotent_count
    for got, old in ((refined.idempotents, want.idempotents), (refined.table, want.table)):
        assert got == old
        assert repr([list(map(type, row)) for row in got]) == \
            repr([list(map(type, row)) for row in old])


@pytest.mark.parametrize("name", ["lp22", "lp33", "a3z", "glued-jordan-322"])
def test_two_tilting_checks_give_equal_reports(name):
    # the second check finds End, summands and covers of the projectives in
    # the caches the first one filled
    a = algebra(QQ, name)
    for t in (regular_module(a), direct_sum([projective_module(a, 0),
                                              simple_module(a, 0)])[0]):
        first = tilting_module_check(t, bound=6)
        second = tilting_module_check(t, bound=6)
        assert vars(first) == vars(second)

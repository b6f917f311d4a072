"""Summand tests without decomposition: `has_free_summand` through
`modules.projective_multiplicity`, the rank of {top o g : g a map
y -> A e_i} modulo rad(A e_i).  The regular module's side of
`has_free_summand` is dim A e_i / rad(A e_i), by Yoneda.

The oracles are the decomposition-based functions the rank test replaced,
copied verbatim up to their names.  They run over Q only, since the
decomposition refuses over F_101; over F_101 the new test must give the
answer it gives over Q on the same corpus.
"""

import random

import pytest

from tiltkit.algebra import FDAlgebra, detect_triangular
from tiltkit.linalg import QQ, PrimeField
from tiltkit.modules import (
    Module,
    ModuleError,
    _local_top,
    decompose,
    direct_sum,
    has_free_summand,
    is_isomorphic_indec,
    projective_module,
    projective_multiplicity,
    regular_module,
    simple_module,
)
from tiltkit.translate import tau_inverse

from conftest import (
    a3_zero_relation_algebra,
    injective_module,
    loop_pair_algebra,
    matrix2_algebra,
)
from test_algebra_generators import rebased as rebased_algebra
from test_ext_homotopy import rebased

F101 = PrimeField(101)


# -- the replaced implementations ------------------------------------------------------


def oracle_has_free_summand(c: FDAlgebra, m: Module) -> bool:
    """True iff decompose(m) contains the regular module of c (each
    indecomposable projective with at least its regular multiplicity)."""
    if m.algebra is not c and m.algebra.dim != c.dim:
        raise ModuleError("module is not over the given algebra")
    reg = decompose(regular_module(c))
    dm = {id(r): r for r in decompose(m)}
    for mod, mult, _ in reg:
        ok = False
        for rmod, rmult, _ in dm.values():
            if rmult >= mult and is_isomorphic_indec(rmod, mod):
                ok = True
                break
        if not ok:
            return False
    return True


# -- corpus ------------------------------------------------------------------------------


ALGEBRAS = {
    "kr22": lambda f: loop_pair_algebra(2, 2, field=f),
    "kr32": lambda f: loop_pair_algebra(3, 2, field=f),
    "lp33": lambda f: loop_pair_algebra(3, 3, field=f),
    "kr12": lambda f: loop_pair_algebra(1, 2, field=f),
    "a3z": a3_zero_relation_algebra,
}


def corpus(field, name):
    """(algebra, modules): projectives, simples, injectives, the regular
    module, and seeded sums in a unimodular basis, one of them with a
    repeated projective and one with an injective summand."""
    a = ALGEBRAS[name](field)
    n = a.idempotent_count
    rng = random.Random(7)
    projectives = [projective_module(a, i) for i in range(n)]
    injectives = [injective_module(a, i) for i in range(n)]
    simples = [simple_module(a, i) for i in range(n)]
    sums = [direct_sum([projectives[0], projectives[0]] + projectives[1:])[0],
            direct_sum([simples[-1], injectives[0]])[0],
            direct_sum([simples[0], projectives[-1]])[0]]
    return a, projectives + simples + injectives + [regular_module(a)] + \
        [rebased(s, rng) for s in sums]


def corner_cases(field, name):
    """(C, M) for the triangular presentations at each vertex: the corner
    and the bimodule, as `build_apr_tilting` tests them."""
    a = ALGEBRAS[name](field)
    out = []
    for i in range(a.idempotent_count):
        pres = detect_triangular(a, [i])
        if pres is not None and pres.bimodule.left_module.total_dim:
            out.append((pres.algebra_c, pres.bimodule.left_module))
    return out


def verdicts(field, name):
    a, mods = corpus(field, name)
    return [has_free_summand(a, m) for m in mods] + \
        [has_free_summand(c, m) for c, m in corner_cases(field, name)]


# -- tests -------------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_summand_tests_match_the_decomposition_over_q(name):
    a, mods = corpus(QQ, name)
    want_free = [oracle_has_free_summand(a, m) for m in mods] + \
        [oracle_has_free_summand(c, m) for c, m in corner_cases(QQ, name)]
    assert verdicts(QQ, name) == want_free
    assert set(want_free) == {True, False}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_summand_tests_agree_over_f101(name):
    assert verdicts(F101, name) == verdicts(QQ, name)


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_projective_multiplicity_counts_summands(field):
    # in a seeded basis of the algebra, rad(A e_i) is no coordinate subspace
    lp33 = loop_pair_algebra(3, 3, field=field)
    for a in (lp33, rebased_algebra(lp33, 1)):
        p0, p1 = projective_module(a, 0), projective_module(a, 1)
        y = rebased(direct_sum([p0, p1, p0, simple_module(a, 1)])[0], random.Random(2))
        assert [projective_multiplicity(y, i) for i in range(2)] == [2, 1]
        assert [projective_multiplicity(simple_module(a, i), i) for i in range(2)] == [0, 0]


def test_projective_multiplicity_refuses_a_coarse_idempotent():
    alg = loop_pair_algebra(2, 2)
    coarse = FDAlgebra.from_structure_constants(alg.field, alg.table, [alg.unit()])
    with pytest.raises(ModuleError, match="not k modulo the radical"):
        projective_multiplicity(regular_module(coarse), 0)


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_regular_multiplicity_is_the_top_dimension_on_a_non_basic_algebra(field):
    # M_2(k) = A e11 + A e22 with A e11 = A e22, so each occurs twice in A:
    # by Yoneda dim A e_i / rad(A e_i) = 2, which `has_free_summand` reads,
    # equals the rank over the maps A -> A e_i that it used to solve for
    a = matrix2_algebra(field)
    reg = regular_module(a)
    assert [len(_local_top(a, i)[2]) for i in range(2)] == [2, 2]
    assert [projective_multiplicity(reg, i) for i in range(2)] == [2, 2]
    p0 = projective_module(a, 0)
    assert has_free_summand(a, reg)
    assert has_free_summand(a, direct_sum([p0, p0])[0])
    assert not has_free_summand(a, p0)


def test_has_free_summand_refuses_a_module_over_another_algebra(dual_numbers, kk):
    # k[t]/t^2 and k x k have the same dimension; the multiplicities of the
    # regular module of k x k were once counted over k x k itself
    with pytest.raises(ModuleError, match="not over the given algebra"):
        has_free_summand(dual_numbers, regular_module(kk))


@pytest.mark.parametrize("ab", [(2, 2), (3, 2), (3, 3)])
def test_tau_inverse_of_projectives_over_f101_matches_q(ab):
    def summary(field):
        a = loop_pair_algebra(*ab, field=field)
        return [(t.module.dims, t.exact_left)
                for t in (tau_inverse(projective_module(a, i)) for i in range(2))]

    assert summary(F101) == summary(QQ)

import itertools
import random
from fractions import Fraction

import pytest

from tiltkit.algebra import detect_triangular, quotient_algebra
from tiltkit.linalg import QQ, EchelonBasis, Matrix, PrimeField, span_basis
from tiltkit.modules import (
    HomSpace,
    Module,
    ModuleMap,
    hom_dim,
    projective_module,
    regular_module,
    simple_module,
)
from tiltkit.recollement import (
    IdempotentRecollement,
    functor_criteria_check,
    torsion_canonical_sequence,
    verify_recollement_axioms,
)

from conftest import (
    SubspaceQuotient,
    a3_zero_relation_algebra,
    glued_loop_fixture,
    loop_pair_algebra,
)
from module_iso import is_isomorphic
from test_triangular_functors import kron_by_definition


def rec_b(alg):
    return IdempotentRecollement(alg, [0])


def ambient_corpus(alg):
    mods = [projective_module(alg, i) for i in range(alg.idempotent_count)]
    mods += [simple_module(alg, i) for i in range(alg.idempotent_count)]
    return [m for m in mods if not m.is_zero()]


def random_corner_modules(corner, seed, count=3):
    """Deterministic pseudo-random modules over k[t]/t^b: nilpotent actions."""
    rng = random.Random(seed)
    out = []
    b = corner.dim  # one vertex, basis 1, t, ..., t^{b-1}
    for _ in range(count):
        n = rng.randint(1, 3)
        strict = [[Fraction(rng.randint(-2, 2)) if i > j else Fraction(0)
                   for j in range(n)] for i in range(n)]
        t_mat = Matrix(QQ, strict, cols=n)
        power = Matrix.identity(QQ, n)
        ok = True
        for _ in range(b):
            power = power * t_mat
        if not power.is_zero():
            ok = False
        if not ok:
            continue
        mats = [Matrix.identity(QQ, n)]
        cur = Matrix.identity(QQ, n)
        for _ in range(1, corner.dim):
            cur = t_mat * cur
            mats.append(cur)
        out.append(Module(corner, [n], mats))
    return out


# -- functor shapes -----------------------------------------------------------------


def test_j_upper_of_regular(kr32):
    rec = rec_b(kr32)
    down = rec.j_upper(regular_module(kr32))
    # e_B A = B + 0, dimension 3 over the corner
    assert down.total_dim == 3
    down.validate()


def test_i_lower_then_i_upper_identity(kr32):
    rec = rec_b(kr32)
    d = rec.quotient.algebra
    for n in random_corner_modules(d, seed=11, count=3) or \
            [simple_module(d, 0), regular_module(d)]:
        infl = rec.i_lower(n)
        infl.validate()
        back, _ = rec.i_upper(infl)
        assert back.dims == n.dims
        assert is_isomorphic(back, n)


def test_i_upper_kills_corner_projective(kr32):
    rec = rec_b(kr32)
    up, _ = rec.i_upper(projective_module(kr32, 0))
    assert up.is_zero()


def test_j_shriek_of_corner_projective(kr32):
    rec = rec_b(kr32)
    n = projective_module(rec.corner.algebra, 0)
    js, _ = rec.j_shriek(n)
    js.validate()
    # Ae tensor_{eAe} eAe = Ae, here A e_x of dimension 5
    assert js.total_dim == 5
    assert is_isomorphic(js, projective_module(kr32, 0))


def test_j_lower_of_corner_regular(kr32):
    rec = rec_b(kr32)
    n = regular_module(rec.corner.algebra)
    jl, _ = rec.j_lower(n)
    jl.validate()
    # Hom_B(eA, B) with eA = B here: the inflation of B along A ->> B
    assert jl.total_dim == 3
    assert jl.dims[1] == 0


def test_i_shriek_picks_corner_annihilated_part(kr32):
    rec = rec_b(kr32)
    x = regular_module(kr32)
    sub, incl = rec.i_shriek(x)
    # {v : A e_B A v = 0} = e_C A = C + M, of dimension 2 + 2
    assert sub.total_dim == 4
    sub.validate()
    assert incl.is_injective()


# -- axiom verification -------------------------------------------------------------


def test_axioms_loop_pair(kr32):
    rec = rec_b(kr32)
    report = verify_recollement_axioms(rec, ambient_corpus(kr32))
    assert report.ok, report.failures()[:3]


def test_axioms_product(kk):
    rec = rec_b(kk)
    report = verify_recollement_axioms(rec, ambient_corpus(kk))
    assert report.ok


def test_axioms_on_zero_module(kr32):
    from tiltkit.modules import zero_module
    rec = rec_b(kr32)
    report = verify_recollement_axioms(rec, [zero_module(kr32)])
    assert report.ok


def test_axioms_catch_corrupted_module(kr32):
    # t-loop acting with a non-nilpotent matrix violates t^2 = 0
    d = Matrix(QQ, [[Fraction(0), Fraction(0), Fraction(0)],
                    [Fraction(1), Fraction(0), Fraction(0)],
                    [Fraction(0), Fraction(1), Fraction(0)]], cols=3)
    t_bad = Matrix(QQ, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], cols=2)
    f = Matrix(QQ, [[Fraction(0)] * 3, [Fraction(0)] * 3], cols=3)
    mats = []
    for k, p in enumerate(kr32.paths):
        cur = Matrix.identity(QQ, [3, 2][kr32.quiver.vertex_index[p.source]])
        for name in p.arrows:
            cur = {"d": d, "f": f, "t": t_bad}[name] * cur
        mats.append(cur)
    corrupted = Module(kr32, [3, 2], mats)
    rec = rec_b(kr32)
    report = verify_recollement_axioms(rec, [corrupted])
    bad = [c for c in report.checks if c.id == "corpus_module_valid"]
    assert bad and not bad[0].passed


# -- four criteria --------------------------------------------------------------------


def test_criteria_loop_pair(kr32):
    crit = functor_criteria_check(kr32, [0])
    assert crit.corner_vanishes
    assert crit.all_four


def test_criteria_wrong_side(kr32):
    crit = functor_criteria_check(kr32, [1])
    assert not crit.corner_vanishes
    assert not crit.all_four


def test_criteria_matrix_algebra(mat2):
    crit = functor_criteria_check(mat2, [0])
    assert not crit.corner_vanishes
    assert crit.quotient_preserves_projectives is False
    assert crit.quotient_projective_over_ambient is False
    assert crit.complement_quotient_exact is False
    assert crit.corner_tensor_faithful_dims is False
    assert crit.degenerate


def test_criteria_product(kk):
    crit = functor_criteria_check(kk, [0])
    assert crit.corner_vanishes and crit.all_four


def test_criteria_equivalence_on_corpus(kk, mat2, a2):
    fixtures = [(kk, [0]), (kk, [1]), (mat2, [0]), (mat2, [1]), (a2, [0]), (a2, [1])]
    for a, b, m in [(2, 2, 1), (3, 2, 2), (1, 2, 1)]:
        amb = glued_loop_fixture(a, b, m).ambient
        fixtures.append((amb, [0]))
        fixtures.append((amb, [1]))
    for alg, subset in fixtures:
        crit = functor_criteria_check(alg, subset)
        assert crit.all_four == crit.corner_vanishes, (alg, subset)


# -- torsion sequence -----------------------------------------------------------------


def test_torsion_sequence_ae_b(kr32):
    pres = detect_triangular(kr32, [0])
    x = projective_module(kr32, 0)
    wit = torsion_canonical_sequence(pres, x)
    # 0 -> M -> A e_B -> B -> 0
    assert wit.torsion.total_dim == 2
    assert wit.torsion_free.total_dim == 3
    assert wit.exact and wit.hom_vanishes


def test_torsion_sequence_ae_c(kr32):
    pres = detect_triangular(kr32, [0])
    x = projective_module(kr32, 1)
    wit = torsion_canonical_sequence(pres, x)
    assert wit.torsion.total_dim == x.total_dim
    assert wit.torsion_free.is_zero()
    assert wit.exact and wit.hom_vanishes


def test_torsion_sequence_simple(kr32):
    pres = detect_triangular(kr32, [0])
    s = simple_module(kr32, 0)
    wit = torsion_canonical_sequence(pres, s)
    assert wit.torsion.is_zero()
    assert wit.exact and wit.hom_vanishes


def test_torsion_corpus_property(kr32, kr22):
    for alg in (kr32, kr22):
        pres = detect_triangular(alg, [0])
        for x in ambient_corpus(alg) + [regular_module(alg)]:
            wit = torsion_canonical_sequence(pres, x)
            assert wit.exact
            assert wit.hom_vanishes


def oracle_ideal_basis(a, subset):
    """The rref basis of AeA as IdempotentRecollement built it before: from
    the products b_i e b_j, i and j over the whole basis."""
    e = a.zero_vector()
    for s in subset:
        e = [x + y for x, y in zip(e, a.idempotents[s])]
    gens = []
    for i in range(a.dim):
        bie = a.multiply(a.coordinate_vector(i), e)
        if not any(bie):
            continue
        for j in range(a.dim):
            v = a.multiply(bie, a.coordinate_vector(j))
            if any(v):
                gens.append(v)
    return span_basis(a.field, gens, a.dim)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=str)
def test_ideal_basis_comes_from_the_quotient(field):
    algebras = [loop_pair_algebra(a, b, field=field)
                for a, b in [(2, 2), (3, 2), (3, 3), (4, 4), (5, 4), (6, 5), (7, 6), (8, 6)]]
    algebras.append(a3_zero_relation_algebra(field))
    for alg in algebras:
        n = alg.idempotent_count
        for size in range(1, n):
            for subset in itertools.combinations(range(n), size):
                want = oracle_ideal_basis(alg, subset)
                assert quotient_algebra(alg, subset).ideal_basis == want
                assert IdempotentRecollement(alg, subset).ideal_basis == want


# -- the axioms by their canonical maps -----------------------------------------------


def dimension_count_failures(rec, corpus):
    """The ids the axiom check failed on before it used canonical maps: each
    adjunction by a dimension count, each composite identity by an abstract
    isomorphism (Krull-Schmidt)."""
    failed = set()
    ups = [rec.i_upper(x)[0] for x in corpus]
    corners = [rec.j_upper(x) for x in corpus]
    d = rec.quotient.algebra
    for y in ups + [simple_module(d, i) for i in range(d.idempotent_count)]:
        infl = rec.i_lower(y)
        if not is_isomorphic(rec.i_upper(infl)[0], y):
            failed.add("i_upper_i_lower_id")
        for x, up in zip(corpus, ups):
            if hom_dim(up, y) != hom_dim(x, infl):
                failed.add("adjunction_i_upper_i_lower")
            if hom_dim(infl, x) != hom_dim(y, rec.i_shriek(x)[0]):
                failed.add("adjunction_i_lower_i_shriek")
    for n in corners:
        js, jl = rec.j_shriek(n)[0], rec.j_lower(n)[0]
        if not is_isomorphic(rec.j_upper(js), n):
            failed.add("j_upper_j_shriek_id")
        if not is_isomorphic(rec.j_upper(jl), n):
            failed.add("j_upper_j_lower_id")
        for x, corner in zip(corpus, corners):
            if hom_dim(js, x) != hom_dim(n, corner):
                failed.add("adjunction_j_shriek_j_upper")
            if hom_dim(corner, n) != hom_dim(x, jl):
                failed.add("adjunction_j_upper_j_lower")
    return failed


def failed_ids(report):
    return {c.id for c in report.failures()}


@pytest.mark.parametrize("subset", [[0], [1]])
def test_canonical_maps_agree_with_the_dimension_count(kr32, kr22, kk, subset):
    for alg in (kr32, kr22, kk):
        rec = IdempotentRecollement(alg, subset)
        corpus = ambient_corpus(alg) + [regular_module(alg)]
        assert failed_ids(verify_recollement_axioms(rec, corpus)) == set()
        assert dimension_count_failures(rec, corpus) == set()


def zeroed(m):
    return Matrix.zeros(m.field, m.rows, m.cols)


def data_mutated(real, mutate):
    """A functor of the recollement that hands `mutate` the data it returns
    beside its module; the module itself stays as it is."""
    def wrapped(x):
        mod, data = real(x)
        return mod, mutate(x, data)
    return wrapped


def rows_reversed(m):
    return Matrix(m.field, m.data[::-1], cols=m.cols)


def quotient_maps_changed(inflations, change):
    """i_upper's quotient maps changed by `change`, on the inflations
    i_lower Y or on the corpus modules only."""
    def mutation(rec, corpus):
        real = rec.i_upper

        def i_upper(x):
            mod, q = real(x)
            if inflations != any(x is c for c in corpus):
                q = [(change(p), sec) for p, sec in q]
            return mod, q
        return {"i_upper": i_upper}
    return mutation


def inclusion_zeroed(rec, corpus):
    """i_shriek's inclusion into X is zero."""
    return {"i_shriek": data_mutated(rec.i_shriek, lambda x, incl: ModuleMap(
        incl.source, incl.target, [zeroed(m) for m in incl.components]))}


def one_representative(rec, corpus):
    """The multiplication eAe tensor N -> N is read through one coset
    representative repeated, so it is not invertible."""
    def mutate(n, blocks):
        return [(basis, span, free[:1] * len(free)) for basis, span, free in blocks]
    return {"j_shriek": data_mutated(rec.j_shriek, mutate)}


def unit_zeroed(rec, corpus):
    """The projections of j_shriek's quotients are zero, so the unit
    m -> e tensor m is: each block's span is the whole space, so every
    residue is zero."""
    def mutate(n, blocks):
        f = rec.ambient.field
        return [(basis, EchelonBasis(f, Matrix.identity(f, len(basis) * n.total_dim).data), free)
                for basis, _, free in blocks]
    return {"j_shriek": data_mutated(rec.j_shriek, mutate)}


def evaluation_zeroed(rec, corpus):
    """The Hom bases j_lower hands out are zero maps, so evaluation at e is."""
    return {"j_lower": data_mutated(rec.j_lower, lambda n, homs: [
        HomSpace(h.source, h.target, [ModuleMap.zero(h.source, h.target)] * h.dimension,
                 h.span) for h in homs])}


@pytest.mark.parametrize("mutation, check_id", [
    (quotient_maps_changed(True, zeroed), "i_upper_i_lower_id"),
    (quotient_maps_changed(True, rows_reversed), "i_upper_i_lower_id"),
    (one_representative, "j_upper_j_shriek_id"),
    (evaluation_zeroed, "j_upper_j_lower_id"),
    (quotient_maps_changed(False, zeroed), "adjunction_i_upper_i_lower"),
    (quotient_maps_changed(False, rows_reversed), "adjunction_i_upper_i_lower"),
    (inclusion_zeroed, "adjunction_i_lower_i_shriek"),
    (unit_zeroed, "adjunction_j_shriek_j_upper"),
    (evaluation_zeroed, "adjunction_j_upper_j_lower"),
], ids=["quotient-map", "quotient-map-not-a-module-map", "multiplication", "evaluation",
        "unit-i", "unit-i-outside-the-hom-space", "counit-i-shriek", "unit-j-shriek",
        "counit-j-lower"])
def test_a_canonical_map_that_is_not_an_isomorphism_fails_its_check(
        kr32, monkeypatch, mutation, check_id):
    # the mutated recollement still has the right modules, so the check by
    # dimension counts and abstract isomorphism passed it.  The reversed
    # quotient maps are invertible, but they do not intertwine the actions,
    # and their images are independent maps outside the Hom space.
    rec = rec_b(kr32)
    corpus = ambient_corpus(kr32) + [regular_module(kr32)]
    for name, fn in mutation(rec, corpus).items():
        monkeypatch.setattr(rec, name, fn)
    assert check_id in failed_ids(verify_recollement_axioms(rec, corpus))
    assert dimension_count_failures(rec, corpus) == set()


def test_j_shriek_matches_the_dense_product(kr32, kr22):
    # each action matrix equals projection * (L_k x I) * section entry for
    # entry, with the dense projection and section of the quotient by each
    # block's span, whose representatives are the block's free positions
    for alg in (kr32, kr22, loop_pair_algebra(6, 5, field=PrimeField(2))):
        for subset in ([0], [1]):
            rec = IdempotentRecollement(alg, subset)
            for x in ambient_corpus(alg) + [regular_module(alg)]:
                n = rec.j_upper(x)
                mod, blocks = rec.j_shriek(n)
                sqs = [SubspaceQuotient(alg.field, len(basis) * n.total_dim, span.vectors)
                       for basis, span, _ in blocks]
                assert [sq.rep_indices for sq in sqs] == [free for _, _, free in blocks]
                ident = Matrix.identity(alg.field, n.total_dim)
                for k in range(alg.dim):
                    c, r = alg.block_col[k], alg.block_row[k]
                    raw = kron_by_definition(
                        alg.mult_matrix(k, blocks[c][0], blocks[r][0], left=True), ident)
                    assert mod.mats[k].data == (sqs[r].projection * raw * sqs[c].section).data

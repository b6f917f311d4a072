import copy
import random
import re

import pytest

from tiltkit.algebra import (
    AlgebraError,
    FDAlgebra,
    PathAlgebraPresentation,
    Quiver,
    build_fd_algebra,
    corner_algebra,
    detect_triangular,
    glue_triangular,
    opposite,
    quotient_algebra,
)
from tiltkit.linalg import QQ, PrimeField

import reference
from conftest import (
    a3_zero_relation_algebra,
    glued_loop_fixture,
    jordan_bimodule,
    loop_pair_algebra,
    nilpotent_loop_algebra,
)


# -- path algebra construction --------------------------------------------------


def test_field_as_path_algebra():
    q = Quiver(["v"], [])
    alg = build_fd_algebra(PathAlgebraPresentation(q, [], 1))
    assert alg.dim == 1
    assert alg.idempotent_count == 1
    assert alg.multiply(alg.unit(), alg.unit()) == alg.unit()


def test_a2_dimension(a2):
    # paths: e_x, e_y, g
    assert a2.dim == 3
    assert a2.block_dim(0, 0) == 1
    assert a2.block_dim(1, 1) == 1
    assert a2.block_dim(1, 0) == 1
    assert a2.block_dim(0, 1) == 0


def test_loop_pair_32_dimensions(kr32):
    # corner dims a=3, b=2 and connecting corner min(a,b)=2, total 7
    assert kr32.dim == 7
    assert kr32.block_dim(0, 0) == 3
    assert kr32.block_dim(1, 1) == 2
    assert kr32.block_dim(1, 0) == 2
    assert kr32.block_dim(0, 1) == 0


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3), (4, 3)])
def test_loop_pair_dimension_formula(a, b):
    alg = loop_pair_algebra(a, b)
    assert alg.block_dim(0, 0) == a
    assert alg.block_dim(1, 1) == b
    assert alg.block_dim(1, 0) == min(a, b)
    assert alg.dim == a + b + min(a, b)


def test_relation_errors():
    q = Quiver(["x", "y"], [("g", "x", "y")])
    with pytest.raises(AlgebraError):
        PathAlgebraPresentation(q, [[(1, ("h", "h"))]], 3)
    with pytest.raises(AlgebraError):
        # g not composable with itself
        PathAlgebraPresentation(q, [[(1, ("g", "g"))]], 3)
    with pytest.raises(AlgebraError):
        # length-1 path in a relation is not admissible
        PathAlgebraPresentation(q, [[(1, ("g",))]], 3)


def test_quiver_validation():
    with pytest.raises(AlgebraError):
        Quiver(["x", "x"], [])
    with pytest.raises(AlgebraError):
        Quiver(["x"], [("g", "x", "z")])


def test_associativity_checked_on_build(kr32, kr22, a2):
    for alg in (kr32, kr22, a2):
        alg.check_axioms()


# -- the axiom check rejects broken structure constants ---------------------------

F101 = PrimeField(101)
BROKEN_FIELDS = [QQ, F101]


def broken_fixtures(field):
    return [loop_pair_algebra(3, 2, field=field), a3_zero_relation_algebra(field)]


def rebuild(alg, table=None, idempotents=None, block_row=None):
    return FDAlgebra(alg.field, alg.labels,
                     alg.table if table is None else table,
                     alg.idempotents if idempotents is None else idempotents,
                     idempotent_names=alg.idempotent_names,
                     block_row=alg.block_row if block_row is None else block_row,
                     block_col=alg.block_col)


def random_scalar(field, rng):
    """A random element outside {0, 1}."""
    return field.of(rng.choice([2, 3, 5, -1, -7]))


def first_associativity_failure(field, table):
    """Reference: the first (i, j, k), in loop order, with
    (b_i b_j) b_k != b_i (b_j b_k), from dense products of unit vectors."""
    dim = len(table)
    z, o = field.zero(), field.one()
    unit = [[o if t == k else z for t in range(dim)] for k in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = reference.multiply(
                    field, table, reference.multiply(field, table, unit[i], unit[j]), unit[k])
                right = reference.multiply(
                    field, table, unit[i], reference.multiply(field, table, unit[j], unit[k]))
                if left != right:
                    return i, j, k
    return None


@pytest.mark.parametrize("field", BROKEN_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_axiom_check_rejects_perturbed_structure_constant(field, seed):
    rng = random.Random(seed)
    for alg in broken_fixtures(field):
        failures = 0
        for _ in range(6):
            table = copy.deepcopy(alg.table)
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            table[i][j][k] = table[i][j][k] + random_scalar(field, rng)
            witness = first_associativity_failure(field, table)
            if witness is None:
                continue
            failures += 1
            message = re.escape("associativity fails on basis triple (%d,%d,%d)" % witness)
            with pytest.raises(AlgebraError, match=message):
                rebuild(alg, table=table)
            with pytest.raises(AlgebraError, match=message):
                FDAlgebra.from_structure_constants(field, table, alg.idempotents)
        assert failures, "no perturbation broke associativity"


@pytest.mark.parametrize("field", BROKEN_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_axiom_check_rejects_perturbed_idempotent(field, seed):
    rng = random.Random(seed)
    for alg in broken_fixtures(field):
        r = rng.randrange(alg.idempotent_count)
        c = random_scalar(field, rng)
        idems = [list(e) for e in alg.idempotents]
        idems[r] = [c * x for x in idems[r]]
        with pytest.raises(AlgebraError, match="idempotent axiom fails"):
            rebuild(alg, idempotents=idems)


@pytest.mark.parametrize("field", BROKEN_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_axiom_check_rejects_incomplete_unit(field, seed):
    rng = random.Random(seed)
    for alg in broken_fixtures(field):
        idems = [list(e) for e in alg.idempotents]
        del idems[rng.randrange(len(idems))]
        with pytest.raises(AlgebraError, match="not a two-sided unit"):
            rebuild(alg, idempotents=idems)


@pytest.mark.parametrize("field", BROKEN_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_axiom_check_rejects_wrong_declared_block(field, seed):
    rng = random.Random(seed)
    for alg in broken_fixtures(field):
        k = rng.randrange(alg.dim)
        block_row = list(alg.block_row)
        block_row[k] = (block_row[k] + 1) % alg.idempotent_count
        with pytest.raises(AlgebraError, match=f"basis element {k} not homogeneous"):
            rebuild(alg, block_row=block_row)


# -- opposite -------------------------------------------------------------------


def test_opposite_involution(kr32):
    op2 = opposite(opposite(kr32))
    assert op2.table == kr32.table
    assert op2.block_row == kr32.block_row


def test_opposite_is_built_once(kr32):
    # one A^op per algebra, so that what is cached on it is shared; the
    # opposite of A^op is a new algebra, whose paths, read backwards twice,
    # are those of A
    assert opposite(kr32) is opposite(kr32)
    op2 = opposite(opposite(kr32))
    assert op2 is not kr32 and op2.paths == kr32.paths


def test_opposite_commutative_is_same(dual_numbers):
    op = opposite(dual_numbers)
    assert op.table == dual_numbers.table


def test_opposite_flips_corner(kr32):
    op = opposite(kr32)
    assert op.block_dim(0, 1) == 2
    assert op.block_dim(1, 0) == 0


# -- glue / detect ---------------------------------------------------------------


def test_glue_one_point_extension():
    k1 = nilpotent_loop_algebra(1)
    k2 = nilpotent_loop_algebra(1)
    m = jordan_bimodule(k2, k1, 1)
    pres = glue_triangular(k1, k2, m)
    assert pres.ambient.dim == 3
    assert pres.algebra_b.dim == 1
    assert pres.algebra_c.dim == 1
    assert pres.bimodule.dim == 1


def test_glue_zero_bimodule_is_product():
    k1 = nilpotent_loop_algebra(2)
    k2 = nilpotent_loop_algebra(3)
    m = jordan_bimodule(k2, k1, 0)
    pres = glue_triangular(k1, k2, m)
    a = pres.ambient
    assert a.dim == 5
    # both connecting corners vanish
    assert a.block_dim(0, 1) == 0
    assert a.block_dim(1, 0) == 0


def test_glue_matches_path_algebra_32(kr32):
    pres = glued_loop_fixture(3, 2, 2)
    a = pres.ambient
    assert a.dim == kr32.dim == 7
    for i in range(2):
        for j in range(2):
            assert a.block_dim(i, j) == kr32.block_dim(i, j)
    # explicit basis alignment: path basis -> glued basis
    # path order in kr32: e_x, e_y, d, f, t, d*d, f*t   (length then lex)
    lab = {l: i for i, l in enumerate(kr32.labels)}
    glab = {l: i for i, l in enumerate(a.labels)}
    align = {
        lab["e_x"]: glab["B.e_y"],   # corner B was built on a one-vertex quiver named y
        lab["d"]: glab["B.t"],
        lab["d*d"]: glab["B.t*t"],
        lab["e_y"]: glab["C.e_y"],
        lab["t"]: glab["C.t"],
        lab["f"]: glab["M.m0"],
        lab["f*t"]: glab["M.m1"],
    }
    for i in range(7):
        for j in range(7):
            prod = kr32.table[i][j]
            want = a.zero_vector()
            for k, cval in enumerate(prod):
                want[align[k]] = cval
            got = a.multiply(a.coordinate_vector(align[i]), a.coordinate_vector(align[j]))
            assert got == want, (kr32.labels[i], kr32.labels[j])


def test_detect_triangular_loop_pair(kr32):
    pres = detect_triangular(kr32, [0])
    assert pres is not None
    assert pres.algebra_b.dim == 3
    assert pres.algebra_c.dim == 2
    assert pres.bimodule.dim == 2


def test_detect_triangular_product(kk):
    pres = detect_triangular(kk, [0])
    assert pres is not None
    assert pres.bimodule.dim == 0


def test_detect_triangular_matrix_algebra(mat2):
    # eAf has dimension 1 by direct multiplication, so no presentation
    assert detect_triangular(mat2, [0]) is None
    assert detect_triangular(mat2, [1]) is None


def test_detect_wrong_side_fails(kr32):
    # with e = e_y the corner e A f = M is nonzero
    assert detect_triangular(kr32, [1]) is None


def test_detect_recovers_glue_dimensions():
    for (a, b, m) in [(2, 2, 2), (3, 2, 1), (4, 3, 3)]:
        pres = glued_loop_fixture(a, b, m)
        redet = detect_triangular(pres.ambient, pres.b_idems)
        assert redet is not None
        assert redet.algebra_b.dim == a
        assert redet.algebra_c.dim == b
        assert redet.bimodule.dim == m


def test_glue_corner_identities(kr32):
    pres = detect_triangular(kr32, [0])
    a = kr32
    # e_B A e_B = B, e_C A e_C = C, e_C A e_B = M, e_B A e_C = 0
    assert a.block_dim(0, 0) == pres.algebra_b.dim
    assert a.block_dim(1, 1) == pres.algebra_c.dim
    assert a.block_dim(1, 0) == pres.bimodule.dim
    assert a.block_dim(0, 1) == 0
    # A e_C = C and A e_B = B + M as dimension counts
    assert a.block_dim(0, 1) + a.block_dim(1, 1) == pres.algebra_c.dim
    assert a.block_dim(0, 0) + a.block_dim(1, 0) == pres.algebra_b.dim + pres.bimodule.dim


def test_glue_rejects_broken_action():
    # right action that is not multiplicative: d acts as identity on a
    # 1-dimensional bimodule although d is nilpotent in B; the axiom check
    # of the glued algebra finds it
    from tiltkit.algebra import Bimodule
    from tiltkit.linalg import Matrix
    B = nilpotent_loop_algebra(2)
    C = nilpotent_loop_algebra(1)
    ident = Matrix.identity(QQ, 1)
    m = Bimodule(C, B, 1, [ident], [ident, ident], block_row=[0], block_col=[0])
    with pytest.raises(AlgebraError, match="associativity"):
        glue_triangular(B, C, m)


def test_glue_rejects_bimodule_over_another_algebra():
    # k<s, u>/(s, u)^2 has the dimension of C = k[t]/t^3, and the 1-dim
    # bimodule where s and u act by zero would pass the glued axiom check
    # with t acting by zero, but it is a bimodule over another algebra
    from tiltkit.algebra import Bimodule
    from tiltkit.linalg import Matrix
    B = nilpotent_loop_algebra(1)
    C = nilpotent_loop_algebra(3)
    other = build_fd_algebra(PathAlgebraPresentation(
        Quiver(["x"], [("s", "x", "x"), ("u", "x", "x")]), [], 2))
    assert other.dim == C.dim
    ident, zero = Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1)
    m = Bimodule(other, B, 1, [ident, zero, zero], [ident], block_row=[0], block_col=[0])
    with pytest.raises(AlgebraError, match="bimodule sides"):
        glue_triangular(B, C, m)
    swapped = Bimodule(C, other, 1, [ident, zero, zero], [ident, zero, zero],
                       block_row=[0], block_col=[0])
    with pytest.raises(AlgebraError, match="bimodule sides"):
        glue_triangular(C, C, swapped)


def test_blocks_must_be_given(kr32):
    # no constructor works the Peirce blocks out; from_structure_constants
    # and bimodule_from_actions normalize instead
    from tiltkit.algebra import Bimodule
    from tiltkit.linalg import Matrix
    with pytest.raises(TypeError):
        FDAlgebra(kr32.field, kr32.labels, kr32.table, kr32.idempotents)
    C = nilpotent_loop_algebra(1)
    ident = Matrix.identity(QQ, 1)
    with pytest.raises(TypeError):
        Bimodule(C, C, 1, [ident], [ident])


# -- corner and quotient algebras -------------------------------------------------


def test_corner_is_loop_algebra(kr32):
    cb = corner_algebra(kr32, [0])
    assert cb.algebra.dim == 3
    cb.algebra.check_axioms()
    cc = corner_algebra(kr32, [1])
    assert cc.algebra.dim == 2


def test_quotient_by_b_corner_is_c(kr32):
    qd = quotient_algebra(kr32, [0])
    assert qd.algebra.dim == 2
    qd.algebra.check_axioms()
    # A/AeA dim = dim A - dim AeA, AeA = B + M here
    assert qd.algebra.dim == kr32.dim - 5


def test_quotient_by_c_corner_is_b(kr32):
    qd = quotient_algebra(kr32, [1])
    # Ae_CA = C + M, quotient is B
    assert qd.algebra.dim == 3


def test_quotient_matrix_algebra_is_zero(mat2):
    qd = quotient_algebra(mat2, [0])
    assert qd.algebra.dim == 0


# -- radical, cartan, center ------------------------------------------------------


def test_radical_semisimple(kk):
    assert kk.radical_dim() == 0


def test_radical_dual_numbers(dual_numbers):
    rad = dual_numbers.radical_basis()
    assert len(rad) == 1
    # the radical is spanned by the loop t
    t_index = dual_numbers.labels.index("t")
    assert rad[0][t_index] != 0


def test_radical_loop_pair(kr32):
    # non-trivial-path basis elements: 7 - 2 idempotents
    assert kr32.radical_dim() == 5


def test_radical_matrix_algebra(mat2):
    assert mat2.radical_dim() == 0


def test_cartan_loop_pair(kr32):
    entries, det = kr32.cartan_matrix()
    assert entries == [[3, 0], [2, 2]]
    assert det == 6


def test_cartan_product(kk):
    entries, det = kk.cartan_matrix()
    assert entries == [[1, 0], [0, 1]]
    assert det == 1


def test_cartan_a2(a2):
    entries, det = a2.cartan_matrix()
    assert entries == [[1, 0], [1, 1]]
    assert det == 1


def test_cartan_det_equals_opposite(kr32, kr22, a2, kk):
    for alg in (kr32, kr22, a2, kk):
        _, det = alg.cartan_matrix()
        _, det_op = opposite(alg).cartan_matrix()
        assert det == det_op


def test_center_dimensions(kk, mat2, kr22):
    assert kk.center_dimension() == 2
    assert mat2.center_dimension() == 1
    # regression value for the glued loop pair with a = b = 2
    assert kr22.center_dimension() == 2


def test_from_structure_constants_normalizes(mat2):
    # E12 sits in block (1, 2) after normalization: row idempotent 0, col 1
    assert mat2.dim == 4
    assert sorted(zip(mat2.block_row, mat2.block_col)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    mat2.check_axioms()


def test_bound_truncation_flag():
    # with no relations on a loop, the bound truncates visibly
    q = Quiver(["v"], [("t", "v", "v")])
    alg = build_fd_algebra(PathAlgebraPresentation(q, [], 3))
    assert alg.dim == 3
    assert alg.bound_truncates
    capped = nilpotent_loop_algebra(2)
    assert not capped.bound_truncates


def test_prime_field_algebra_build():
    from tiltkit.linalg import PrimeField
    from conftest import loop_pair_presentation
    pres = loop_pair_presentation(2, 2)
    pres_p = PathAlgebraPresentation(
        pres.quiver,
        [[(int(c), path) for c, path in rel] for rel in
         [[(1, ("d", "d"))], [(1, ("t", "t"))], [(1, ("d", "f")), (-1, ("f", "t"))]]],
        pres.nilpotency_bound, field=PrimeField(101))
    alg = build_fd_algebra(pres_p)
    assert alg.dim == 6
    assert alg.radical_dim() == 4
    entries, det = alg.cartan_matrix()
    assert entries == [[2, 0], [2, 2]] and det == 4


def dual_numbers_over_f2():
    q = Quiver(["v"], [("t", "v", "v")])
    return build_fd_algebra(PathAlgebraPresentation(
        q, [[(1, ("t", "t"))]], 2, field=PrimeField(2)))


def test_prime_field_path_radical_in_small_characteristic():
    # k[t]/t^2 over F2 is path-presented: its radical is the arrow ideal (t),
    # read off the path grading, where the trace form would need p > dim = 2
    alg = dual_numbers_over_f2()
    t = alg.coordinate_vector(alg.labels.index("t"))
    assert alg.radical_basis() == [t]
    assert alg.radical_generators() == [t]


def test_prime_field_radical_needs_large_p():
    # the same table without path provenance takes the trace form, which
    # refuses p <= dim
    alg = dual_numbers_over_f2()
    bare = FDAlgebra.from_structure_constants(alg.field, alg.table, alg.idempotents)
    assert bare.paths is None
    with pytest.raises(AlgebraError, match="trace form"):
        bare.radical_basis()


def with_paths(alg, paths):
    """alg's structure table with the given path provenance in place of its
    own; nothing checks the paths until the radical is asked for."""
    return FDAlgebra(alg.field, alg.labels, alg.table, alg.idempotents,
                     idempotent_names=alg.idempotent_names,
                     block_row=alg.block_row, block_col=alg.block_col, paths=paths)


def test_path_radical_refuses_a_product_on_a_shorter_path():
    # k[t]/t^3 with the paths of t and t^2 swapped: t*t = t^2 then lands on
    # a path of length 1 < 2 + 2
    alg = nilpotent_loop_algebra(3)
    e, t, t2 = alg.paths
    assert (len(t.arrows), len(t2.arrows)) == (1, 2)
    with pytest.raises(AlgebraError, match="shorter basis path"):
        with_paths(alg, [e, t2, t]).radical_basis()


def test_failed_path_grading_refuses_generators_but_not_construction():
    # the tampered paths above: the generating set comes from the same
    # grading pass and is refused with it, while construction checks the
    # axioms against every basis element instead
    alg = nilpotent_loop_algebra(3)
    e, t, t2 = alg.paths
    tampered = with_paths(alg, [e, t2, t])
    with pytest.raises(AlgebraError, match="shorter basis path"):
        tampered.generators()
    assert tampered.generating_indices() == range(tampered.dim)


def test_path_radical_refuses_a_length_0_path_that_is_not_an_idempotent():
    # k[t]/t^3 with t given the trivial path: every product still respects
    # the lengths, but two basis paths of length 0 face one idempotent
    alg = nilpotent_loop_algebra(3)
    e, _, t2 = alg.paths
    with pytest.raises(AlgebraError, match="not the distinguished idempotents"):
        with_paths(alg, [e, e, t2]).radical_basis()

"""Seeded oracle checks of the zero-skipping kernel: FDAlgebra.multiply on
its sparse structure-constant table, and every Matrix operation that does
arithmetic on nonzero entries only, each against `tests/reference.py`:
products read off the dense table, dot products per entry, and
Gauss-Jordan elimination one row at a time for rrefs, kernels, solutions,
inverses and determinants.  Inputs are mostly zero and mix plain int zeros
with field elements.  Results must equal the reference, and may hold an int
only where an operand held one; over Q, where an integral rational is an
int, the products, rrefs, kernels, solutions and inverses need only hold
ints and Fractions."""

import random
from fractions import Fraction

import pytest

from tiltkit.algebra import FDAlgebra
from tiltkit.linalg import QQ, Matrix

import reference
from conftest import (
    FIELDS,
    a2_algebra,
    a3_zero_relation_algebra,
    entry_types,
    glued_loop_fixture,
    loop_pair_algebra,
    matrix2_algebra,
    nilpotent_loop_algebra,
    product_kk_algebra,
    rebased_table,
)


def random_nonzero(field, rng):
    if field == QQ:
        return QQ.of(Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3])))
    return field.of(rng.randint(1, field.p - 1))


def sparse_vector(field, rng, n):
    """At least half of the entries are zero, some of them the int 0."""
    zeros = set(rng.sample(range(n), (n + 1) // 2))
    return [rng.choice([0, field.zero()]) if k in zeros else random_nonzero(field, rng)
            for k in range(n)]


def fixture_algebras(field):
    algs = [loop_pair_algebra(3, 2, field=field), loop_pair_algebra(1, 2, field=field),
            a3_zero_relation_algebra(field)]
    if field == QQ:
        algs += [loop_pair_algebra(2, 2), a2_algebra(), product_kk_algebra(),
                 matrix2_algebra(), nilpotent_loop_algebra(3),
                 glued_loop_fixture(3, 2, 2).ambient]
    return algs


def assert_same(field, got, want):
    assert got == want
    assert entry_types(field, [got]) == entry_types(field, [want])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_multiply_matches_dense_reference(field):
    rng = random.Random(f"multiply:{field}")
    for alg in fixture_algebras(field):
        for _ in range(25):
            u = sparse_vector(field, rng, alg.dim)
            v = sparse_vector(field, rng, alg.dim)
            assert_same(field, alg.multiply(u, v), reference.multiply(field, alg.table, u, v))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_multiply_after_change_of_basis(field):
    rng = random.Random(f"rebased:{field}")
    for alg in fixture_algebras(field):
        table, idems = rebased_table(alg, rng)
        new = FDAlgebra.from_structure_constants(field, table, idems)
        assert new.dim == alg.dim
        for _ in range(10):
            u = sparse_vector(field, rng, new.dim)
            v = sparse_vector(field, rng, new.dim)
            assert_same(field, new.multiply(u, v), reference.multiply(field, new.table, u, v))
        # the normalized basis multiplies as its vectors do in the input table
        back = new.change_to_input
        for i in range(new.dim):
            for j in range(new.dim):
                assert back.apply(new.table[i][j]) == reference.multiply(
                    field, table, back.column(i), back.column(j))


# -- Matrix against the dense reference ----------------------------------------------


def sparse_matrix(field, rng, rows, cols):
    flat = sparse_vector(field, rng, rows * cols) if rows * cols else []
    return Matrix(field, [flat[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_matrix_kernel_matches_dense_reference(field):
    rng = random.Random(f"matrix:{field}")
    for _ in range(60):
        r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = sparse_matrix(field, rng, r, k)
        b = sparse_matrix(field, rng, k, c)
        got = (a * b).data
        want = reference.mul(a, b).data
        assert got == want
        assert entry_types(field, got) == entry_types(field, want)
        vec = sparse_vector(field, rng, k) if k else []
        assert_same(field, a.apply(vec), reference.apply(a, vec))
        rank, rref, pivots = a.rank_and_rref()
        assert (rank, rref.data, pivots) == reference.rank_and_rref(a)
        assert a.is_zero() == all(x == field.zero() for row in a.data for x in row)
        sq = sparse_matrix(field, rng, k, k)
        assert sq.det() == reference.det(sq)


def assert_ints_from(got, *operands):
    """An int entry of the elementwise result `got` needs an int operand
    entry at the same position."""
    for i, row in enumerate(got):
        for j, x in enumerate(row):
            if type(x) is int:
                assert any(type(op.data[i][j]) is int for op in operands), (i, j)


def assert_exact_entries(field, values):
    """Over F_p every entry is an FpElement; over Q, where an integral
    rational is an int, every entry is an int or a Fraction."""
    if field.characteristic:
        assert not any(type(x) is int for x in values)
    else:
        entry_types(field, [values])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_elementwise_ops_match_dense_reference(field):
    rng = random.Random(f"elementwise:{field}")
    for _ in range(60):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        a, b = sparse_matrix(field, rng, r, c), sparse_matrix(field, rng, r, c)
        k = rng.choice([random_nonzero(field, rng), field.zero(), 0])
        for got, want, operands in [
                ((a + b).data, [[x + y for x, y in zip(r1, r2)]
                                for r1, r2 in zip(a.data, b.data)], (a, b)),
                ((a - b).data, [[x - y for x, y in zip(r1, r2)]
                                for r1, r2 in zip(a.data, b.data)], (a, b)),
                (a.scale(k).data, [[k * x for x in row] for row in a.data], (a,)),
                ((-a).data, [[-field.one() * x for x in row] for row in a.data], (a,))]:
            assert got == want
            assert_ints_from(got, *operands)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rref_keeps_int_zeros_only_in_place(field):
    # over F_p an int in the rref is a zero an operand held in that column;
    # over Q an integral rational is an int, so the rref holds ints and
    # Fractions and equals the dense reference
    rng = random.Random(f"rref-types:{field}")
    for _ in range(60):
        a = sparse_matrix(field, rng, rng.randint(0, 5), rng.randint(0, 5))
        rank, rref, pivots = a.rank_and_rref()
        if not field.characteristic:
            assert (rank, rref.data, pivots) == reference.rank_and_rref(a)
            for row in rref.data:
                assert_exact_entries(field, row)
            continue
        for row in rref.data:
            for j, x in enumerate(row):
                if type(x) is int:
                    assert x == 0 and any(type(r[j]) is int for r in a.data)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_nullspace_inverse_solve_match_dense_reference(field):
    rng = random.Random(f"solve:{field}")
    inverses = inconsistent = 0
    for _ in range(80):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        a = sparse_matrix(field, rng, r, c)
        kernel = a.nullspace()
        assert kernel == reference.nullspace(a)
        for v in kernel:
            assert_exact_entries(field, v)
        x0 = sparse_vector(field, rng, c) if c else []
        consistent = reference.apply(a, x0)
        rhs_list = [consistent, [field.zero()] * r, sparse_vector(field, rng, r) if r else []]
        if r:
            bumped = list(consistent)
            bumped[rng.randrange(r)] += field.one()
            rhs_list.append(bumped)
        for rhs, got in zip(rhs_list, a.solve(rhs_list), strict=True):
            assert got == reference.solve(a, rhs)
            if got is None:
                inconsistent += 1
            else:
                assert_exact_entries(field, got)
        assert a.solve([consistent]) != [None]
        sq = sparse_matrix(field, rng, c, c)
        if reference.rank_and_rref(sq)[0] == c:
            inv = sq.inverse()
            assert inv == reference.inverse(sq)
            for row in inv.data:
                assert_exact_entries(field, row)
            inverses += 1
    # the seeded inputs reach both branches
    assert inverses >= 10 and inconsistent >= 10


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_residual_matches_dense_reference(field):
    # sparse matrices like the ones the benchmark's solves see (5 to 10 %
    # nonzero) and small mostly-zero ones, each solved for a consistent, a
    # bumped, a zero and a random right-hand side
    rng = random.Random(f"residual:{field}")
    shapes = [(45, 9), (40, 10)] + [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(40)]
    inconsistent = consistent = 0
    for rows, cols in shapes:
        density = rng.choice([0.05, 0.1]) if rows * cols > 100 else 0.5
        a = Matrix(field, [[random_nonzero(field, rng) if rng.random() < density
                            else rng.choice([0, field.zero()]) for _ in range(cols)]
                           for _ in range(rows)], cols=cols)
        x0 = sparse_vector(field, rng, cols) if cols else []
        good = reference.apply(a, x0)
        rhs_list = [good, [field.zero()] * rows, sparse_vector(field, rng, rows) if rows else []]
        if rows:
            bumped = list(good)
            bumped[rng.randrange(rows)] += field.one()
            rhs_list.append(bumped)
        for rhs, got in zip(rhs_list, a.solve(rhs_list), strict=True):
            want = reference.solve(a, rhs)
            if want is None:
                assert got is None
                inconsistent += 1
            else:
                assert_same(field, got, want)
                consistent += 1
    assert inconsistent >= 10 and consistent >= 10

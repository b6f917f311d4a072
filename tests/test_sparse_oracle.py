"""Seeded oracle checks of the zero-skipping kernel: FDAlgebra.multiply on
its sparse structure-constant table, and every Matrix operation that does
arithmetic on nonzero entries only, each against a dense reference that
works on every entry and compares with field.zero().  Inputs are mostly
zero and mix plain int zeros with field elements.  Results must equal the
reference, and may hold an int only where an operand held one; over Q,
where an integral rational is an int, the products, rrefs, kernels,
solutions and inverses need only hold ints and Fractions."""

import random
from fractions import Fraction

import pytest

from tiltkit.algebra import FDAlgebra
from tiltkit.linalg import QQ, Matrix, PrimeField

from conftest import (
    a2_algebra,
    a3_zero_relation_algebra,
    dense_multiply,
    entry_types,
    glued_loop_fixture,
    loop_pair_algebra,
    matrix2_algebra,
    nilpotent_loop_algebra,
    product_kk_algebra,
)

F101 = PrimeField(101)
FIELDS = [QQ, F101]


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


def random_invertible(field, rng, n):
    while True:
        m = Matrix(field, [[random_nonzero(field, rng) if rng.random() < 0.5 else field.zero()
                            for _ in range(n)] for _ in range(n)], cols=n)
        if m.is_invertible():
            return m


def rebased(alg, rng):
    """The same algebra on a random basis, normalized again by
    from_structure_constants; also returns the rebased input table."""
    field = alg.field
    p = random_invertible(field, rng, alg.dim)
    inv = p.inverse()
    basis = p.columns()
    table = [[inv.apply(dense_multiply(field, alg.table, u, v)) for v in basis]
             for u in basis]
    idems = [inv.apply(e) for e in alg.idempotents]
    return FDAlgebra.from_structure_constants(
        field, table, idems, idempotent_names=alg.idempotent_names), table


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
            assert_same(field, alg.multiply(u, v), dense_multiply(field, alg.table, u, v))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_multiply_after_change_of_basis(field):
    rng = random.Random(f"rebased:{field}")
    for alg in fixture_algebras(field):
        new, table = rebased(alg, rng)
        assert new.dim == alg.dim
        for _ in range(10):
            u = sparse_vector(field, rng, new.dim)
            v = sparse_vector(field, rng, new.dim)
            assert_same(field, new.multiply(u, v), dense_multiply(field, new.table, u, v))
        # the normalized basis multiplies as its vectors do in the input table
        back = new.change_to_input
        for i in range(new.dim):
            for j in range(new.dim):
                assert back.apply(new.table[i][j]) == dense_multiply(
                    field, table, back.column(i), back.column(j))


# -- Matrix against the dense reference ----------------------------------------------


def ref_mul(a, b):
    z = a.field.zero()
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = z
            for k in range(a.cols):
                if a.data[i][k] != z:
                    s = s + a.data[i][k] * b.data[k][j]
            row.append(s)
        out.append(row)
    return out


def ref_apply(a, vec):
    z = a.field.zero()
    out = []
    for i in range(a.rows):
        s = z
        for k in range(a.cols):
            if a.data[i][k] != z:
                s = s + a.data[i][k] * vec[k]
        out.append(s)
    return out


def ref_rank_and_rref(a):
    field = a.field
    z = field.zero()
    m = [list(row) for row in a.data]
    pivots = []
    r = 0
    for c in range(a.cols):
        if r >= a.rows:
            break
        sel = next((i for i in range(r, a.rows) if m[i][c] != z), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        if m[r][c] != field.one():
            inv = field.inv(m[r][c])
            m[r] = [inv * x for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c] != z:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return r, m, pivots


def ref_det(a):
    field = a.field
    z = field.zero()
    n = a.rows
    m = [list(row) for row in a.data]
    det = field.one()
    for c in range(n):
        sel = next((i for i in range(c, n) if m[i][c] != z), None)
        if sel is None:
            return z
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            det = -det
        det = det * m[c][c]
        inv = field.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] != z:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


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
        want = ref_mul(a, b)
        assert got == want
        assert entry_types(field, got) == entry_types(field, want)
        vec = sparse_vector(field, rng, k) if k else []
        assert_same(field, a.apply(vec), ref_apply(a, vec))
        rank, rref, pivots = a.rank_and_rref()
        assert (rank, rref.data, pivots) == ref_rank_and_rref(a)
        assert a.is_zero() == all(x == field.zero() for row in a.data for x in row)
        sq = sparse_matrix(field, rng, k, k)
        assert sq.det() == ref_det(sq)


def ref_nullspace(a):
    field = a.field
    rank, m, pivots = ref_rank_and_rref(a)
    basis = []
    for fc in [c for c in range(a.cols) if c not in pivots]:
        v = [field.zero()] * a.cols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def ref_inverse(a):
    n = a.rows
    ident = [[a.field.one() if i == j else a.field.zero() for j in range(n)] for i in range(n)]
    aug = Matrix(a.field, [row + e for row, e in zip(a.data, ident)], cols=2 * n)
    rank, m, _ = ref_rank_and_rref(aug)
    assert rank == n
    return [row[n:] for row in m]


def ref_solve(a, rhs):
    """rref of [A | b]: None when the last column is a pivot, else the
    solution whose free variables are zero."""
    aug = Matrix(a.field, [row + [b] for row, b in zip(a.data, rhs)], cols=a.cols + 1)
    _, m, pivots = ref_rank_and_rref(aug)
    if a.cols in pivots:
        return None
    x = [a.field.zero()] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][a.cols]
    return x


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
            assert (rank, rref.data, pivots) == ref_rank_and_rref(a)
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
        assert kernel == ref_nullspace(a)
        for v in kernel:
            assert_exact_entries(field, v)
        x0 = sparse_vector(field, rng, c) if c else []
        consistent = ref_apply(a, x0)
        rhs_list = [consistent, [field.zero()] * r, sparse_vector(field, rng, r) if r else []]
        if r:
            bumped = list(consistent)
            bumped[rng.randrange(r)] += field.one()
            rhs_list.append(bumped)
        for rhs, got in zip(rhs_list, a.solve(rhs_list), strict=True):
            assert got == ref_solve(a, rhs)
            if got is None:
                inconsistent += 1
            else:
                assert_exact_entries(field, got)
        assert a.solve([consistent]) != [None]
        sq = sparse_matrix(field, rng, c, c)
        if ref_rank_and_rref(sq)[0] == c:
            inv = sq.inverse()
            assert inv.data == ref_inverse(sq)
            for row in inv.data:
                assert_exact_entries(field, row)
            inverses += 1
    # the seeded inputs reach both branches
    assert inverses >= 10 and inconsistent >= 10


def ref_factored_solve(a, rhs):
    """A factored solve with a dense residual check: x = core^-1 * rhs[rows]
    on the pivot columns and zero elsewhere, for the square core of A at
    its pivot rows and columns, then every row of A * x compared with
    rhs."""
    field = a.field
    z = field.zero()
    _, _, pivcols = ref_rank_and_rref(a)
    _, _, pivrows = ref_rank_and_rref(a.transpose())
    core = Matrix(field, [[a.data[i][j] for j in pivcols] for i in pivrows],
                  cols=len(pivcols))
    b = [rhs[i] for i in pivrows]
    x = [z] * a.cols
    for pc, s in zip(pivcols, ref_apply(Matrix(field, ref_inverse(core), cols=len(b)), b)):
        x[pc] = s
    if any(ai != bi for ai, bi in zip(ref_apply(a, x), rhs)):
        return None
    return x


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
        good = ref_apply(a, x0)
        rhs_list = [good, [field.zero()] * rows, sparse_vector(field, rng, rows) if rows else []]
        if rows:
            bumped = list(good)
            bumped[rng.randrange(rows)] += field.one()
            rhs_list.append(bumped)
        for rhs, got in zip(rhs_list, a.solve(rhs_list), strict=True):
            want = ref_factored_solve(a, rhs)
            if want is None:
                assert got is None
                inconsistent += 1
            else:
                assert_same(field, got, want)
                consistent += 1
    assert inconsistent >= 10 and consistent >= 10

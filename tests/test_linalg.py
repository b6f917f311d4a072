import random
from fractions import Fraction

import pytest

from tiltkit.formats import parse_scalar
from tiltkit.linalg import (
    QQ,
    EchelonBasis,
    LinalgError,
    Matrix,
    PrimeField,
    span_basis,
)

import reference

F101 = PrimeField(101)


def mat(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows], cols=len(rows[0]) if rows else 0)


def test_rref_identity():
    rank, rref, pivots = Matrix.identity(QQ, 2).rank_and_rref()
    assert rank == 2
    assert pivots == [0, 1]
    assert rref == Matrix.identity(QQ, 2)


def test_rref_zero_matrix():
    m = Matrix.zeros(QQ, 3, 4)
    rank, rref, pivots = m.rank_and_rref()
    assert rank == 0
    assert pivots == []
    assert rref.is_zero()


def test_rref_rank_one():
    # hand elimination: row2 - 2*row1 = 0, so rank 1
    rank, rref, pivots = mat([[1, 2], [2, 4]]).rank_and_rref()
    assert rank == 1
    assert pivots == [0]
    assert rref.row(0) == [Fraction(1), Fraction(2)]


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    b = [Fraction(5), Fraction(-1), Fraction(7)]
    [x] = m.solve([b])
    assert x == b
    assert m.nullspace() == []


def test_solve_inconsistent():
    m = Matrix.zeros(QQ, 2, 2)
    assert m.solve([[Fraction(1), Fraction(0)]]) == [None]


def test_solve_underdetermined():
    # substitution oracle: x0 + x1 = 2 with free x1 = 0 gives [2, 0]; kernel
    # vectors satisfy v0 + v1 = 0.
    m = mat([[1, 1]])
    [x] = m.solve([[Fraction(2)]])
    ker = m.nullspace()
    assert x == [Fraction(2), Fraction(0)]
    assert len(ker) == 1
    assert ker[0][0] + ker[0][1] == 0 and ker[0] != [0, 0]
    # substitution reproduces rhs exactly
    assert m.apply(x) == [Fraction(2)]


def test_solve_shape_contract():
    with pytest.raises(LinalgError):
        mat([[1, 0], [0, 1]]).solve([[Fraction(1)]])


def residue_at(span, free, vec):
    out = span.reduce(vec)[0]
    return [out[k] for k in free]


def test_subspace_quotient_empty_generators():
    span = EchelonBasis(QQ)
    assert span.free(3) == [0, 1, 2]
    assert residue_at(span, span.free(3), [1, Fraction(1, 2), 0]) == [1, Fraction(1, 2), 0]
    assert span.free(0) == []


def test_subspace_quotient_full():
    span = EchelonBasis(QQ, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert span.free(2) == []
    assert residue_at(span, [], [Fraction(3), Fraction(-1)]) == []


def test_subspace_quotient_rank_nullity():
    gen = [Fraction(1), Fraction(1), Fraction(0)]
    span = EchelonBasis(QQ, [gen])
    free = span.free(3)
    assert free == [1, 2]
    assert len(span) + len(free) == 3
    # the generator's class is zero, and the unit vector at free[t] is the
    # representative of the t-th class
    assert all(x == 0 for x in residue_at(span, free, gen))
    for t, k in enumerate(free):
        unit = [Fraction(int(j == k)) for j in range(3)]
        assert residue_at(span, free, unit) == [int(j == t) for j in range(2)]


def _random_matrix(rng, rows, cols):
    return Matrix(QQ, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                       for _ in range(rows)], cols=cols)


def test_rank_transpose_property():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(0, 5), rng.randint(1, 5))
        assert m.rank() == m.transpose().rank()


def test_solve_substitution_property():
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = m.apply(x0)
        [x] = m.solve([b])
        assert x is not None
        ker = m.nullspace()
        assert m.apply(x) == b
        for v in ker:
            assert all(c == 0 for c in m.apply(v))
        # rank-nullity
        assert len(ker) == cols - m.rank()


def test_echelon_coordinates_property():
    # coordinates in a basis grown by add (0 only at earlier pivots), in an
    # rref read at its pivots and in a kernel basis read at its free columns
    rng = random.Random(13)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        _, rref, pivots = m.rank_and_rref()
        free = [c for c in range(cols) if c not in pivots]
        for span in (EchelonBasis(QQ, m.data),
                     EchelonBasis.echelon_at(QQ, rref.data[:len(pivots)], pivots),
                     EchelonBasis.echelon_at(QQ, m.nullspace(), free)):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in span.vectors]
            vec = [sum((c * v[j] for c, v in zip(coeffs, span.vectors)), Fraction(0))
                   for j in range(cols)]
            assert span.coordinates(vec) == coeffs
            outside = next((e for e in Matrix.identity(QQ, cols).data
                            if not span.contains(e)), None)
            if outside is not None:
                assert span.coordinates([a + b for a, b in zip(vec, outside)]) is None


def test_quotient_dims_property():
    # a basis built by add, one from the rref rows and one stored at the rref
    # pivots have the rref's free columns, and every residue read there is
    # the oracle's projection, with exact types over F_p
    rng = random.Random(13)
    for field in [QQ] * 40 + [F101] * 40:
        dim = rng.randint(1, 6)
        gens = [[field.of(rng.randint(-2, 2)) for _ in range(dim)]
                for _ in range(rng.randint(0, 5))]
        sq = reference.Quotient(field, dim, gens)
        pivots = [next(j for j, x in enumerate(row) if x) for row in sq.basis]
        spans = [EchelonBasis(field, gens), EchelonBasis(field, sq.basis),
                 EchelonBasis.echelon_at(field, sq.basis, pivots)]
        for span in spans:
            free = span.free(dim)
            assert free == sq.free
            assert len(span) + len(free) == dim
            # the span's classes are zero
            for g in gens:
                assert all(x == 0 for x in residue_at(span, free, g))
            # projection o section = id: the representatives' classes are the units
            assert [residue_at(span, free, rep) for rep in sq.section.columns()] == \
                Matrix.identity(field, len(free)).data
            for _ in range(5):
                vec = [field.of(rng.randint(-3, 3)) for _ in range(dim)]
                got, want = residue_at(span, free, vec), sq.project(vec)
                assert got == want
                if field.characteristic:
                    assert list(map(type, got)) == list(map(type, want))


def test_nullspace_and_column_space():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    ker = m.nullspace()
    assert len(ker) == 3 - m.rank()
    for v in ker:
        assert all(x == 0 for x in m.apply(v))
    cols = m.column_space_basis()
    assert len(cols) == m.rank()


def test_inverse_and_det():
    m = mat([[2, 1], [1, 1]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(QQ, 2)
    assert m.det() == Fraction(1)
    assert mat([[1, 2], [2, 4]]).det() == 0


def test_span_basis_deterministic():
    v1 = [Fraction(2), Fraction(2)]
    v2 = [Fraction(1), Fraction(1)]
    b1 = span_basis(QQ, [v1, v2], 2)
    b2 = span_basis(QQ, [v2, v1], 2)
    assert b1 == b2 == [[Fraction(1), Fraction(1)]]


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    a, b = f5.of(3), f5.of(4)
    assert a + b == f5.of(2)
    assert a * b == f5.of(2)
    assert a / b == f5.of(3 * pow(4, -1, 5))
    assert -a == f5.of(2)
    assert a + (-a) == f5.zero()
    m = Matrix(f5, [[f5.of(1), f5.of(2)], [f5.of(3), f5.of(4)]])
    assert m.rank() == 2
    assert (m * m.inverse()) == Matrix.identity(f5, 2)


def test_prime_field_rejects_composite():
    with pytest.raises(LinalgError):
        PrimeField(6)


def test_prime_field_characteristic_below_two_to_the_31():
    assert PrimeField(2147483647).p == 2**31 - 1
    with pytest.raises(LinalgError, match="is not prime"):
        PrimeField(2146654199)          # 46327 * 46337
    for p in (2**31, 2147483659, 10**400 + 1):
        with pytest.raises(LinalgError, match=r"must be below 2\^31"):
            PrimeField(p)


def test_constructors_never_share_rows_with_operands():
    rows = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    a = Matrix(QQ, rows)
    a.data[0][0] = Fraction(9)
    assert rows[0][0] == 1
    with pytest.raises(LinalgError):
        Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(3)]])
    a = mat([[1, 2], [0, 3]])
    b = mat([[0, 1], [4, 5]])
    cols = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(3)]]
    keep = (mat([[1, 2], [0, 3]]), mat([[0, 1], [4, 5]]), [list(c) for c in cols])
    results = [Matrix.zeros(QQ, 2, 2), Matrix.identity(QQ, 2),
               Matrix.from_columns(QQ, cols, rows=2), a.transpose(), a * b, a.rank_and_rref()[1],
               a + b, a - b, a.scale(Fraction(2)), -a,
               Matrix.from_blocks(QQ, [2], [2, 2], {(0, 0): a, (0, 1): b}), b.inverse()]
    for m in results:
        m.data[0][0] = Fraction(7)
        assert m.data[1][0] != 7, "rows of one result are shared"
    assert (a, b, cols) == keep


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=str)
def test_from_blocks_places_each_block(field):
    def m(rows, cols):
        return Matrix(field, [[field.of(10 * i + j + 1) for j in range(cols)]
                              for i in range(rows)], cols=cols)

    b01, b20, b22 = m(2, 3), m(1, 1), m(1, 3)
    got = Matrix.from_blocks(field, [2, 0, 1], [1, 3, 0, 3],
                             {(0, 1): b01, (2, 0): b20, (2, 3): b22})
    z = field.zero()
    assert got.data == [[z] + b01.data[0] + [z] * 3,
                        [z] + b01.data[1] + [z] * 3,
                        b20.data[0] + [z] * 3 + b22.data[0]]
    # zero-size parts and no blocks at all
    assert Matrix.from_blocks(field, [0, 0], [2], {}) == Matrix.zeros(field, 0, 2)
    assert Matrix.from_blocks(field, [], [], {}) == Matrix.zeros(field, 0, 0)
    assert Matrix.from_blocks(field, [3], [0, 0], {(0, 1): m(3, 0)}) == \
        Matrix.zeros(field, 3, 0)
    assert Matrix.from_blocks(field, [2, 1], [1, 2], {}) == Matrix.zeros(field, 3, 3)
    with pytest.raises(LinalgError):
        Matrix.from_blocks(field, [2, 1], [1, 3], {(0, 1): m(2, 2)})
    with pytest.raises(LinalgError):
        Matrix.from_blocks(field, [2, 1], [1, 3], {(1, 0): m(0, 1)})


def test_integral_rationals_are_ints():
    # over Q an integral value is a plain int and any other a Fraction
    assert [type(QQ.of(x)) for x in (3, "6/2", Fraction(4, 2), "-7", True)] == [int] * 5
    assert [type(QQ.of(x)) for x in ("1/2", Fraction(-3, 4))] == [Fraction] * 2
    assert [type(parse_scalar(QQ, x)) for x in (5, "10/5", "0/3", "1/3")] == \
        [int, int, int, Fraction]
    assert [(type(QQ.inv(x)), QQ.inv(x)) for x in (1, -1, Fraction(1, 3), 2, Fraction(-2, 3))] \
        == [(int, 1), (int, -1), (int, 3), (Fraction, Fraction(1, 2)),
            (Fraction, Fraction(-3, 2))]
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    assert (QQ.zero(), QQ.one()) == (0, 1) and type(QQ.zero()) is type(QQ.one()) is int
    # integer matrices whose pivots are all +-1 never leave the ints
    m = Matrix(QQ, [[1, 2, 0, -1], [0, -1, 3, 2], [1, 1, 3, 1]], cols=4)
    sq = Matrix(QQ, [[1, 2, 3], [0, -1, 4], [1, 1, 8]], cols=3)
    rank, rref, _ = m.rank_and_rref()
    assert rank == 2
    [x] = m.solve([[1, 2, 3]])
    assert x is not None and m.apply(x) == [1, 2, 3]
    inv = sq.inverse()
    assert sq * inv == Matrix.identity(QQ, 3)
    det = sq.det()
    assert det == -1
    values = [v for rows in (rref.data, m.nullspace(), [x], inv.data) for row in rows
              for v in row] + [det]
    assert all(type(v) is int for v in values)
    # over F_p the inverse stays a residue
    f5 = PrimeField(5)
    assert f5.inv(f5.of(2)) == f5.of(3) and type(f5.inv(f5.of(2))) is type(f5.one())

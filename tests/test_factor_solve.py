"""Seeded oracle checks for the factor-once solve and for the class
coordinates built on it: Matrix.solve against an elimination of [A | b]
over Q and F_101, and class_coordinates of each chosen representative of
Hom_K and Ext against the unit vectors."""

import random
from fractions import Fraction

from tiltkit.algebra import detect_triangular
from tiltkit.complexes import hom_homotopy, proj_resolve, stalk_complex
from tiltkit.linalg import QQ, Matrix, PrimeField
from tiltkit.modules import ext, hom_space, regular_module, simple_module
from tiltkit.translate import build_apr_tilting

from conftest import loop_pair_algebra

F101 = PrimeField(101)


def rref_solve(m, rhs):
    """Reference: rref of [A | b]; None when the last column is a pivot,
    else the solution with every free variable zero."""
    f = m.field
    aug = Matrix(f, [row + [rhs[i]] for i, row in enumerate(m.data)], cols=m.cols + 1)
    _, rref, pivots = aug.rank_and_rref()
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rref.data[r][m.cols]
    return x


def random_entry(rng, f):
    if f == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return f.of(rng.randint(0, 100))


def random_matrix(rng, f, rows, cols):
    return Matrix(f, [[random_entry(rng, f) for _ in range(cols)] for _ in range(rows)],
                  cols=cols)


def low_rank_matrix(rng, f, rows, cols):
    """A product through an inner dimension below min(rows, cols) when
    possible, so most of these matrices are rank-deficient."""
    inner = rng.randint(0, max(0, min(rows, cols) - 1))
    return random_matrix(rng, f, rows, inner) * random_matrix(rng, f, inner, cols)


def right_hand_sides(rng, m):
    f = m.field
    x0 = [random_entry(rng, f) for _ in range(m.cols)]
    b = m.apply(x0)
    bumped = list(b)
    if bumped:
        bumped[rng.randrange(len(bumped))] += f.one()
    return [b, [random_entry(rng, f) for _ in range(m.rows)], [f.zero()] * m.rows,
            bumped, m.apply([random_entry(rng, f) for _ in range(m.cols)])]


def check_against_oracle(rng, f, build):
    """Every shape up to 5 x 5, including 0 rows or 0 columns, with five
    right-hand sides each, so all but the first run on the cached factors."""
    consistent = inconsistent = 0
    for rows in range(6):
        for cols in range(6):
            for _ in range(3):
                m = build(rng, f, rows, cols)
                for b in right_hand_sides(rng, m):
                    want = rref_solve(m, b)
                    got = m.solve(b)
                    assert got == want, (rows, cols, m.data, b)
                    if want is None:
                        inconsistent += 1
                    else:
                        consistent += 1
                        assert m.apply(got) == b
    assert consistent and inconsistent


def test_solve_matches_rref_oracle_over_q():
    rng = random.Random(101)
    check_against_oracle(rng, QQ, random_matrix)
    check_against_oracle(rng, QQ, low_rank_matrix)


def test_solve_matches_rref_oracle_over_f101():
    rng = random.Random(102)
    check_against_oracle(rng, F101, random_matrix)
    check_against_oracle(rng, F101, low_rank_matrix)


def test_solve_empty_shapes():
    for f in (QQ, F101):
        z, o = f.zero(), f.one()
        assert Matrix.zeros(f, 0, 3).solve([]) == [z, z, z]
        no_cols = Matrix.zeros(f, 3, 0)
        assert no_cols.solve([z, z, z]) == []
        assert no_cols.solve([z, o, z]) is None
        assert no_cols.solve([z, z, z]) == []


def unit(n, i):
    return [Fraction(int(j == i)) for j in range(n)]


def stalk_cases():
    """(x, y) pairs over loop-pair algebras with nonzero Hom and Ext in
    several degrees."""
    cases = []
    for a, b in ((3, 2), (2, 2)):
        alg = loop_pair_algebra(a, b)
        t = build_apr_tilting(detect_triangular(alg, [0])).module
        cases.append((simple_module(alg, 1), t))
        cases.append((t, regular_module(alg)))
        cases.append((simple_module(alg, 0), simple_module(alg, 1)))
        cases.append((regular_module(alg), t))
    return cases


def test_homotopy_class_coordinates_of_reps_are_units():
    seen = 0
    for x, y in stalk_cases():
        r = proj_resolve(stalk_complex(x, 0), 7)
        if r.truncated:
            continue
        for n in range(0, 3):
            h = hom_homotopy(r.complex, stalk_complex(y, 0), n)
            for i, rep in enumerate(h.reps):
                assert h.class_coordinates(rep) == unit(h.dim, i)
                seen += 1
    assert seen >= 10


def test_ext_class_coordinates_of_cocycles_are_units():
    seen = 0
    for x, y in stalk_cases():
        for n in range(0, 3):
            e = ext(x, y, n, bound=8)
            if not e.cocycles:
                continue
            if n > 0:
                d = e.resolution.differentials[n - 1]
                coboundaries = [b.compose(d) for b in
                                hom_space(e.resolution.modules[n - 1], y).basis]
            else:
                coboundaries = []
            for i, rep in enumerate(e.cocycles):
                assert e.class_coordinates(rep) == unit(e.dim, i)
                for cb in coboundaries:
                    assert e.class_coordinates(rep.add(cb)) == unit(e.dim, i)
                seen += 1
            if e.dim >= 2:
                combo = e.cocycles[0].scale(Fraction(2)).add(e.cocycles[1])
                assert e.class_coordinates(combo) == \
                    [Fraction(2), Fraction(1)] + [Fraction(0)] * (e.dim - 2)
    assert seen >= 10


# -- sparse systems: the residual runs over nonzero entries only -----------------------

SPARSE_SHAPES = [(45, 9), (40, 10)]


def nonzero_entry(rng, f):
    if f == QQ:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    return f.of(rng.randint(1, 100))


def sparse_systems(rng, f):
    """Matrices with 5 to 10 % nonzero entries, the density the solves of
    the benchmark workloads see.  Each has a zero row `zr`, and a row `cr`
    whose only nonzero entries sit in columns k1 < k2."""
    for rows, cols in SPARSE_SHAPES:
        for density in (0.05, 0.1):
            for _ in range(4):
                data = [[nonzero_entry(rng, f) if rng.random() < density else f.zero()
                         for _ in range(cols)] for _ in range(rows)]
                zr, cr = rng.sample(range(rows), 2)
                k1, k2 = sorted(rng.sample(range(cols), 2))
                data[zr] = [f.zero()] * cols
                data[cr] = [f.zero()] * cols
                data[cr][k1], data[cr][k2] = nonzero_entry(rng, f), nonzero_entry(rng, f)
                yield Matrix(f, data, cols=cols), zr, cr, k1, k2


def check_sparse_residuals(rng, f):
    inconsistent = 0
    for m, zr, cr, k1, k2 in sparse_systems(rng, f):
        z = f.zero()
        # a single nonzero entry in a zero row of A
        lone = [z] * m.rows
        lone[zr] = nonzero_entry(rng, f)
        # x0 on columns k1, k2 with x0[k1] * A[cr][k1] + x0[k2] * A[cr][k2] = 0:
        # row cr of the residual cancels only once both columns are summed
        x0 = [z] * m.cols
        x0[k1], x0[k2] = m.data[cr][k2], -m.data[cr][k1]
        cancel = m.apply(x0)
        assert not cancel[cr]
        bumped = list(cancel)
        bumped[cr] = bumped[cr] + f.one()
        for b in (lone, cancel, bumped, [z] * m.rows):
            want = rref_solve(m, b)
            got = m.solve(b)
            assert got == want, (m.data, b)
            if got is None:
                inconsistent += 1
            else:
                assert m.apply(got) == b
        assert m.solve(lone) is None
        assert m.solve(cancel) is not None
        assert m.solve([z] * m.rows) == [z] * m.cols
    assert inconsistent


def test_sparse_residual_matches_rref_oracle_over_q():
    check_sparse_residuals(random.Random(103), QQ)


def test_sparse_residual_matches_rref_oracle_over_f101():
    check_sparse_residuals(random.Random(104), F101)

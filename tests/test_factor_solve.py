"""Seeded oracle checks for `Matrix.solve` and for class coordinates:
one elimination of [A | b_1 ... b_k] against an elimination of [A | b] per
right-hand side (`conftest.rref_solve`) over Q and F_101, and
class_coordinates of each chosen representative of Hom_K and Ext against
the unit vectors.  The refusals of a non-cycle by `class_coordinates` and
of a map that is no quasi-isomorphism by `_lift_through_quasi_iso` are
checked directly, and so is the number of eliminations Hom_K makes."""

import random
from fractions import Fraction

import pytest

from tiltkit.algebra import detect_triangular
from tiltkit.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    _lift_through_quasi_iso,
    hom_homotopy,
    proj_resolve,
    shift_complex,
    stalk_complex,
)
from tiltkit.linalg import QQ, Matrix, PrimeField
from tiltkit.modules import (
    ModuleMap,
    ext,
    hom_space,
    projective_module,
    regular_module,
    simple_module,
)
from tiltkit.translate import build_apr_tilting

from conftest import loop_pair_algebra, rref_solve

F101 = PrimeField(101)


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
    right-hand sides each, solved in one call, so a consistent one often
    follows an inconsistent one."""
    consistent = inconsistent = 0
    for rows in range(6):
        for cols in range(6):
            for _ in range(3):
                m = build(rng, f, rows, cols)
                targets = right_hand_sides(rng, m)
                for b, got in zip(targets, m.solve(targets), strict=True):
                    want = rref_solve(m, b)
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
        assert Matrix.zeros(f, 0, 3).solve([[]]) == [[z, z, z]]
        no_cols = Matrix.zeros(f, 3, 0)
        assert no_cols.solve([[z, z, z], [z, o, z], [z, z, z]]) == [[], None, []]
        assert Matrix.identity(f, 2).solve([]) == []


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



# -- refusals and the cost of a class ------------------------------------------------------


def test_class_coordinates_refuse_exactly_the_non_cycles():
    # a map of degree n with one basis component is a class exactly when it
    # is a chain map P -> Y[n], as ChainMap's own check decides
    refused_beside_a_class = accepted = 0
    for x, y in stalk_cases():
        r = proj_resolve(stalk_complex(x, 0), 7)
        if r.truncated:
            continue
        for n in range(0, 3):
            h = hom_homotopy(r.complex, stalk_complex(y, 0), n)
            shifted = shift_complex(h.target, n)
            for m, space in h.coord_layout:
                for b in space.basis:
                    try:
                        ChainMap(h.source, shifted, {m: b})
                    except ComplexError:
                        with pytest.raises(ComplexError, match="escapes the computed basis"):
                            h.class_coordinates(ChainMap(h.source, shifted, {m: b}, check=False))
                        refused_beside_a_class += h.dim > 0
                    else:
                        assert len(h.class_coordinates(ChainMap(h.source, shifted, {m: b}))) \
                            == h.dim
                        accepted += 1
    assert refused_beside_a_class >= 4 and accepted >= 20


def test_class_coordinates_refuse_a_non_cycle_when_hom_k_is_zero():
    # Y = (P_x --id--> P_x) in degrees -1, 0 is contractible, so Hom_K(P, Y)
    # is 0, but Hom^0(P, Y) = End(P_x) for P = P_x in degree -1, and the
    # identity there is no cycle: d_Y o id != 0
    a = loop_pair_algebra(3, 2)
    px = projective_module(a, 0)
    p = stalk_complex(px, -1)
    y = Complex(a, -1, [px, px], [ModuleMap.identity(px)])
    h = hom_homotopy(p, y, 0)
    assert h.dim == 0 and h.coord_layout
    assert h.class_coordinates(ChainMap(p, y, {})) == []
    with pytest.raises(ComplexError, match="escapes the computed basis"):
        h.class_coordinates(ChainMap(p, y, {-1: ModuleMap.identity(px)}, check=False))


def test_lift_along_a_map_that_is_no_quasi_isomorphism_has_no_solution():
    # q = 0: P_x -> S_x, so q o g - t = d h + h d asks t itself to be
    # null-homotopic between stalks, where every homotopy is 0
    a = loop_pair_algebra(3, 2)
    px, sx = projective_module(a, 0), simple_module(a, 0)
    p = stalk_complex(px, 0)
    q = ChainMap(p, stalk_complex(sx, 0), {})
    [top] = hom_space(px, sx).basis
    assert len(_lift_through_quasi_iso(p, q, [{}])) == 1
    for targets in ([{0: top}], [{}, {0: top}], [{0: top}, {}]):
        with pytest.raises(ComplexError, match="comparison lift has no solution"):
            _lift_through_quasi_iso(p, q, targets)


def test_hom_homotopy_eliminates_once_and_class_coordinates_never(monkeypatch):
    """Past the Hom spaces, which `hom_space` keeps, `hom_homotopy` makes one
    elimination (of D_n) and `class_coordinates` none."""
    real, calls = Matrix.rank_and_rref, []

    def counting(self):
        calls.append((self.rows, self.cols))
        return real(self)

    seen = 0
    for x, y in stalk_cases():
        r = proj_resolve(stalk_complex(x, 0), 7)
        if r.truncated:
            continue
        for n in range(0, 3):
            hom_homotopy(r.complex, stalk_complex(y, 0), n)
            monkeypatch.setattr(Matrix, "rank_and_rref", counting)
            h = hom_homotopy(r.complex, stalk_complex(y, 0), n)
            assert len(calls) <= 1
            probes = h.reps + [rep.scale(Fraction(3)) for rep in h.reps[:1]]
            for probe in probes:
                h.class_coordinates(probe)
            assert len(calls) <= 1
            seen += len(probes)
            monkeypatch.setattr(Matrix, "rank_and_rref", real)
            calls.clear()
    assert seen >= 10

# -- sparse systems: a target is consistent when it is zero past the rank --------------

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
        targets = [lone, cancel, bumped, [z] * m.rows]
        for b, got in zip(targets, m.solve(targets), strict=True):
            want = rref_solve(m, b)
            assert got == want, (m.data, b)
            if got is None:
                inconsistent += 1
            else:
                assert m.apply(got) == b
        assert m.solve([lone]) == [None]
        assert m.solve([cancel]) != [None]
        assert m.solve([[z] * m.rows]) == [[z] * m.cols]
    assert inconsistent


def test_sparse_residual_matches_rref_oracle_over_q():
    check_sparse_residuals(random.Random(103), QQ)


def test_sparse_residual_matches_rref_oracle_over_f101():
    check_sparse_residuals(random.Random(104), F101)

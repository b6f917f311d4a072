"""Seeded randomized property checks on arbitrary representations of the
loop-pair algebras: Hom counting, duality, torsion sequences, adjunctions,
and the Ext duality oracle, on modules that are not covers or fixtures."""

import random
from fractions import Fraction

from tiltkit.algebra import detect_triangular
from tiltkit.linalg import QQ, Matrix
from tiltkit.modules import (
    dual_module,
    ext,
    hom_dim,
    min_projective_resolution,
    module_from_arrow_matrices,
    projective_module,
    simple_module,
)
from tiltkit.recollement import IdempotentRecollement, torsion_canonical_sequence

from conftest import loop_pair_algebra


def square_zero_matrix(rng, n):
    """u * v^T with v^T u = 0: a rank-one square-zero matrix."""
    if n == 0:
        return Matrix.zeros(QQ, 0, 0)
    u = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    if all(x == 0 for x in u):
        u[0] = Fraction(1)
    v = [Fraction(0)] * n
    # pick v orthogonal to u: swap two coordinates with signs, or zero
    nz = [i for i, x in enumerate(u) if x != 0]
    if len(nz) >= 2:
        i, j = nz[0], nz[1]
        v[i], v[j] = u[j], -u[i]
    elif n >= 2:
        v[(nz[0] + 1) % n] = Fraction(rng.randint(-2, 2))
    return Matrix(QQ, [[u[i] * v[j] for j in range(n)] for i in range(n)], cols=n)


def nilpotent_matrix(rng, n, power):
    """A random matrix with the given nilpotency power."""
    if power >= n:
        rows = [[Fraction(rng.randint(-2, 2)) if j < i else Fraction(0)
                 for j in range(n)] for i in range(n)]
        return Matrix(QQ, rows, cols=n)
    if power == 2:
        return square_zero_matrix(rng, n)
    # block strictly-lower-triangular with bandwidth < power
    rows = [[Fraction(rng.randint(-1, 1)) if 0 < i - j < power else Fraction(0)
             for j in range(n)] for i in range(n)]
    return Matrix(QQ, rows, cols=n)


def random_representation(alg, a, b, rng):
    nx = rng.randint(1, 3)
    ny = rng.randint(1, 3)
    d_mat = nilpotent_matrix(rng, nx, a) if a > 1 else Matrix.zeros(QQ, nx, nx)
    t_mat = nilpotent_matrix(rng, ny, b) if b > 1 else Matrix.zeros(QQ, ny, ny)
    # f must satisfy f d = t f: solve the linear system and pick a kernel vector
    rows = []
    for i in range(ny):
        for j in range(nx):
            row = [Fraction(0)] * (ny * nx)
            for k in range(nx):
                row[i * nx + k] += d_mat.data[k][j]
            for k in range(ny):
                row[k * nx + j] -= t_mat.data[i][k]
            rows.append(row)
    ker = Matrix(QQ, rows, cols=ny * nx).nullspace() if rows else []
    if ker:
        coeffs = [Fraction(rng.randint(-1, 2)) for _ in ker]
        flat = [sum((c * v[t] for c, v in zip(coeffs, ker)), Fraction(0))
                for t in range(ny * nx)]
    else:
        flat = [Fraction(0)] * (ny * nx)
    f_mat = Matrix(QQ, [[flat[i * nx + j] for j in range(nx)] for i in range(ny)],
                   cols=nx)
    arrows = {"f": f_mat}
    if a > 1:
        arrows["d"] = d_mat
    if b > 1:
        arrows["t"] = t_mat
    return module_from_arrow_matrices(alg, [nx, ny], arrows)


def corpus(alg, a, b, seed, count=4):
    rng = random.Random(seed)
    out = []
    guard = 0
    while len(out) < count and guard < 40:
        guard += 1
        try:
            out.append(random_representation(alg, a, b, rng))
        except Exception:
            continue
    assert len(out) >= 2
    return out


def test_random_hom_counts_and_duality():
    for (a, b), seed in [((3, 2), 5), ((2, 2), 9), ((2, 3), 17)]:
        alg = loop_pair_algebra(a, b)
        mods = corpus(alg, a, b, seed)
        for x in mods:
            x.validate()
            for i in range(2):
                assert hom_dim(projective_module(alg, i), x) == x.dims[i]
        for x in mods:
            for y in mods:
                assert hom_dim(x, y) == hom_dim(dual_module(y), dual_module(x))


def test_random_torsion_sequences():
    for (a, b), seed in [((3, 2), 23), ((4, 3), 31)]:
        alg = loop_pair_algebra(a, b)
        pres = detect_triangular(alg, [0])
        for x in corpus(alg, a, b, seed):
            wit = torsion_canonical_sequence(pres, x)
            assert wit.exact
            assert wit.hom_vanishes
            assert wit.torsion.total_dim == x.dims[1]


def test_random_adjunctions():
    alg = loop_pair_algebra(2, 2)
    rec = IdempotentRecollement(alg, [0])
    d = rec.quotient.algebra
    quotient_side = [simple_module(d, 0)]
    corner_side = [projective_module(rec.corner.algebra, 0)]
    for x in corpus(alg, 2, 2, seed=41):
        for ymod in quotient_side:
            infl = rec.i_lower(ymod)
            up, _ = rec.i_upper(x)
            assert hom_dim(up, ymod) == hom_dim(x, infl)
            assert hom_dim(infl, x) == hom_dim(ymod, rec.i_shriek(x)[0])
        for n in corner_side:
            assert hom_dim(rec.j_shriek(n)[0], x) == hom_dim(n, rec.j_upper(x))
            assert hom_dim(rec.j_upper(x), n) == hom_dim(x, rec.j_lower(n)[0])


def test_random_ext_duality_oracle():
    alg = loop_pair_algebra(3, 2)
    mods = corpus(alg, 3, 2, seed=57, count=3)
    for x in mods:
        res = min_projective_resolution(x, 5)
        if not res.completed:
            continue
        for y in mods:
            for n in (0, 1, 2):
                lhs = ext(x, y, n, bound=5)
                rhs = ext(dual_module(y), dual_module(x), n, bound=5)
                assert lhs.dim == rhs.dim

"""`_min_poly` against the solve-per-degree search it replaced.

`oracle_min_poly` is the parent's `_min_poly`, verbatim up to its solve
(`conftest.rref_solve`): for each degree it refactors the matrix of all
lower flattened powers and solves for the next one.  The current `_min_poly` grows one echelon basis of flattened powers,
each with a coefficient tail, and stops at the first power that reduces to
zero.  The monic minimal polynomial is unique, so both must return the same
coefficients.  Their nonzero coefficients also agree in type.  A zero
coefficient is an int 0 or a Fraction(0) in either search, depending on the
order of its additions, and the only reader, `_rational_roots`, gives the same
roots of the same types from both.  The matrices are the End basis maps of
the modules of `tests/test_decompose_once.py`, and the first Fitting
candidates built from them, over Q and over F101.
"""

import functools
import random

import pytest

from tiltkit.linalg import QQ, Matrix, PrimeField
from tiltkit.modules import (
    _fitting_candidates,
    _min_poly,
    _rational_roots,
    direct_sum,
    hom_space,
    projective_module,
    regular_module,
)

from conftest import a3_zero_relation_algebra, loop_pair_algebra, rref_solve
from test_decompose_once import _cases
from test_ext_homotopy import rebased, typed

F101 = PrimeField(101)
CANDIDATES = 40     # Fitting candidates per module, after the basis maps


def oracle_min_poly(f, mat):
    """Monic minimal polynomial (coefficient list, low degree first)."""
    n = mat.rows
    powers = [Matrix.identity(f, n)]
    while True:
        cols = [[p.data[i][j] for i in range(n) for j in range(n)] for p in powers]
        m = Matrix.from_columns(f, cols, rows=n * n)
        nxt = powers[-1] * mat
        rhs = [nxt.data[i][j] for i in range(n) for j in range(n)]
        sol = rref_solve(m, rhs)
        if sol is not None:
            coeffs = [-c for c in sol] + [f.one()]
            return coeffs
        powers.append(nxt)


@functools.cache
def modules_over(field):
    """The modules of `test_decompose_once._cases`, built the same way over
    `field`: projectives, the regular module and two seeded sums of
    projectives in a unimodular basis, per algebra."""
    if field is QQ:
        return [x for _, x, _ in _cases()]
    rng = random.Random(5)
    out = []
    for a in [loop_pair_algebra(3, 2, field=field), loop_pair_algebra(2, 2, field=field),
              loop_pair_algebra(1, 2, field=field), loop_pair_algebra(3, 3, field=field),
              a3_zero_relation_algebra(field)]:
        projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
        out += projectives + [regular_module(a)]
        for _ in range(2):
            picks = [rng.choice(projectives) for _ in range(rng.randint(2, 3))]
            out.append(rebased(direct_sum(picks)[0], rng))
    return out


def matrices(x):
    mats = [b.total_matrix() for b in hom_space(x, x).basis]
    candidates = _fitting_candidates(mats)
    return [z for _, z in zip(range(len(mats) + CANDIDATES), candidates)]


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_min_poly_matches_oracle(field):
    calls = 0
    for x in modules_over(field):
        for z in matrices(x):
            got, want = _min_poly(field, z), oracle_min_poly(field, z)
            assert got == want
            assert typed(c for c in got if c) == typed(c for c in want if c)
            if field is QQ:
                assert typed(_rational_roots(got)) == typed(_rational_roots(want))
            calls += 1
    assert calls > 400


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_min_poly_of_zero_scalar_and_nilpotent_matrices(field):
    z, o = field.zero(), field.one()
    two = Matrix.identity(field, 3).scale(field.of(2))
    jordan = Matrix(field, [[z, z, z], [o, z, z], [z, o, z]], cols=3)
    assert _min_poly(field, Matrix.zeros(field, 3, 3)) == [z, o]
    assert _min_poly(field, two) == [field.of(-2), o]
    assert _min_poly(field, jordan) == [z, z, z, o]
    for mat in (Matrix.zeros(field, 3, 3), two, jordan):
        assert _min_poly(field, mat) == oracle_min_poly(field, mat)

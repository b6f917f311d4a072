"""`_min_poly` against the solve-per-degree search it replaced.

`oracle_min_poly` is the parent's `_min_poly`, verbatim up to its solve
(`reference.solve`): for each degree it solves for the next flattened power
in the span of all lower ones.  The current `_min_poly` grows one echelon
basis of flattened powers, each with a coefficient tail, and stops at the
first power that reduces to zero.  The monic minimal polynomial is unique,
so both must return the same coefficients, with types as
`conftest.entry_types` reads them, and `_rational_roots`, their only reader,
must give the same roots from both.  The matrices are the End basis maps of
the modules of `conftest.decompose_cases`, and the first Fitting candidates
built from them, over Q and over F101.
"""

import pytest

from tiltkit.linalg import QQ, Matrix
from tiltkit.modules import _fitting_candidates, _min_poly, _rational_roots, hom_space

import reference
from conftest import F101, decompose_cases, typed

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
        sol = reference.solve(m, rhs)
        if sol is not None:
            coeffs = [-c for c in sol] + [f.one()]
            return coeffs
        powers.append(nxt)


def matrices(x):
    mats = [b.total_matrix() for b in hom_space(x, x).basis]
    candidates = _fitting_candidates(mats)
    return [z for _, z in zip(range(len(mats) + CANDIDATES), candidates)]


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_min_poly_matches_oracle(field):
    calls = 0
    for _, x, _ in decompose_cases(field):
        for z in matrices(x):
            got, want = _min_poly(field, z), oracle_min_poly(field, z)
            assert typed(got, field) == typed(want, field)
            if field is QQ:
                assert typed(_rational_roots(got), field) == typed(_rational_roots(want), field)
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

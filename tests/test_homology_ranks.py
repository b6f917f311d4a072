"""Homology dimensions by ranks, against the code they replaced.

`homology_dims(x, n)` reads dim e_i H^n(x) = dim e_i X^n - rank e_i d_n -
rank e_i d_{n-1} for each vertex i, as every differential is block
diagonal.  `parent_homology` below is the function it replaced, copied
verbatim up to its name and its solve (`conftest.rref_solve`): it built the
kernel submodule of d_n, pulled the image of d_{n-1} back into it and took
the quotient module.

The fixture `recorded` runs the parent code beside every call that
`complexes` and `paper_criteria` make, so the cones that
`require_quasi_isomorphism` checks (for `proj_resolve` and
`structured_b_resolution`) and the `j_shriek` images of
`homology_corner_check` are compared as they arise.  The outputs of
`proj_resolve`, the `lift_functor` images and `structured_b_resolution` are
compared in every degree of their window and one past each end.  Every case
runs over Q and over F_101.
"""

import pytest

import tiltkit.complexes
from tiltkit.algebra import detect_triangular
from tiltkit.complexes import (
    Complex,
    ComplexError,
    homology_dims,
    proj_resolve,
    stalk_complex,
)
from tiltkit.glue import structured_b_resolution
from tiltkit.linalg import QQ, PrimeField
from tiltkit.modules import (
    Module,
    ModuleMap,
    kernel_of,
    quotient_module,
    regular_module,
    zero_module,
)

import paper_criteria
from conftest import loop_pair_algebra, rref_solve
from paper_criteria import homology_corner_check, lift_functor
from test_hom_complex_oracle import LIFT_ALGEBRAS, two_term_complexes

F101 = PrimeField(101)
FIELDS = [QQ, F101]


# -- the code before the change -------------------------------------------------------


def parent_homology(x: Complex, n: int) -> Module:
    """ker(d_n) / im(d_{n-1}) with its induced action."""
    a = x.algebra
    f = a.field
    xn = x.term(n)
    if xn is None or xn.is_zero():
        return zero_module(a)
    # past the last differential every element of X^n is a cycle
    d_n = x.diff(n) or ModuleMap.zero(xn, zero_module(a))
    k_mod, incl = kernel_of(d_n)
    d_prev = x.diff(n - 1)
    if d_prev is None:
        return k_mod
    img_in_k = []
    for i in range(len(xn.dims)):
        lo_i, _ = xn.block_slice(i)
        for v in d_prev.components[i].column_space_basis():
            sol = rref_solve(incl.components[i], v)
            if sol is None:
                raise ComplexError("image does not lie inside the kernel")
            total_k = [f.zero()] * k_mod.total_dim
            klo, _ = k_mod.block_slice(i)
            for t, val in enumerate(sol):
                total_k[klo + t] = val
            img_in_k.append(total_k)
    quot, _, _ = quotient_module(k_mod, img_in_k)
    return quot


# -- comparison ------------------------------------------------------------------------


@pytest.fixture()
def recorded(monkeypatch):
    """Each call of `homology_dims` in `complexes` and `paper_criteria` also
    runs the parent code on the same complex; the pairs of dimension lists
    are collected."""
    pairs = []
    real = tiltkit.complexes.homology_dims

    def both(x, n):
        got = real(x, n)
        pairs.append((got, parent_homology(x, n).dims))
        return got

    for mod in (tiltkit.complexes, paper_criteria):
        monkeypatch.setattr(mod, "homology_dims", both)
    return pairs


def assert_same_homology(x):
    """Equal dimensions in every degree of x and one past each end; returns
    the total dimension of the homology."""
    seen = 0
    for n in range(x.lo - 1, x.hi + 2):
        got = homology_dims(x, n)
        assert got == parent_homology(x, n).dims, n
        seen += sum(got)
    return seen


def loop_mult(alg, label):
    reg = regular_module(alg)
    return ModuleMap(reg, reg, [reg.act(alg.coordinate_vector(alg.labels.index(label)))])


def lifted_complexes(pres):
    """i_lower of [C -t-> C], j_lower and j_shriek of [B -d-> B], and
    j_lower of the stalk B: each has homology in two degrees or is not
    projective."""
    c, b = pres.algebra_c, pres.algebra_b
    creg, breg = regular_module(c), regular_module(b)
    cx_c = Complex(c, 0, [creg, creg], [loop_mult(c, "t")])
    cx_b = Complex(b, 0, [breg, breg], [loop_mult(b, "d")])
    return [lift_functor(pres, "i_lower", cx_c),
            lift_functor(pres, "j_lower", cx_b),
            lift_functor(pres, "j_shriek", cx_b),
            lift_functor(pres, "j_lower", stalk_complex(breg, 0))]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
@pytest.mark.parametrize("name", sorted(LIFT_ALGEBRAS))
def test_cones_and_resolutions_match_parent(name, field, recorded):
    a = LIFT_ALGEBRAS[name](field)
    resolved = 0
    for x in two_term_complexes(name, a):
        r = proj_resolve(x, 6)
        if not r.truncated:
            resolved += 1
            assert assert_same_homology(r.complex) == assert_same_homology(x)
    assert resolved and recorded
    assert all(got == want for got, want in recorded)
    assert not any(any(got) for got, _ in recorded)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
@pytest.mark.parametrize("ab", [(2, 2), (3, 2), (3, 3)])
def test_lifts_and_structured_resolution_match_parent(ab, field, recorded):
    pres = detect_triangular(loop_pair_algebra(*ab, field=field), [0])
    seen = 0
    for x in lifted_complexes(pres):
        seen += assert_same_homology(x)
        r = proj_resolve(x, 8)
        assert not r.truncated
        assert assert_same_homology(r.complex) == assert_same_homology(x)
    cx, _ = structured_b_resolution(pres, bound=8)
    assert homology_dims(cx, 0) == parent_homology(cx, 0).dims == [pres.algebra_b.dim, 0]
    seen += assert_same_homology(cx)
    homology_corner_check(pres, stalk_complex(regular_module(pres.algebra_b), 0), bound=8)
    assert seen and recorded
    assert all(got == want for got, want in recorded)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_a_nonzero_square_of_the_differential_is_refused(field):
    # d o d = id on A, which neither code path may read as homology
    a = loop_pair_algebra(2, 2, field=field)
    p = regular_module(a)
    ident = ModuleMap.identity(p)
    x = Complex(a, 0, [p, p, p], [ident, ident], check=False)
    for fn in (homology_dims, parent_homology):
        with pytest.raises(ComplexError, match="image does not lie inside the kernel"):
            fn(x, 1)
    assert homology_dims(x, 0) == [0, 0] and homology_dims(x, 2) == [0, 0]

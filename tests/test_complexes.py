import pytest

from tiltkit.algebra import detect_triangular
from tiltkit.complexes import (
    Complex,
    ComplexError,
    cone,
    direct_sum_complexes,
    exceptionality_check,
    forced_window,
    hom_homotopy,
    homology_dims,
    identity_chain_map,
    proj_resolve,
    shift_complex,
    stalk_complex,
)
from tiltkit.modules import (
    ModuleMap,
    ext,
    hom_dim,
    is_projective,
    projective_module,
    regular_module,
    simple_module,
)
from tiltkit.translate import build_apr_tilting, tau_inverse

from module_iso import is_isomorphic
from paper_criteria import compactness_check, generator_pair_witness_check, lift_functor


def tri(alg):
    return detect_triangular(alg, [0])


def mult_by_loop(dual_numbers):
    reg = regular_module(dual_numbers)
    t_index = dual_numbers.labels.index("t")
    comp = reg.act(dual_numbers.coordinate_vector(t_index))
    # the total action matrix is a single block here
    return ModuleMap(reg, reg, [comp])


def three_term_loop_complex(dual_numbers):
    reg = regular_module(dual_numbers)
    d = mult_by_loop(dual_numbers)
    return Complex(dual_numbers, 0, [reg, reg, reg], [d, d])


# -- shift and homology ------------------------------------------------------------


def test_shift_zero_is_identity(kr32):
    x = stalk_complex(regular_module(kr32), 0)
    y = shift_complex(x, 0)
    assert y.lo == x.lo and y.terms == x.terms


def test_shift_round_trip(dual_numbers):
    x = three_term_loop_complex(dual_numbers)
    y = shift_complex(shift_complex(x, 3), -3)
    assert y.lo == x.lo
    for n in x.degrees():
        assert y.term(n).dims == x.term(n).dims
    for i, d in enumerate(x.diffs):
        assert all((a - b).is_zero() for a, b in zip(d.components, y.diffs[i].components))


def test_homology_of_stalk(kr32):
    m = regular_module(kr32)
    x = stalk_complex(m, 0)
    assert homology_dims(x, 0) == m.dims
    assert not any(homology_dims(x, 1))
    assert not any(homology_dims(x, -1))


def test_homology_exact_identity_complex(kr32):
    p = projective_module(kr32, 0)
    x = Complex(kr32, 0, [p, p], [ModuleMap.identity(p)])
    assert not any(homology_dims(x, 0))
    assert not any(homology_dims(x, 1))


def test_homology_shift_oracle(dual_numbers):
    x = three_term_loop_complex(dual_numbers)
    want = {n: sum(homology_dims(x, n)) for n in range(-1, 4)}
    assert want[0] == 1 and want[1] == 0 and want[2] == 1
    for s in (-2, 1, 3):
        y = shift_complex(x, s)
        for n in range(-4, 5):
            hn = sum(homology_dims(y, n))
            assert hn == (want.get(n + s, 0))


def test_homology_of_connecting_sequence(kr32):
    data = tau_inverse(projective_module(kr32, 1))
    res = data.resolution
    x = Complex(kr32, -1, [res.modules[1], res.modules[0]], [res.differentials[0]])
    assert not any(homology_dims(x, -1))
    assert homology_dims(x, 0) == data.module.dims


# -- cones and sums -----------------------------------------------------------------


def test_cone_of_identity_is_exact(kr32):
    x = stalk_complex(regular_module(kr32), 0)
    c = cone(identity_chain_map(x))
    for n in range(c.lo, c.hi + 1):
        assert not any(homology_dims(c, n))


def test_direct_sum_complexes_roundtrip(kr32):
    x = stalk_complex(projective_module(kr32, 0), 0)
    y = stalk_complex(projective_module(kr32, 1), -1)
    total, incs, projs = direct_sum_complexes([x, y])
    assert total.lo == -1 and total.hi == 0
    back = projs[0].compose(incs[0])
    assert not back.is_zero()
    zero = projs[1].compose(incs[0])
    assert zero.is_zero()


# -- proj_resolve ---------------------------------------------------------------------


def test_resolve_projective_complex_is_itself(kr32):
    p = projective_module(kr32, 0)
    x = Complex(kr32, 0, [p, p], [ModuleMap.identity(p)])
    r = proj_resolve(x, 6)
    assert not r.truncated
    assert r.complex is x or r.complex.terms == x.terms


def test_resolve_tau_stalk_gives_connecting_complex(kr32):
    data = tau_inverse(projective_module(kr32, 1))
    r = proj_resolve(stalk_complex(data.module, 0), 6)
    assert not r.truncated
    assert r.complex.lo == -1 and r.complex.hi == 0
    assert r.complex.term(-1).total_dim == 2   # A e_y
    assert r.complex.term(0).total_dim == 5    # A e_x
    # homology of the resolution matches the stalk
    assert homology_dims(r.complex, 0) == data.module.dims
    assert not any(homology_dims(r.complex, -1))


def test_resolve_infinite_pd_truncates(dual_numbers):
    s = simple_module(dual_numbers, 0)
    r = proj_resolve(stalk_complex(s, 0), 4)
    assert r.truncated
    assert r.complex is None and r.witness is None


def test_resolve_two_term_inflated_complex(kr32):
    # resolve a genuinely non-projective two-term complex over A
    pres = tri(kr32)
    c_corner = pres.algebra_c
    creg = regular_module(c_corner)
    x = lift_functor(pres, "i_lower", Complex(
        c_corner, 0, [creg, creg], [_loop_mult(c_corner)]))
    r = proj_resolve(x, 8)
    assert not r.truncated
    for n in range(r.complex.lo, r.complex.hi + 1):
        assert sum(homology_dims(x, n)) == sum(homology_dims(r.complex, n))


def _loop_mult(c_corner):
    reg = regular_module(c_corner)
    t_index = c_corner.labels.index("t")
    return ModuleMap(reg, reg, [reg.act(c_corner.coordinate_vector(t_index))])


# -- hom_homotopy ----------------------------------------------------------------------


def test_hom_homotopy_stalks_degree_zero(kr32):
    p = projective_module(kr32, 0)
    x = regular_module(kr32)
    h = hom_homotopy(stalk_complex(p, 0), stalk_complex(x, 0), 0)
    assert h.dim == hom_dim(p, x)


def test_hom_homotopy_equals_ext(kr32, kr22, dual_numbers):
    # two independent code paths agree on stalks
    cases = []
    for alg in (kr32, kr22):
        t = build_apr_tilting(tri(alg)).module
        cases.append((alg, simple_module(alg, 1), t))
        cases.append((alg, t, regular_module(alg)))
    cases.append((dual_numbers, simple_module(dual_numbers, 0),
                  regular_module(dual_numbers)))
    for alg, x, y in cases:
        r = proj_resolve(stalk_complex(x, 0), 7)
        if r.truncated:
            continue
        for n in range(0, 4):
            e = ext(x, y, n, bound=8)
            h = hom_homotopy(r.complex, stalk_complex(y, 0), n)
            assert h.dim == e.dim, (x.dims, y.dims, n)


def test_hom_homotopy_forced_window(kr32):
    p = stalk_complex(projective_module(kr32, 0), 0)
    y = stalk_complex(regular_module(kr32), 0)
    lo, hi = forced_window(p, y)
    assert (lo, hi) == (0, 0)
    assert hom_homotopy(p, y, 3).dim == 0
    assert hom_homotopy(p, y, -2).dim == 0


def test_cross_hom_vanishing_between_sides(kr32):
    # Hom(inflated C, tensored B [n]) = 0 for n > 0 in the window
    pres = tri(kr32)
    y = lift_functor(pres, "i_lower", stalk_complex(regular_module(pres.algebra_c), 0))
    z = lift_functor(pres, "j_shriek", stalk_complex(regular_module(pres.algebra_b), 0))
    ry = proj_resolve(y, 8)
    assert not ry.truncated
    lo, hi = forced_window(ry.complex, z)
    for n in range(1, hi + 1):
        assert hom_homotopy(ry.complex, z, n).dim == 0


# -- functor lifts -----------------------------------------------------------------------


def test_jshriek_stalk_b(kr32):
    pres = tri(kr32)
    z = lift_functor(pres, "j_shriek", stalk_complex(regular_module(pres.algebra_b), 0))
    assert len(z.terms) == 1
    assert is_isomorphic(z.terms[0], projective_module(kr32, 0))


def test_ilower_stalk_c_is_projective(kr32):
    pres = tri(kr32)
    y = lift_functor(pres, "i_lower", stalk_complex(regular_module(pres.algebra_c), 0))
    assert len(y.terms) == 1
    assert is_isomorphic(y.terms[0], projective_module(kr32, 1))
    assert is_projective(y.terms[0])


def test_jlower_stalk_b_not_projective(kr32):
    pres = tri(kr32)
    z = lift_functor(pres, "j_lower", stalk_complex(regular_module(pres.algebra_b), 0))
    assert len(z.terms) == 1
    assert z.terms[0].dims == [3, 0]
    assert not is_projective(z.terms[0])


def test_functor_lifts_preserve_projectivity(kr32, kr22):
    for alg in (kr32, kr22):
        pres = tri(alg)
        for i in range(pres.algebra_b.idempotent_count):
            z = lift_functor(pres, "j_shriek",
                             stalk_complex(projective_module(pres.algebra_b, i), 0))
            assert all(is_projective(t) for t in z.terms)
        for i in range(pres.algebra_c.idempotent_count):
            y = lift_functor(pres, "i_lower",
                             stalk_complex(projective_module(pres.algebra_c, i), 0))
            assert all(is_projective(t) for t in y.terms)


def test_lift_functor_algebra_mismatch(kr32):
    pres = tri(kr32)
    with pytest.raises(ComplexError):
        lift_functor(pres, "i_lower", stalk_complex(regular_module(kr32), 0))


# -- compactness and exceptionality ----------------------------------------------------------


def test_compactness_projective_stalk(kr32):
    v = compactness_check(stalk_complex(projective_module(kr32, 0), 0))
    assert v.verdict == "compact-certified"


def test_compactness_inflated_b(kr32):
    # B as an A-module has pd 1 here since M is free over C
    pres = tri(kr32)
    z = lift_functor(pres, "j_lower", stalk_complex(regular_module(pres.algebra_b), 0))
    v = compactness_check(z, bound=8)
    assert v.verdict == "compact-certified"


def test_compactness_unknown_on_truncation(kr12):
    # over the (1,2) fixture M is not free over C and B inflates with
    # infinite projective dimension
    pres = tri(kr12)
    z = lift_functor(pres, "j_lower", stalk_complex(regular_module(pres.algebra_b), 0))
    v = compactness_check(z, bound=5)
    assert v.verdict == "unknown"


def test_exceptional_tilting_stalk(kr22):
    t = build_apr_tilting(tri(kr22)).module
    v = exceptionality_check(stalk_complex(t, 0), bound=8)
    assert v.verdict is True


def test_regular_against_its_shift(kr32):
    # one-directional vanishing: Hom_K(A, A[1]) = 0 for stalks of projectives
    a_stalk = stalk_complex(regular_module(kr32), 0)
    assert hom_homotopy(a_stalk, a_stalk, 1).dim == 0
    assert hom_homotopy(a_stalk, a_stalk, -1).dim == 0
    # but A + A[1] is not exceptional: the cross term Hom(A[1], A[1])
    # contributes to Hom(X, X[1])
    shifted = stalk_complex(regular_module(kr32), -1)
    total, _, _ = direct_sum_complexes([a_stalk, shifted])
    v = exceptionality_check(total, bound=6)
    assert v.verdict is False
    assert v.witness_degree in (-1, 1)


def test_exceptional_fails_on_selfextension(dual_numbers):
    # perfect two-term truncation of the simple: Hom_K(P, P[1]) is
    # one-dimensional (the class of the identity component)
    reg = regular_module(dual_numbers)
    p = Complex(dual_numbers, -1, [reg, reg], [mult_by_loop(dual_numbers)])
    v = exceptionality_check(p, bound=4)
    assert v.verdict is False
    assert v.witness_degree in (-1, 1)
    assert v.witness_dim == 1
    # the degree 1 failure is the nonzero selfextension class
    assert hom_homotopy(p, p, 1).dim == 1


def test_exceptional_empty_complex(kr32):
    from tiltkit.modules import zero_module
    v = exceptionality_check(stalk_complex(zero_module(kr32), 0))
    assert v.verdict is True


def test_generator_pair_witness(kr32):
    # T1 = stalk A e_B, T2 = stalk A e_C for the b-side recollement
    t1 = stalk_complex(projective_module(kr32, 0), 0)
    t2 = stalk_complex(projective_module(kr32, 1), 0)
    wit = generator_pair_witness_check(t1, t2)
    assert wit.t1_compact == "compact-certified"
    assert wit.t1_exceptional is True
    assert wit.t2_self_window is True
    assert wit.cross_vanishing is True
    assert wit.windows == {"t1_exceptional": (0, 0), "t2_self": (0, 0), "cross": (0, 0)}
    assert "generation_of_unbounded_derived_category" in wit.unchecked


def test_generator_pair_witness_second_recollement(kr32):
    # the other side: T1 = stalk A e_C, T2 = the inflated corner B
    from tiltkit.algebra import detect_triangular
    pres = detect_triangular(kr32, [0])
    t1 = stalk_complex(projective_module(kr32, 1), 0)
    t2 = lift_functor(pres, "j_lower",
                      stalk_complex(regular_module(pres.algebra_b), 0))
    wit = generator_pair_witness_check(t1, t2, bound=8)
    assert wit.t1_compact == "compact-certified"
    assert wit.t1_exceptional is True
    assert wit.t2_self_window is True
    assert wit.cross_vanishing is True
    assert wit.windows == {"t1_exceptional": (0, 0), "t2_self": (-1, 1), "cross": (-1, 0)}

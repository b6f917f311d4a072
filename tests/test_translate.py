import pytest

from tiltkit.algebra import detect_triangular
from tiltkit.modules import (
    bimodule_right_module,
    decompose,
    dual_module,
    is_isomorphic_indec,
    min_projective_resolution,
    projective_module,
    regular_module,
    simple_module,
    zero_module,
)
from tiltkit.translate import (
    AprPreconditionError,
    apr_equivalent_algebra,
    build_apr_tilting,
    endo_triangularity,
    tau_inverse,
)

from conftest import glued_loop_fixture
from module_iso import is_isomorphic
from test_modules import check_exactness


def tri(alg):
    return detect_triangular(alg, [0])


# -- presentations ---------------------------------------------------------------


def test_presentation_of_projective(kr32):
    p = min_projective_resolution(projective_module(kr32, 0), 1)
    assert p.length == 0 and p.completed
    assert p.augmentation.is_surjective()


def test_presentation_simple_dual_numbers(dual_numbers):
    s = simple_module(dual_numbers, 0)
    p = min_projective_resolution(s, 1)
    # P_1 = P_0 = the regular module of k[t]/t^2
    assert p.modules[0].total_dim == 2
    assert p.modules[1].total_dim == 2


def test_presentation_of_dual_corner_covers_m(kr32):
    # over the opposite algebra, D(A e_y) has cover e_y A and first syzygy
    # covered by e_x A (which covers the right module M)
    dx = dual_module(projective_module(kr32, 1))
    p = min_projective_resolution(dx, 1)
    assert p.summands[:2] == [[1], [0]]
    assert p.modules[1].total_dim == 3  # e_x A has dimension 3


# -- tau inverse ------------------------------------------------------------------


def test_tau_inverse_zero(kr32):
    data = tau_inverse(zero_module(kr32))
    assert data.module.is_zero()


def test_tau_inverse_32(kr32):
    data = tau_inverse(projective_module(kr32, 1))
    assert data.module.dims == [3, 0]
    assert data.exact_left
    # the connecting sequence is 0 -> A e_y -> A e_x -> tau -> 0
    assert data.resolution.modules[0].dims == [3, 2]   # A e_x
    assert data.resolution.modules[1].dims == [0, 2]   # A e_y
    assert data.resolution.completed
    check_exactness(data.resolution)
    # pd is exactly 1 with the cover in add(A e_B)
    res = min_projective_resolution(data.module, 4)
    assert res.pd == 1


def test_tau_inverse_22(kr22):
    data = tau_inverse(projective_module(kr22, 1))
    assert data.module.dims == [2, 0]
    res = min_projective_resolution(data.module, 4)
    assert res.pd == 1
    # cross-check ranks of the two-step sequence: dims 2 -> 4 -> 2
    assert data.resolution.modules[0].total_dim == 4
    assert data.resolution.modules[1].total_dim == 2


def test_tau_inverse_of_injective_projective_vanishes(kk):
    # over k x k every projective is injective
    data = tau_inverse(projective_module(kk, 1))
    assert data.module.is_zero()
    assert not data.exact_left


def test_tau_inverse_hom_vanishing_flag(kr12):
    # without a free summand in M, Hom(D(Ae_C), A) can be nonzero and the
    # sequence loses left-exactness; the flag must record whichever happens
    data = tau_inverse(projective_module(kr12, 1))
    assert data.exact_left is (data.resolution.completed)


def test_transpose_hom_euler_identity(kr32, kr22):
    # For X with pd <= 1 and no projective summands, applying Hom(-, A) to the
    # presentation gives the four-term sequence whose dimension alternating
    # sum vanishes.
    for alg in (kr32, kr22):
        data = tau_inverse(projective_module(alg, 1))
        reg = regular_module(alg)
        dx_dim = data.resolution.modules[1].total_dim      # Hom(P_0, A) term
        p1_dim = data.resolution.modules[0].total_dim      # Hom(P_1, A) term
        hom_dx_a = dx_dim - p1_dim + data.module.total_dim
        assert hom_dx_a == 0  # Hom(D A e_C, A) = 0 under the free-summand case


# -- APR tilting -------------------------------------------------------------------


def test_apr_32(kr32):
    data = build_apr_tilting(tri(kr32))
    assert data.selfinjective_local[0] and data.selfinjective_local[1]
    assert data.free_summand
    assert data.tilting_report.verdict is True
    assert data.tilting_report.pd == 1
    # distinct indecomposable summands match the number of simples
    assert len(decompose(data.module)) == 2


def test_apr_22(kr22):
    data = build_apr_tilting(tri(kr22))
    assert data.free_summand
    assert data.tilting_report.verdict is True


def test_apr_12_precondition_fails(kr12):
    with pytest.raises(AprPreconditionError):
        build_apr_tilting(tri(kr12))
    data = build_apr_tilting(tri(kr12), enforce=False)
    assert not data.free_summand
    assert data.tilting_report.verdict is False


def test_apr_summand_list_invariant(kr32):
    data = build_apr_tilting(tri(kr32))
    t_parts = [m for m, _, _ in decompose(data.module)]
    want = [m for m, _, _ in decompose(data.ae_b)] + \
           [m for m, _, _ in decompose(data.tau_part.module)]
    assert len(t_parts) == len(want)
    for w in want:
        assert any(is_isomorphic_indec(w, t) for t in t_parts)


# -- triangularity criterion ---------------------------------------------------------


def test_triangularity_32(kr32):
    data = build_apr_tilting(tri(kr32))
    rep = endo_triangularity(data)
    assert not rep.m_b_projective
    assert rep.hom_tau_to_aeb > 0
    assert rep.hom_aeb_to_tau > 0
    assert rep.equivalence_holds


def test_triangularity_22(kr22):
    data = build_apr_tilting(tri(kr22))
    rep = endo_triangularity(data)
    assert rep.m_b_projective
    assert rep.hom_tau_to_aeb == 0
    assert rep.hom_aeb_to_tau > 0
    assert rep.equivalence_holds
    # M_B isomorphic to the regular right module of B
    m_b = bimodule_right_module(data.presentation.bimodule)
    assert is_isomorphic(m_b, regular_module(m_b.algebra))


def test_triangularity_zero_bimodule():
    pres = glued_loop_fixture(1, 1, 0)
    data = build_apr_tilting(pres, enforce=False)
    rep = endo_triangularity(data)
    assert rep.m_b_projective
    assert rep.hom_tau_to_aeb == 0


# -- the equivalent algebra -----------------------------------------------------------


def test_apr_equivalence_22(kr22):
    data = build_apr_tilting(tri(kr22))
    cert = apr_equivalent_algebra(data)
    assert cert.verdict == "VALID"
    assert cert.endo_triangular is not None
    # corners: End(tau^{-1} A e_C)^op has dim 2, B has dim 2
    assert cert.endo_triangular.algebra_b.dim == 2
    assert cert.endo_triangular.algebra_c.dim == 2
    assert cert.endo_triangular.bimodule.dim == 2
    assert cert.invariants.all_equal
    assert cert.invariants.values["cartan_det"] == (4, 4)
    assert cert.invariants.values["center_dim"] == (2, 2)
    assert cert.invariants.values["simple_count"] == (2, 2)


def test_apr_equivalence_32_not_triangular(kr32):
    data = build_apr_tilting(tri(kr32))
    cert = apr_equivalent_algebra(data)
    assert cert.verdict == "VALID"
    assert cert.endo_triangular is None
    assert cert.invariants.all_equal


def test_apr_degenerate_zero_bimodule():
    # with M = 0 the translate vanishes, T = A e_B is not tilting, and the
    # certificate is INVALID (the invariants disagree: a simple is lost)
    pres = glued_loop_fixture(1, 1, 0)
    data = build_apr_tilting(pres, enforce=False)
    assert data.tau_part.module.is_zero()
    cert = apr_equivalent_algebra(data)
    assert cert.endo.dim == 1
    assert cert.verdict == "INVALID"


def test_tau_cover_lands_in_add_ae_b(kr32, kr22):
    # the projective cover term of the connecting sequence lies in add(A e_B)
    for alg in (kr32, kr22):
        pres = tri(alg)
        data = tau_inverse(projective_module(alg, 1))
        cover_summands = data.resolution.summands[0]
        assert cover_summands and set(cover_summands) <= set(pres.b_idems)


def test_right_bimodule_module_validates(kr32, kr22, kr12):
    for alg in (kr32, kr22, kr12):
        pres = tri(alg)
        m_b = bimodule_right_module(pres.bimodule)
        m_b.validate()

"""Gluing tilting objects over a triangular split and extracting the
endomorphism algebra with its derived-invariant certificate.

Two gluing modes are supported (extension-side j_shriek and inflation-side
j_star), plus shifted stalk gluing with the Ext bimodule.  The generation
condition of a glued object is inherited from the construction and recorded
as such, never decided abstractly.
"""

from __future__ import annotations

from .algebra import (
    FDAlgebra,
    TriangularPresentation,
    bimodule_from_actions,
    detect_triangular,
    glue_triangular,
    quotient_algebra,
)
from .certs import Condition, EquivalenceCertificate, invariants_compare
from .complexes import (
    ChainMap,
    Complex,
    _lift_through_quasi_iso,
    direct_sum_complexes,
    exceptionality_check,
    hom_homotopy,
    inflate_complex,
    inflate_map,
    proj_resolve,
    require_quasi_isomorphism,
    resolution_complex,
    shift_complex,
    stalk_complex,
    tensor_b_complex,
    window_witness,
)
from .linalg import Matrix
from .modules import (
    Module,
    ModuleError,
    ModuleMap,
    composition_algebra,
    ext,
    hom_space,
    endo_algebra,
    min_projective_resolution,
    projective_module,
    regular_module,
    tilting_module_check,
)


class GlueRefusal(ModuleError):
    pass


class GluedTiltingSpec:
    def __init__(self, presentation: TriangularPresentation, y: Complex, z: Complex):
        self.presentation = presentation
        self.y = y                      # over the corner C
        self.z = z                      # over the corner B


def _input_tilting_conditions(x: Complex, label, bound):
    """Certify a gluing input: full tilting check for stalks; for genuine
    complexes, exceptionality plus a generation-by-construction flag."""
    trimmed = x.trim()
    if not trimmed.terms:
        return [Condition(f"{label}_tilting", False, witness="zero complex")]
    if len(trimmed.terms) == 1:
        rep = tilting_module_check(trimmed.terms[0], bound=bound)
        return [Condition(f"{label}_tilting", rep.verdict)]
    exc = exceptionality_check(trimmed, bound=bound)
    return [Condition(f"{label}_exceptional", exc.verdict, window=exc.window,
                      witness=exc.witness_degree),
            Condition(f"{label}_generation_by_construction", True,
                      witness="not decided abstractly; input declared tilting")]


def _resolved(x: Complex, bound, refusal: str) -> Complex:
    """A complex of projectives quasi-isomorphic to x, or GlueRefusal(refusal)
    when its resolution does not close within the bound."""
    r = proj_resolve(x, bound)
    if r.truncated:
        raise GlueRefusal(refusal)
    return r.complex


def homotopy_endo_algebra(parts) -> FDAlgebra:
    """End^op of a direct sum of perfect complexes in the homotopy category,
    with the summand projections as distinguished idempotents."""
    total, incs, projs = direct_sum_complexes(parts)
    h = hom_homotopy(total, total, 0)
    if h.dim == 0:
        raise GlueRefusal("homotopy endomorphism algebra is zero")
    return composition_algebra(total.algebra.field, h.reps, h.class_coordinates,
                               zip(incs, projs))


def _glue(kind, spec: GluedTiltingSpec, bound, z_side, z_name, z_upper):
    """The certificate of X = upper + lower, with Y inflated as i_lower(Y)
    and Z built by z_side: tilting iff hom(lower, upper[n]) vanishes for
    n != 0; the reverse direction vanishes automatically and is asserted
    over the whole window.  E = End_K(X)^op with upper as its first
    idempotent.  i_lower(Y) is built before the Z side, so a refusal of Y
    comes first."""
    pres = spec.presentation
    conds = []
    conds += _input_tilting_conditions(spec.y, "Y", bound)
    conds += _input_tilting_conditions(spec.z, "Z", bound)
    iy = inflate_complex(pres.ambient, pres.b_idems, _resolved(
        spec.y, bound, f"cannot resolve the C-side input within bound {bound}"))
    jz = z_side(spec.z)
    sides = [(jz, z_name), (iy, "i_lower Y")]
    (upper, upper_name), (lower, lower_name) = sides if z_upper else sides[::-1]
    for label, p, q, skip_zero in (("cross_vanishing", lower, upper, True),
                                   ("automatic_reverse_vanishing", upper, lower, False)):
        window, witness = window_witness(p, q, skip_zero)
        conds.append(Condition(label, witness is None, window=window, witness=witness))
    endo = None
    endo_tri = None
    inv = None
    notes = ["generation: by construction from tilting inputs (recorded, not decided)"]
    if all(c.holds() for c in conds):
        endo = homotopy_endo_algebra([upper, lower])
        endo_tri = detect_triangular(endo, [0])
        if endo_tri is None:
            conds.append(Condition("endo_zero_corner", False,
                                   witness="upper corner of End^op does not vanish"))
        else:
            conds.append(Condition("endo_zero_corner", True))
        inv = invariants_compare(pres.ambient, endo)
        notes.append(f"dim Hom({lower_name}, {upper_name}) = "
                     f"{hom_homotopy(lower, upper, 0).dim}")
    return EquivalenceCertificate(kind, conds, endo, endo_tri, inv, notes)


def glue_jshriek(spec: GluedTiltingSpec, bound: int = 12) -> EquivalenceCertificate:
    """X = i_lower(Y) + j_shriek(Z), with j_shriek(Z) the upper side: Z is
    resolved over B before A e_B tensor_B - is applied."""
    pres = spec.presentation

    def j_shriek(z):
        return tensor_b_complex(pres, _resolved(
            z, bound, f"cannot resolve the B-side input within bound {bound}"))
    return _glue("glue_jshriek", spec, bound, j_shriek, "j_shriek Z", z_upper=True)


def glue_jstar(spec: GluedTiltingSpec, bound: int = 12) -> EquivalenceCertificate:
    """X = j_lower(Z) + i_lower(Y) under finite pd of M over C, with
    i_lower(Y) the upper side (the i-shriek of the inflation vanishes):
    Z is inflated along A ->> B and then resolved over A."""
    pres = spec.presentation
    m_c = pres.bimodule.left_module
    if not m_c.is_zero() and not min_projective_resolution(m_c, bound).completed:
        raise GlueRefusal(
            f"projective dimension of M over C exceeds bound {bound}; "
            "the inflation-side gluing requires finite pd")

    def j_lower(z):
        return _resolved(inflate_complex(pres.ambient, pres.c_idems, z), bound,
                         f"inflated B-side complex cannot be resolved within bound {bound}")
    return _glue("glue_jstar", spec, bound, j_lower, "j_lower Z", z_upper=False)


# -- shifted stalk gluing (Ext-bimodule form) ---------------------------------------------


def _m_layout(pres, r):
    """Basis indices of block r of M = e_C A e_B, in ambient order."""
    return [k for k in pres.m_basis_indices if pres.ambient.block_row[k] == r]


def _augmentation(p: Complex, res) -> ChainMap:
    """The quasi-isomorphism from p, the resolution res as a complex (its
    top degree holds P_0), onto the module res resolves, in that degree."""
    return ChainMap(p, stalk_complex(res.target, p.hi), {p.hi: res.augmentation},
                    check=False)


def ext_bimodule(pres: TriangularPresentation, t_mod: Module, eg):
    """eg = Ext_C^n(M, T) as a (B, End_C(T)^op)-bimodule: the left B-action
    precomposes with a lifted right multiplication, the right action
    postcomposes with endomorphisms of T.  The degree n and the resolution
    of M are eg's, and the resolution must be complete.  Returns (bimodule,
    End_C(T)^op algebra, B-action): the B-action holds, per basis element of
    the corner B, a chain map on the resolution complex of M that lifts its
    right multiplication on M."""
    b_alg = pres.algebra_b
    m_c = pres.bimodule.left_module
    f = b_alg.field
    res, degree = eg.resolution, eg.degree
    if not res.completed:
        raise GlueRefusal(f"pd of M over C exceeds {res.length}")
    endt = endo_algebra(t_mod)
    endt_hom = hom_space(t_mod, t_mod)
    a = pres.ambient
    m_layouts = [_m_layout(pres, i) for i in pres.c_idems]
    rmuls = [ModuleMap(m_c, m_c, [a.mult_matrix(k, lay, lay, left=False) for lay in m_layouts])
             for k in pres.corner_b.basis_indices]
    p_m = resolution_complex(res)
    b_action = [g for g, _ in _lift_through_quasi_iso(
        p_m, _augmentation(p_m, res), [{0: rmul.compose(res.augmentation)} for rmul in rmuls])]

    def action(images):
        cols = [eg.class_coordinates(x) for x in images]
        return Matrix.from_columns(f, cols, rows=eg.dim)

    # left B-action: precompose with the lifted right multiplication
    left_mats = []
    for g in b_action:
        lam = g.component(-degree)
        left_mats.append(action([rep.compose(lam) if lam is not None else
                                 ModuleMap.zero(rep.source, rep.target) for rep in eg.cocycles]))
    # right End^op-action: postcompose with the endomorphism itself
    right_mats = [action([endt_hom.from_coordinates(endt.change_to_input.column(k)).compose(rep)
                          for rep in eg.cocycles]) for k in range(endt.dim)]
    bim = bimodule_from_actions(b_alg, endt, eg.dim, left_mats, right_mats)
    return bim, endt, b_action


def shifted_stalk_glue(pres: TriangularPresentation, t_mod: Module, s: int,
                       bound: int = 12) -> EquivalenceCertificate:
    """B + T[s] is tilting iff Ext_C^r(M, T) = 0 for r != s - 1; on success
    E = [[End_C(T)^op, 0], [Ext_C^{s-1}(M, T), B]] is glued explicitly and
    matched against the homotopy-category endomorphism algebra of the
    structured perfect representatives."""
    if s < 1:
        raise GlueRefusal("shift must be >= 1")
    conds = []
    rep_t = tilting_module_check(t_mod, bound=bound)
    conds.append(Condition("T_tilting_over_C", rep_t.verdict))
    m_c = pres.bimodule.left_module
    ext_groups = {}
    if m_c.is_zero():
        pd_m = 0
        vanishing = True
        window = (0, -1)
    else:
        res_m = min_projective_resolution(m_c, bound)
        if not res_m.completed:
            raise GlueRefusal(f"pd of M over C exceeds bound {bound}")
        pd_m = res_m.pd
        vanishing = True
        for r in range(0, pd_m + 1):
            ext_groups[r] = ext(m_c, t_mod, r, bound=bound)
            if r != s - 1 and ext_groups[r].dim != 0:
                vanishing = False
        window = (0, pd_m)
    ext_dims = {r: e.dim for r, e in ext_groups.items()}
    conds.append(Condition(
        "ext_vanishing_off_shift", vanishing, window=window,
        witness={r: d for r, d in ext_dims.items() if r != s - 1 and d} or None))
    notes = [f"Ext_C^r(M, T) dims: {ext_dims}"]
    endo = None
    endo_tri = None
    inv = None
    if all(c.holds() for c in conds):
        eg = ext_groups[s - 1] if s - 1 in ext_groups else ext(m_c, t_mod, s - 1, bound=bound)
        bim, endt, b_action = ext_bimodule(pres, t_mod, eg)
        endo_tri = glue_triangular(endt, pres.algebra_b, bim)
        endo = endo_tri.ambient
        inv = invariants_compare(pres.ambient, endo)
        notes.append(f"lower corner dim = {bim.dim}")
        match = _cross_check_shifted_glue(pres, t_mod, s, endo_tri, endt, bim, eg,
                                          b_action, bound)
        conds.append(Condition("homotopy_endo_match", match))
    return EquivalenceCertificate("shifted_stalk_glue", conds, endo, endo_tri,
                                  inv, notes)


def structured_b_resolution(pres: TriangularPresentation, bound: int = 12):
    """The perfect complex [i_lower(res_C M) -> A e_B] quasi-isomorphic to the
    inflated B, with the quotient witness; the seam is the inclusion of M."""
    a = pres.ambient
    f = a.field
    m_c = pres.bimodule.left_module
    ae_b = projective_module(a, *pres.b_idems)
    b_infl = inflate_complex(a, pres.c_idems, stalk_complex(
        regular_module(pres.algebra_b), 0)).term(0)
    if m_c.is_zero():
        cx = Complex(a, 0, [ae_b], [])
        witness = ChainMap(cx, stalk_complex(b_infl, 0),
                           {0: _ae_b_to_inflated_b(pres, ae_b, b_infl)}, check=False)
        return cx, witness
    res_m = min_projective_resolution(m_c, bound)
    if not res_m.completed:
        raise GlueRefusal(f"pd of M over C exceeds bound {bound}")
    infl = inflate_complex(a, pres.b_idems, resolution_complex(res_m))
    seam_eps = inflate_complex(a, pres.b_idems, stalk_complex(m_c, 0)).term(0)
    c_side = quotient_algebra(a, pres.b_idems)
    aug_infl = inflate_map(c_side, res_m.augmentation, infl.term(0), seam_eps)
    # the inclusion of M into A e_B is right multiplication by e_B
    e_b = pres.corner_b.embed_vector(pres.algebra_b.unit())
    incl = ModuleMap(seam_eps, ae_b,
                     [a.mult_matrix(e_b, _m_layout(pres, r), lay, left=False)
                      for r, lay in enumerate(ae_b.layout)])
    incl.check_intertwines()
    terms = list(infl.terms) + [ae_b]
    diffs = list(infl.diffs) + [incl.compose(aug_infl)]
    cx = Complex(a, infl.lo - 1, terms, diffs)
    witness = ChainMap(cx, stalk_complex(b_infl, 0),
                       {0: _ae_b_to_inflated_b(pres, ae_b, b_infl)})
    require_quasi_isomorphism(witness, "structured resolution failed its exactness check")
    return cx, witness


def _ae_b_to_inflated_b(pres, ae_b: Module, b_infl: Module) -> ModuleMap:
    """The quotient A e_B ->> B (kill the M rows)."""
    a = pres.ambient
    f = a.field
    comps = []
    for r in range(a.idempotent_count):
        if r in pres.b_idems:
            comps.append(Matrix.identity(f, ae_b.dims[r]))
        else:
            comps.append(Matrix.zeros(f, 0, ae_b.dims[r]))
    return ModuleMap(ae_b, b_infl, comps)


def _cross_check_shifted_glue(pres, t_mod, s, endo_tri, endt, bim, eg, b_action, bound):
    """Exact structure-constant comparison between the glued E and the
    homotopy endomorphism algebra of (structured res of B) + (res of T)[s].

    Each glued basis element goes to a chain map, lifted over C along the
    resolutions and inflated; matching means the images are chain maps,
    their classes are a basis, and their multiplication table reproduces E's
    structure constants.  Any two lifts of one map are homotopic, so the
    verdict does not depend on the lifts chosen.
    """
    a = pres.ambient
    f = a.field
    p_b, _ = structured_b_resolution(pres, bound)
    res_t = min_projective_resolution(t_mod, bound)
    if not res_t.completed:
        raise GlueRefusal("pd of T over C exceeds the bound")
    r_t = shift_complex(resolution_complex(res_t), s)
    q_t = _augmentation(r_t, res_t)
    p_t = inflate_complex(a, pres.b_idems, r_t)
    total, incs, projs = direct_sum_complexes([p_b, p_t])
    h = hom_homotopy(total, total, 0)
    e_glued = endo_tri.ambient
    if h.dim != e_glued.dim:
        return False
    c_side = quotient_algebra(a, pres.b_idems)

    def inflated(g, source, target, down):
        """The components of g, a chain map over C, inflated to maps between
        the terms of source and target and moved `down` degrees."""
        return {m - down: inflate_map(c_side, c, source.term(m - down), target.term(m - down))
                for m, c in g.comps.items()}

    # the glued basis is End_C(T)^op, then M, then B (glue_triangular's layout)
    endt_hom = hom_space(t_mod, t_mod)
    lifts = _lift_through_quasi_iso(r_t, q_t, [
        {-s: endt_hom.from_coordinates(endt.change_to_input.column(k)).compose(
            res_t.augmentation)} for k in range(endt.dim)])
    images = [incs[1].compose(ChainMap(p_t, p_t, inflated(g, p_t, p_t, 0))).compose(projs[1])
              for g, _ in lifts]
    # each basis element of the bimodule is a combination of the Ext cocycles
    # Q_{s-1} -> T, lifted from the resolution of M as p_b holds it
    if bim.dim:
        targets = []
        for coeffs in bim.basis_change.columns():
            rep = ModuleMap.zero(eg.cocycles[0].source, eg.cocycles[0].target)
            for c, cocycle in zip(coeffs, eg.cocycles):
                if c:
                    rep = rep.add(cocycle.scale(c))
            targets.append({-s: rep})
        lifts = _lift_through_quasi_iso(resolution_complex(eg.resolution, -1), q_t, targets)
        images += [incs[1].compose(ChainMap(p_b, p_t, inflated(g, p_b, p_t, 0))).compose(projs[0])
                   for g, _ in lifts]
    # B: right multiplication on A e_B beside its lifted action on res M
    ae_b = p_b.term(0)
    for k, g in zip(pres.corner_b.basis_indices, b_action):
        top = ModuleMap(ae_b, ae_b, [a.mult_matrix(k, lay, lay, left=False)
                                     for lay in ae_b.layout])
        top.check_intertwines()
        cm = ChainMap(p_b, p_b, {0: top, **inflated(g, p_b, p_b, 1)})
        images.append(incs[0].compose(cm).compose(projs[0]))
    coords = [h.class_coordinates(cm) for cm in images]
    basis_matrix = Matrix.from_columns(f, coords, rows=h.dim)
    if basis_matrix.rank() != e_glued.dim:
        return False
    # multiplication table must match exactly.  images[i] maps P_T to P_T
    # for i < endt.dim, then P_B to P_T for M and P_B to P_B for B, so
    # images[j] o images[i] is zero unless the target of i is the source of j
    zero = [f.zero()] * h.dim
    for i in range(e_glued.dim):
        for j in range(e_glued.dim):
            got = h.class_coordinates(images[j].compose(images[i])) \
                if (i < endt.dim + bim.dim) == (j < endt.dim) else zero
            want = zero
            for k, cval in e_glued.sparse_table[i][j]:
                want = [w + cval * cc for w, cc in zip(want, coords[k])]
            if got != want:
                return False
    return True

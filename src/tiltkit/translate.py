"""Inverse Auslander-Reiten translation via transpose-of-dual, generalized
APR tilting modules for triangular algebras, and the triangularity criterion
for their endomorphism algebras.

Right modules appear only as left modules over the opposite algebra; the
transpose functor Hom(-, regular) is applied through the explicit element
matrices of a minimal projective presentation.
"""

from __future__ import annotations

from itertools import accumulate

from .algebra import TriangularPresentation, detect_triangular, is_selfinjective_local, \
    opposite
from .certs import Condition, EquivalenceCertificate, invariants_compare
from .modules import (
    Module,
    ModuleMap,
    ModuleError,
    Resolution,
    bimodule_right_module,
    decompose,
    decompose_instances,
    direct_sum,
    dual_module,
    endo_algebra,
    has_free_summand,
    hom_dim,
    is_isomorphic_indec,
    is_projective,
    min_projective_resolution,
    projective_module,
    quotient_module,
    tilting_module_check,
    zero_module,
)
from .linalg import Matrix


class AprPreconditionError(ModuleError):
    pass


class TauInverseData:
    def __init__(self, module: Module, resolution: Resolution, exact_left: bool):
        self.module = module
        self.resolution = resolution
        self.exact_left = exact_left    # Hom(dual x, regular) = 0, so the two-step
                                        # sequence is a genuine projective resolution


def tau_inverse(x: Module) -> TauInverseData:
    """Transpose of the dual: minimal presentation of D(x) over the opposite
    algebra, Hom(-, regular) applied via element matrices, cokernel returned
    with its connecting two-step sequence.

    When Hom(D(x), regular) is nonzero the sequence is still returned but
    flagged: it is then not left-exact, so it is not a projective resolution
    of the result.
    """
    a = x.algebra
    if x.is_zero():
        p = zero_module(a)
        res = Resolution(x, [p], [], ModuleMap.zero(p, p), [[]], completed=True)
        return TauInverseData(zero_module(a), res, True)
    gamma = opposite(a)
    pres = min_projective_resolution(dual_module(x), 1)
    summands0 = pres.summands[0]
    src = projective_module(a, *summands0)
    if not pres.length:
        # dual is projective over gamma: the translate vanishes, and the
        # two-step sequence 0 -> P_0^t -> 0 -> 0 is left-exact only if P_0 is 0
        tau = zero_module(a)
        exact_left = src.total_dim == 0
        res = Resolution(tau, [src], [], ModuleMap.zero(src, tau), [summands0],
                         completed=exact_left)
        return TauInverseData(tau, res, exact_left)
    # the differential runs from projective_module(gamma, *summands1) to
    # projective_module(gamma, *summands0).  Generator t, e_j in Gamma e_j,
    # lies in block j, and so does its image: its part in summand s is an
    # element of e_j Gamma e_i = e_i A e_j, at the algebra indices of the layout
    summands1, d = pres.summands[1], pres.differentials[0]
    elements = {}
    for t, j in enumerate(summands1):
        layout1 = d.source.layout[j]
        layout0 = d.target.layout[j]
        starts1 = _summand_starts(gamma, summands1, j)
        starts0 = _summand_starts(gamma, summands0, j)
        gen = [a.field.zero()] * len(layout1)
        for pos in range(starts1[t], starts1[t + 1]):
            gen[pos] = gamma.idempotents[j][layout1[pos]]
        img = d.components[j].apply(gen)
        for s in range(len(summands0)):
            elem = a.zero_vector()
            for pos in range(starts0[s], starts0[s + 1]):
                elem[layout0[pos]] = img[pos]
            elements[s, t] = elem
    # transpose: right multiplication by each element, from A e_i to A e_j
    tgt = projective_module(a, *summands1)
    transpose_map = ModuleMap(src, tgt, [Matrix.from_blocks(
        a.field, [a.block_dim(r, j) for j in summands1], [a.block_dim(r, i) for i in summands0],
        {(t, s): a.mult_matrix(elements[s, t], a.basis_in_block(r, i), a.basis_in_block(r, j),
                               left=False)
         for s, i in enumerate(summands0) for t, j in enumerate(summands1)})
        for r in range(a.idempotent_count)])
    tau, coker_proj, _ = quotient_module(tgt, transpose_map.total_matrix().columns())
    exact_left = transpose_map.is_injective()
    res = Resolution(tau, [tgt, src], [transpose_map], coker_proj,
                     [summands1, summands0], completed=exact_left)
    return TauInverseData(tau, res, exact_left)


def _summand_starts(a, vertices, r):
    """Where the part of each summand starts in block r of
    projective_module(a, *vertices), followed by the block's dimension."""
    return list(accumulate((a.block_dim(r, v) for v in vertices), initial=0))


class AprTiltingData:
    def __init__(self, presentation: TriangularPresentation, module: Module, ae_b: Module,
                 tau_part: TauInverseData, selfinjective_local: tuple, free_summand: bool,
                 tilting_report):
        self.presentation = presentation
        self.module = module            # T = A e_B + tau^{-1}(A e_C)
        self.ae_b = ae_b
        self.tau_part = tau_part
        self.selfinjective_local = selfinjective_local  # (local, selfinjective, witnesses)
        self.free_summand = free_summand
        self.tilting_report = tilting_report


def build_apr_tilting(pres: TriangularPresentation, enforce: bool = True,
                      bound: int = 12) -> AprTiltingData:
    """T = A e_B + tau^{-1}(A e_C) with the connecting sequence and the full
    tilting certificate attached.  The two sufficient preconditions (local
    self-injective corner, free summand in the bimodule) are recorded; with
    enforce=True their failure is an error, otherwise T is built anyway so
    failure cases can be demonstrated."""
    a = pres.ambient
    c_alg = pres.algebra_c
    local, selfinj, wit = is_selfinjective_local(c_alg)
    m_c = pres.bimodule.left_module
    free = has_free_summand(c_alg, m_c)
    if enforce:
        problems = []
        if not (local and selfinj):
            problems.append("corner algebra C is not self-injective local")
        if not free:
            problems.append("bimodule M has no free C-summand")
        if problems:
            raise AprPreconditionError("; ".join(problems))
    ae_b = projective_module(a, *pres.b_idems)
    tau = tau_inverse(projective_module(a, *pres.c_idems))
    t_mod, _, _ = direct_sum([ae_b, tau.module])
    report = tilting_module_check(t_mod, bound=bound)
    return AprTiltingData(pres, t_mod, ae_b, tau, (local, selfinj, wit), free, report)


class TriangularityReport:
    def __init__(self, m_b_projective: bool, hom_tau_to_aeb: int, hom_aeb_to_tau: int,
                 equivalence_holds: bool):
        self.m_b_projective = m_b_projective
        self.hom_tau_to_aeb = hom_tau_to_aeb
        self.hom_aeb_to_tau = hom_aeb_to_tau
        self.equivalence_holds = equivalence_holds  # m_b_projective <=> hom_tau_to_aeb == 0


def endo_triangularity(data: AprTiltingData) -> TriangularityReport:
    """The criterion: End(T)^op is triangular glued by End(tau^{-1} A e_C)^op
    and B exactly when the bimodule is projective as a right B-module, which
    happens exactly when Hom(tau^{-1}(A e_C), A e_B) = 0; the reverse Hom is
    nonzero under the standing hypotheses."""
    m_b = bimodule_right_module(data.presentation.bimodule)
    proj = is_projective(m_b) if m_b.total_dim else True
    h_tau_aeb = hom_dim(data.tau_part.module, data.ae_b)
    # Yoneda: Hom(A e_B, X) is the sum of e_i X over i in B
    h_aeb_tau = sum(data.tau_part.module.dims[i] for i in data.presentation.b_idems)
    equiv = proj == (h_tau_aeb == 0)
    if data.tilting_report.verdict is True and not equiv:
        raise ModuleError(
            "projectivity of the right bimodule and Hom-vanishing disagree "
            "on a verified tilting module")
    return TriangularityReport(proj, h_tau_aeb, h_aeb_tau, equiv)


def apr_equivalent_algebra(data: AprTiltingData) -> EquivalenceCertificate:
    """E = End(T)^op plus the derived-invariant comparison; when the right
    bimodule is projective, E's own triangular presentation with corners
    End(tau^{-1} A e_C)^op and B is attached."""
    a = data.presentation.ambient
    tri = endo_triangularity(data)
    endo = endo_algebra(data.module)
    # idempotents of E follow decompose_instances(T); find the tau-side ones
    tau_classes = [m for m, _, _ in decompose(data.tau_part.module)]
    tau_side = []
    for pos, (mod, _, _) in enumerate(decompose_instances(data.module)):
        if any(is_isomorphic_indec(mod, t) for t in tau_classes):
            tau_side.append(pos)
    endo_tri = detect_triangular(endo, tau_side)
    inv = invariants_compare(a, endo)
    conditions = [
        Condition("C_selfinjective_local",
                  bool(data.selfinjective_local[0] and data.selfinjective_local[1]),
                  witness=data.selfinjective_local[2] or None),
        Condition("M_free_summand", data.free_summand),
        Condition("T_tilting", data.tilting_report.verdict),
        Condition("sequence_exact_left", data.tau_part.exact_left),
    ]
    notes = [
        f"M_B projective: {tri.m_b_projective}",
        f"dim Hom(tau^-1(Ae_C), Ae_B) = {tri.hom_tau_to_aeb}",
        f"dim Hom(Ae_B, tau^-1(Ae_C)) = {tri.hom_aeb_to_tau}",
        "E is triangular with corners End(tau^-1(Ae_C))^op and B"
        if endo_tri is not None else "E is not triangular for the tau-side idempotents",
    ]
    cert = EquivalenceCertificate("apr", conditions, endo, endo_tri, inv, notes)
    return cert

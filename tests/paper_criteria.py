"""The paper's criteria on triangular matrix algebras, for the tests: homology
corners, Ext-vanishing gluing, dual surjectivity, the restriction sequence,
corner restriction and generator pairs, with `lift_functor`, which lifts a
complex along the triangular recollement by name.  No command or certificate
of the program calls them; the tests check each statement against the
program's own constructions."""

from dataclasses import dataclass

from tiltkit.algebra import TriangularPresentation, same_algebra
from tiltkit.complexes import (
    Complex,
    ComplexError,
    ResolvedComplex,
    direct_sum_complexes,
    exceptionality_check,
    homology_dims,
    inflate_complex,
    proj_resolve,
    stalk_complex,
    tensor_b_complex,
    window_witness,
)
from tiltkit.glue import GlueRefusal
from tiltkit.linalg import Matrix
from tiltkit.modules import (
    Module,
    ModuleError,
    direct_sum,
    ext,
    hom_dim,
    hom_space,
    min_projective_resolution,
    projective_module,
    tilting_module_check,
)
from tiltkit.recollement import torsion_canonical_sequence


def lift_functor(pres: TriangularPresentation, which: str, x: Complex,
                 bound: int = 12) -> Complex:
    """Degreewise lift of i_lower / j_shriek / j_lower along the triangular
    recollement; j_shriek resolves its input first."""
    if which == "i_lower":
        if not same_algebra(x.algebra, pres.algebra_c):
            raise ComplexError("i_lower expects a complex over the corner C")
        return inflate_complex(pres.ambient, pres.b_idems, x)
    if which == "j_lower":
        if not same_algebra(x.algebra, pres.algebra_b):
            raise ComplexError("j_lower expects a complex over the corner B")
        return inflate_complex(pres.ambient, pres.c_idems, x)
    if which == "j_shriek":
        if not same_algebra(x.algebra, pres.algebra_b):
            raise ComplexError("j_shriek expects a complex over the corner B")
        resolved = proj_resolve(x, bound)
        if resolved.truncated:
            raise ComplexError("cannot resolve the input complex within the bound")
        return tensor_b_complex(pres, resolved.complex)
    raise ComplexError(f"unsupported derived lift {which!r}")


# -- gluing criteria -----------------------------------------------------------------


@dataclass
class HomologyCornerReport:
    verdict: bool
    per_degree: dict               # n -> dim of the C-part of H^n(j_shriek Z)
    window: tuple


def homology_corner_check(pres: TriangularPresentation, z: Complex,
                          bound: int = 12) -> HomologyCornerReport:
    """H^n(j_shriek Z) lies in B-mod for all n != 0 iff the C-part of every
    such homology vanishes."""
    jz = lift_functor(pres, "j_shriek", z, bound)
    per = {}
    ok = True
    c_set = set(pres.c_idems)
    for n in range(jz.lo, jz.hi + 1):
        if n == 0:
            continue
        cdim = sum(d for i, d in enumerate(homology_dims(jz, n)) if i in c_set)
        per[n] = cdim
        if cdim:
            ok = False
    return HomologyCornerReport(ok, per, (jz.lo, jz.hi))


@dataclass
class ExtVanishingReport:
    verdict: object                # True / False / "unknown"
    pd_c: object
    pd_a: object
    ext_dims: dict
    agreement_with_tilting: object


def ext_vanishing_glue_check(pres: TriangularPresentation, t_mod: Module,
                             bound: int = 12) -> ExtVanishingReport:
    """i_lower(T) + A e_B is tilting iff Ext^i(i_lower T, M) = 0 for
    1 <= i <= pd_C(T); pd over C and over A agree and that is asserted."""
    c_alg = pres.algebra_c
    res_c = min_projective_resolution(t_mod, bound)
    if not res_c.completed:
        return ExtVanishingReport("unknown", f">= {bound + 1}", None, {}, None)
    it = inflate_complex(pres.ambient, pres.b_idems, stalk_complex(t_mod, 0)).term(0)
    res_a = min_projective_resolution(it, bound)
    if res_a.pd != res_c.pd:
        raise ModuleError("projective dimensions over C and over A disagree")
    m_a = inflate_complex(pres.ambient, pres.b_idems,
                          stalk_complex(pres.bimodule.left_module, 0)).term(0) \
        if pres.bimodule.dim else None
    ext_dims = {}
    ok = True
    for i in range(1, res_c.pd + 1):
        if m_a is None:
            ext_dims[i] = 0
            continue
        e = ext(it, m_a, i, bound=bound)
        ext_dims[i] = e.dim
        if e.dim != 0:
            ok = False
    glued, _, _ = direct_sum([it, projective_module(pres.ambient, *pres.b_idems)])
    rep = tilting_module_check(glued, bound=bound)
    agreement = (rep.verdict is True) == ok
    if not agreement:
        raise ModuleError("Ext-vanishing criterion disagrees with the direct tilting check")
    return ExtVanishingReport(ok, res_c.pd, res_a.pd, ext_dims, agreement)


@dataclass
class SurjectivityReport:
    verdict: bool
    per_degree: dict               # n -> (rank, target_dim)


def hom_surjectivity_check(pres: TriangularPresentation, p: Complex) -> SurjectivityReport:
    """For each n != 0, the map Hom(P^{n+1}, A e_B) -> Hom(P^n, A e_B) induced
    by the differential must be surjective (P a complex of projective
    C-modules, inflated)."""
    a = pres.ambient
    ip = inflate_complex(pres.ambient, pres.b_idems, p)
    ae_b = projective_module(a, *pres.b_idems)
    per = {}
    ok = True
    for n in ip.degrees():
        if n == 0:
            continue
        src = ip.term(n)
        d_n = ip.diff(n)
        h_n = hom_space(src, ae_b)
        if h_n.dimension == 0:
            per[n] = (0, 0)
            continue
        if d_n is None:
            per[n] = (0, h_n.dimension)
            ok = False
            continue
        h_np = hom_space(ip.term(n + 1), ae_b)
        cols = [h_n.coordinates_of(b.compose(d_n)) for b in h_np.basis]
        rank = Matrix.from_columns(a.field, cols, rows=h_n.dimension).rank() \
            if cols else 0
        per[n] = (rank, h_n.dimension)
        if rank < h_n.dimension:
            ok = False
    return SurjectivityReport(ok, per)


# -- restriction results -------------------------------------------------------------


@dataclass
class RestrictionSequenceReport:
    hom_torsion: int
    end_t: int
    hom_free: int
    ext1_torsion: int
    alternating_sum_zero: bool
    higher_vanishing: bool
    window: tuple


def restriction_sequence_check(pres: TriangularPresentation, t_mod: Module,
                               bound: int = 12) -> RestrictionSequenceReport:
    """The four-term exact sequence linking End(T) with the torsion part:
    0 -> Hom(T, e_C T) -> End(T) -> Hom(T, e_B T) -> Ext^1(T, e_C T) -> 0,
    verified numerically, with Ext^n(T, e_C T) = 0 for n >= 2 in the window."""
    wit = torsion_canonical_sequence(pres, t_mod)
    res = min_projective_resolution(t_mod, bound)
    if not res.completed:
        raise GlueRefusal("pd of T exceeds the bound")
    h_tors = hom_dim(t_mod, wit.torsion)
    h_end = hom_dim(t_mod, t_mod)
    # e_B T inflated back to A through the projection
    h_free = hom_dim(t_mod, wit.torsion_free)
    e1 = ext(t_mod, wit.torsion, 1, bound=bound).dim
    alt = (h_tors - h_end + h_free - e1) == 0
    higher = True
    for n in range(2, res.pd + 1):
        if ext(t_mod, wit.torsion, n, bound=bound).dim != 0:
            higher = False
    return RestrictionSequenceReport(h_tors, h_end, h_free, e1, alt, higher,
                                     (0, res.pd))


@dataclass
class CornerRestrictionReport:
    module: Module
    tilting: object
    pd: object


def restrict_tilting_to_corner(pres: TriangularPresentation, t_mod: Module,
                               bound: int = 12) -> CornerRestrictionReport:
    """e_B T as a B-module; for T tilting with pd <= 1 this is again tilting
    with pd <= 1 (refused otherwise)."""
    res = min_projective_resolution(t_mod, bound)
    if not res.completed or res.pd > 1:
        raise GlueRefusal("corner restriction requires pd_A(T) <= 1, verified")
    b_alg = pres.algebra_b
    dims = [t_mod.dims[s] for s in pres.b_idems]
    mats = [t_mod.mats[k] for k in pres.corner_b.basis_indices]
    e_bt = Module(b_alg, dims, mats)
    rep = tilting_module_check(e_bt, bound=bound)
    res_b = min_projective_resolution(e_bt, bound)
    return CornerRestrictionReport(e_bt, rep.verdict, res_b.pd)


# -- generator pairs -----------------------------------------------------------------


@dataclass
class CompactnessVerdict:
    verdict: str                  # "compact-certified" or "unknown"
    resolved: ResolvedComplex


def compactness_check(x: Complex, bound: int = 12) -> CompactnessVerdict:
    resolved = proj_resolve(x, bound)
    if resolved.truncated:
        return CompactnessVerdict("unknown", resolved)
    return CompactnessVerdict("compact-certified", resolved)


@dataclass
class GeneratorPairWitness:
    """Window-limited verdicts for a candidate recollement generator pair:
    which conditions were checked, and in which windows."""
    t1_compact: str
    t1_exceptional: object
    t2_self_window: object         # finite-sum proxy of the T2 condition
    cross_vanishing: object        # Hom(T1, T2[n]) = 0 for all n in window
    windows: dict
    unchecked: tuple = ("generation_of_unbounded_derived_category",)


def generator_pair_witness_check(t1: Complex, t2: Complex,
                                 bound: int = 12) -> GeneratorPairWitness:
    """Check the computable window-limited conditions for (T1, T2); the
    unbounded-coproduct and generation conditions are recorded as unchecked."""
    comp = compactness_check(t1, bound)
    exc = exceptionality_check(t1, bound)
    windows = {"t1_exceptional": exc.window}
    r2 = proj_resolve(t2, bound)
    if r2.truncated:
        t2_self = "unknown"
        cross = "unknown"
        windows["t2_self"] = None
        windows["cross"] = None
    else:
        p2 = r2.complex
        sums, _, _ = direct_sum_complexes([p2, p2])
        windows["t2_self"], witness = window_witness(p2, sums, True)
        t2_self = witness is None
        if comp.verdict == "compact-certified":
            windows["cross"], witness = window_witness(comp.resolved.complex, p2, False)
            cross = witness is None
        else:
            cross = "unknown"
            windows["cross"] = None
    return GeneratorPairWitness(comp.verdict, exc.verdict, t2_self, cross, windows)

"""Certificate objects and the derived-invariant comparison layer.

Every claimed derived equivalence is accompanied by a certificate recording
which conditions were checked (with their degree windows) and a comparison
of cheap derived invariants between the two algebras; a certificate is VALID
only when every condition holds and every invariant agrees.
"""

from __future__ import annotations

from .algebra import FDAlgebra
from .linalg import QQ, Matrix
from .modules import (
    decompose_instances,
    is_isomorphic_indec,
    projective_module,
    regular_module,
)


class Condition:
    def __init__(self, id: str, verdict, window: tuple | None = None, witness=None):
        self.id = id
        self.verdict = verdict          # True / False / "unknown"
        self.window = window            # (lo, hi) degree window actually checked
        self.witness = witness          # offending degree / map data on failure

    def holds(self):
        return self.verdict is True


class InvariantComparison:
    def __init__(self, values: dict):
        self.values = values            # name -> (left, right)

    @property
    def all_equal(self):
        return all(a == b for a, b in self.values.values())


class EquivalenceCertificate:
    def __init__(self, kind: str, conditions, endo: FDAlgebra | None, endo_triangular,
                 invariants: InvariantComparison | None, notes):
        self.kind = kind
        self.conditions = conditions
        self.endo = endo
        self.endo_triangular = endo_triangular  # TriangularPresentation of E when applicable
        self.invariants = invariants
        self.notes = notes

    @property
    def verdict(self):
        ok = all(c.holds() for c in self.conditions)
        if self.invariants is not None:
            ok = ok and self.invariants.all_equal
        return "VALID" if ok else "INVALID"

    def condition(self, cid):
        for c in self.conditions:
            if c.id == cid:
                return c
        return None


def refine_idempotents(a: FDAlgebra) -> FDAlgebra:
    """Replace the distinguished idempotents by a complete primitive
    orthogonal system obtained from the indecomposable summands of the
    regular module; no-op when the current system is already primitive."""
    if all(a.is_idempotent_primitive(i) for i in range(a.idempotent_count)):
        return a
    reg = regular_module(a)
    # the algebra basis index at each regular-module coordinate
    coords = [k for lay in reg.layout for k in lay]
    u = a.unit()
    unit_reg = [u[k] for k in coords]
    new_idems = []
    for _, proj, incl in decompose_instances(reg):
        img = incl.compose(proj).total_matrix().apply(unit_reg)
        elem = [a.field.zero()] * a.dim
        for pos, k in enumerate(coords):
            elem[k] = img[pos]
        new_idems.append(elem)
    return FDAlgebra.from_structure_constants(
        a.field, a.table, new_idems,
        idempotent_names=[f"p{i}" for i in range(len(new_idems))])


def basic_invariants(a: FDAlgebra) -> tuple:
    """(simple count, basic Cartan determinant) from one refinement of the
    idempotents: the number of isomorphism classes of simple modules, and
    the Cartan determinant over one representative primitive idempotent per
    class (the Cartan matrix of the basic algebra)."""
    refined = refine_idempotents(a)
    reps = []
    rep_mods = []
    for i in range(refined.idempotent_count):
        p = projective_module(refined, i)
        if not any(is_isomorphic_indec(p, q) for q in rep_mods):
            rep_mods.append(p)
            reps.append(i)
    n = len(reps)
    entries = [[refined.block_dim(i, j) for j in reps] for i in reps]
    det = Matrix(QQ, entries, cols=n).det() if n else 1
    return n, int(det)


def invariants_compare(a: FDAlgebra, e: FDAlgebra) -> InvariantComparison:
    """Simple count, basic Cartan determinant, and center dimension."""
    (simples_a, det_a), (simples_e, det_e) = basic_invariants(a), basic_invariants(e)
    return InvariantComparison({
        "simple_count": (simples_a, simples_e),
        "cartan_det": (det_a, det_e),
        "center_dim": (a.center_dimension(), e.center_dimension()),
    })

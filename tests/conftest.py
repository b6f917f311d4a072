"""Shared fixtures: the small algebra zoo used across the suite."""

import contextlib
from fractions import Fraction

import pytest

import tiltkit.glue
import tiltkit.modules
from tiltkit.algebra import (
    Bimodule,
    FDAlgebra,
    PathAlgebraPresentation,
    Quiver,
    build_fd_algebra,
    glue_triangular,
    opposite,
)
from tiltkit.linalg import QQ, LinalgError, Matrix, _kernel_basis
from tiltkit.modules import Module, ModuleMap, Resolution, direct_sum, projective_module


def entry_types(field, rows):
    """The type of each entry, row by row, for pinning a result against an
    oracle.  Over F_p that is the entry's own type.  Over Q an integral
    rational is an int or a Fraction depending on the arithmetic that reached
    it, so each entry is checked to be one of the two, never a float or a
    bool, and reads as Fraction."""
    if field.characteristic:
        return [list(map(type, row)) for row in rows]
    assert all(type(x) in (int, Fraction) for row in rows for x in row)
    return [[Fraction] * len(row) for row in rows]



def rref_solve(m, rhs):
    """The one solve of the test oracles: the rref of [A | b]; None when the
    last column is a pivot, else the solution with every free variable
    zero."""
    f = m.field
    aug = Matrix(f, [row + [rhs[i]] for i, row in enumerate(m.data)], cols=m.cols + 1)
    _, rref, pivots = aug.rank_and_rref()
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rref.data[r][m.cols]
    return x


# The quotient type of the library before a class became a residue read at
# the positions without a pivot (``EchelonBasis.free``); kept as the oracle
# that the read-off quotients are checked against.
class SubspaceQuotient:
    """A subspace of k^n together with a complement and the quotient projection.

    Attributes:
        basis: rref basis of the span of the generators.
        reps: standard basis coset representatives of the quotient (as
            ambient-coordinate vectors, one per free column).
        projection: Matrix mapping ambient coordinates to quotient coordinates.
        section: Matrix mapping quotient coordinates back to the chosen
            representatives (projection * section = identity).
    """

    __slots__ = ("field", "ambient_dim", "basis", "reps", "rep_indices", "projection", "section")

    def __init__(self, field, ambient_dim, generators):
        self.field = field
        self.ambient_dim = ambient_dim
        for v in generators:
            if len(v) != ambient_dim:
                raise LinalgError("generator has wrong length")
        z, o = field.zero(), field.one()
        if generators:
            rank, rref, pivots = Matrix(field, generators, cols=ambient_dim).rank_and_rref()
        else:
            rank, rref, pivots = 0, Matrix.zeros(field, 0, ambient_dim), []
        self.basis = [rref.row(i) for i in range(rank)]
        pivot_set = set(pivots)
        free = [c for c in range(ambient_dim) if c not in pivot_set]
        self.rep_indices = free
        self.reps = []
        for fc in free:
            v = [z] * ambient_dim
            v[fc] = o
            self.reps.append(v)
        # proj(v) reads off the free coordinates of v reduced modulo the span.
        self.projection = Matrix(field, _kernel_basis(field, ambient_dim, rref.data, pivots),
                                 cols=ambient_dim)
        self.section = Matrix.from_columns(field, self.reps, rows=ambient_dim)

    @property
    def quotient_dim(self):
        return len(self.reps)

    def project(self, vec):
        return self.projection.apply(vec)

    def contains(self, vec):
        return not any(self.project(vec))


def loop_pair_presentation(a, b, bound=None, field=QQ):
    """Two vertices x, y with loops d (at x) and t (at y) and an arrow f: x -> y,
    relations d^a = t^b = 0 and (d then f) = (f then t).

    The corner e_x A e_x is k[d]/d^a, the corner e_y A e_y is k[t]/t^b, and
    the connecting corner e_y A e_x has dimension min(a, b).  A nilpotency
    degree of 1 means the loop is absent (a length-1 relation would not be
    admissible), and the commutation relation degenerates to a zero relation.
    """
    arrows = [("f", "x", "y")]
    if a > 1:
        arrows.insert(0, ("d", "x", "x"))
    if b > 1:
        arrows.append(("t", "y", "y"))
    q = Quiver(["x", "y"], arrows)
    if bound is None:
        bound = max(a, b, min(a, b) + 1) + 1
    rels = []
    if a > 1:
        rels.append([(1, ("d",) * a)])
    if b > 1:
        rels.append([(1, ("t",) * b)])
    if a > 1 and b > 1:
        rels.append([(1, ("d", "f")), (-1, ("f", "t"))])
    elif a > 1:
        rels.append([(1, ("d", "f"))])
    elif b > 1:
        rels.append([(1, ("f", "t"))])
    return PathAlgebraPresentation(q, rels, bound, field=field)


def loop_pair_algebra(a, b, bound=None, field=QQ):
    return build_fd_algebra(loop_pair_presentation(a, b, bound, field))


def nilpotent_loop_algebra(b):
    """k[t]/t^b as a one-vertex path algebra."""
    q = Quiver(["y"], [("t", "y", "y")])
    rels = [[(1, ("t",) * b)]] if b >= 2 else []
    if b == 1:
        q = Quiver(["y"], [])
        return build_fd_algebra(PathAlgebraPresentation(q, [], 1))
    return build_fd_algebra(PathAlgebraPresentation(q, rels, b))


def a2_algebra():
    """Path algebra of x -> y."""
    q = Quiver(["x", "y"], [("g", "x", "y")])
    return build_fd_algebra(PathAlgebraPresentation(q, [], 2))


def product_kk_algebra():
    """k x k: two vertices, no arrows."""
    q = Quiver(["x", "y"], [])
    return build_fd_algebra(PathAlgebraPresentation(q, [], 1))


def matrix2_algebra(field=QQ):
    """Full 2x2 matrix algebra with diagonal distinguished idempotents."""
    # basis order: E11, E12, E21, E22
    z, o = field.zero(), field.one()

    def vec(k):
        v = [z] * 4
        v[k] = o
        return v

    zero = [z] * 4
    prod = {
        (0, 0): vec(0), (0, 1): vec(1), (0, 2): zero, (0, 3): zero,
        (1, 0): zero, (1, 1): zero, (1, 2): vec(0), (1, 3): vec(1),
        (2, 0): vec(2), (2, 1): vec(3), (2, 2): zero, (2, 3): zero,
        (3, 0): zero, (3, 1): zero, (3, 2): vec(2), (3, 3): vec(3),
    }
    table = [[prod[(i, j)] for j in range(4)] for i in range(4)]
    return FDAlgebra.from_structure_constants(
        field, table, [vec(0), vec(3)], idempotent_names=["1", "2"])


def jordan_bimodule(c, b, m):
    """The (C, B)-bimodule k^m where both loop generators act by the same
    nilpotent shift; C = k[t]/t^b, B = k[d]/d^a as built above, m <= min(a, b).

    Basis vector i (0-based) sits in degree i; t and d both send i -> i+1.
    """
    f = QQ
    z, o = f.zero(), f.one()

    def shift_power(p):
        rows = [[o if j + p == i else z for j in range(m)] for i in range(m)]
        return Matrix(f, rows, cols=m) if m else Matrix.zeros(f, 0, 0)

    # algebra basis elements of k[t]/t^b are 1, t, ..., t^{b-1} in path order
    left = [shift_power(k) for k in range(c.dim)]
    right = [shift_power(k) for k in range(b.dim)]
    return Bimodule(c, b, m, left, right,
                    block_row=[0] * m, block_col=[0] * m)


def glued_loop_fixture(a, b, m):
    """Triangular algebra glued from k[d]/d^a, k[t]/t^b and the Jordan bimodule."""
    B = nilpotent_loop_algebra(a)
    B.idempotent_names = ["x"]
    C = nilpotent_loop_algebra(b)
    C.idempotent_names = ["y"]
    return glue_triangular(B, C, jordan_bimodule(C, B, m))


@pytest.fixture(scope="session")
def kr32():
    return loop_pair_algebra(3, 2)


@pytest.fixture(scope="session")
def kr22():
    return loop_pair_algebra(2, 2)


@pytest.fixture(scope="session")
def kr12():
    return loop_pair_algebra(1, 2)


@pytest.fixture(scope="session")
def a2():
    return a2_algebra()


@pytest.fixture(scope="session")
def kk():
    return product_kk_algebra()


@pytest.fixture(scope="session")
def mat2():
    return matrix2_algebra()


@pytest.fixture(scope="session")
def dual_numbers():
    return nilpotent_loop_algebra(2)


def a3_zero_relation_algebra(field=QQ):
    """u -> v -> w with the composite zero; the simple at u has pd 2."""
    q = Quiver(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w")])
    return build_fd_algebra(PathAlgebraPresentation(q, [[(1, ("a", "b"))]], 3, field=field))


@pytest.fixture(scope="session")
def a3z():
    return a3_zero_relation_algebra()


def injective_module(a, i):
    """The injective D(A^op e_i) as a left A-module.  ``dual_module`` of
    the A^op-module A^op e_i lands over the opposite of A^op, which is a new
    algebra, so its transposed actions are read over A here."""
    p = projective_module(opposite(a), i)
    return Module(a, p.dims, [m.transpose() for m in p.mats])


def dense_multiply(field, table, u, v):
    """Reference product of coordinate vectors: a dense loop over every
    entry of u, v and the structure-constant table, skipping entries equal
    to field.zero()."""
    z = field.zero()
    out = [z] * len(table)
    for i, ui in enumerate(u):
        if ui == z:
            continue
        for j, vj in enumerate(v):
            if vj == z:
                continue
            c = ui * vj
            for k, t in enumerate(table[i][j]):
                if t != z:
                    out[k] = out[k] + c * t
    return out


def padded_resolution(res):
    """A non-minimal variant of a resolution (one extra free summand spliced
    into P_0 with an identity cancellation), used to confirm that Ext-bimodule
    data does not depend on the chosen resolution."""
    a = res.target.algebra
    extra = projective_module(a, 0)
    p0, incs, projs = direct_sum([res.modules[0], extra])
    aug = res.augmentation.compose(projs[0])
    p1_old = res.modules[1] if len(res.modules) > 1 else None
    if p1_old is None:
        p1, incs1, projs1 = direct_sum([extra])
        d1 = incs[1].compose(ModuleMap.identity(extra)).compose(projs1[0])
        return Resolution(res.target, [p0, p1], [d1], aug,
                          [res.summands[0] + [0], [0]], completed=res.completed)
    p1, incs1, projs1 = direct_sum([p1_old, extra])
    d1 = incs[0].compose(res.differentials[0]).compose(projs1[0]).add(
        incs[1].compose(ModuleMap.identity(extra)).compose(projs1[1]))
    mods = [p0, p1] + res.modules[2:]
    diffs = [d1]
    if len(res.differentials) > 1:
        diffs.append(incs1[0].compose(res.differentials[1]))
        diffs.extend(res.differentials[2:])
    summands = [res.summands[0] + [0], res.summands[1] + [0]] + res.summands[2:]
    return Resolution(res.target, mods, diffs, aug, summands,
                      completed=res.completed)


@contextlib.contextmanager
def padded_glue_resolutions():
    """Within the block, each resolution that `tiltkit.glue` asks for, itself
    or through `ext` and `tilting_module_check`, is the padded variant of the
    minimal one, built once per module so that every caller shares it."""
    real = tiltkit.modules.min_projective_resolution
    padded = {}

    def padding(x, bound):
        if id(x) not in padded:
            padded[id(x)] = (x, padded_resolution(real(x, bound)))
        return padded[id(x)][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiltkit.glue, "min_projective_resolution", padding)
        mp.setattr(tiltkit.modules, "min_projective_resolution", padding)
        yield

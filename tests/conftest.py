"""Shared fixtures and helpers: the small algebra zoo used across the suite,
the corpora and comparisons that several test modules share, one entry
typing (`typed`) and one seeded change of basis (`unimodular`).  Test
modules import from here and from `reference.py`, never from each other
(`tests/test_no_dead_code.py` checks it)."""

import contextlib
import functools
import random
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
from tiltkit.complexes import (
    ChainMap,
    Complex,
    direct_sum_complexes,
    forced_window,
    hom_homotopy,
    resolution_complex,
    shift_complex,
)
from tiltkit.linalg import QQ, Matrix, PrimeField
from tiltkit.modules import (
    Module,
    ModuleMap,
    Resolution,
    direct_sum,
    ext,
    hom_space,
    min_projective_resolution,
    module_from_arrow_matrices,
    projective_module,
    regular_module,
    simple_module,
)
from tiltkit.translate import tau_inverse

import reference

F101 = PrimeField(101)
FIELDS = [QQ, F101]


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


def typed(x, field=None):
    """x with each entry paired with its type as `entry_types` reads it, so
    that == compares values and those types: a Matrix, the components of a
    ModuleMap, the dimensions and actions of a Module, the components of a
    ChainMap by degree, or a vector over `field`."""
    if isinstance(x, Matrix):
        return x.rows, x.cols, [list(zip(t, row))
                                for t, row in zip(entry_types(x.field, x.data), x.data)]
    if isinstance(x, ModuleMap):
        return [typed(c) for c in x.components]
    if isinstance(x, Module):
        return x.dims, [typed(m) for m in x.mats]
    if isinstance(x, ChainMap):
        return [(m, typed(x.comps[m])) for m in sorted(x.comps)]
    return list(zip(entry_types(field, [x])[0], x))


# -- a seeded change of basis --------------------------------------------------------


def unimodular(field, rng, n):
    """A seeded integer matrix of determinant +-1 read over `field`: a
    product of elementary row additions and a row permutation."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return Matrix(field, [[field.of(v) for v in row] for row in rows], cols=n)


def rebased(x, rng):
    """The module x in a seeded unimodular basis of each block: basis
    element k acts by g_r x_k g_c^-1."""
    a = x.algebra
    gs = [unimodular(a.field, rng, d) for d in x.dims]
    invs = [g.inverse() if g.rows else g for g in gs]
    out = Module(a, x.dims, [gs[a.block_row[k]] * m * invs[a.block_col[k]]
                             for k, m in enumerate(x.mats)])
    out.validate()
    return out


def rebased_table(alg, rng):
    """The structure table and idempotents of alg on the basis of the
    columns of a seeded unimodular matrix."""
    field = alg.field
    p = unimodular(field, rng, alg.dim)
    inv = p.inverse()
    basis = p.columns()
    table = [[inv.apply(reference.multiply(field, alg.table, u, v)) for v in basis]
             for u in basis]
    return table, [inv.apply(e) for e in alg.idempotents]


def rebased_algebra(alg, rng):
    """alg on a seeded unimodular basis, normalized again by
    from_structure_constants."""
    return FDAlgebra.from_structure_constants(
        alg.field, *rebased_table(alg, rng), idempotent_names=alg.idempotent_names)


def reduced(alg, field):
    """An algebra with rational structure constants, read over `field`."""
    if field == alg.field:
        return alg
    table = [[[field.of(x) for x in prod] for prod in row] for row in alg.table]
    return FDAlgebra(field, alg.labels, table,
                     [[field.of(x) for x in e] for e in alg.idempotents],
                     idempotent_names=alg.idempotent_names,
                     block_row=alg.block_row, block_col=alg.block_col)



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


# -- module fixtures shared by several test modules ----------------------------------


def frac_matrix(rows, cols=None):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows],
                  cols=cols if cols is not None else (len(rows[0]) if rows else 0))


def middle_term_module(kr32):
    """The nonsplit extension of tau^{-1}(P_y) by P_y over the (3,2) fixture:
    x-part k^3 with d a shift, y-part k^2 with t a shift, and f of rank one
    hitting the socle of the y-part."""
    d = frac_matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    t = frac_matrix([[0, 0], [1, 0]])
    f = frac_matrix([[0, 0, 0], [1, 0, 0]])
    return module_from_arrow_matrices(kr32, [3, 2], {"d": d, "f": f, "t": t})


def check_exactness(res):
    """Asserts that the resolution is exact, by ranks."""
    assert res.augmentation.is_surjective()
    for k, d in enumerate(res.differentials, start=1):
        prev = res.augmentation if k == 1 else res.differentials[k - 2]
        assert prev.compose(d).is_zero()
        assert d.rank() == prev.source.total_dim - prev.rank()


def point_extension_of_a2():
    """Glue B = k with C = the path algebra of u -> v and M = C e_u."""
    b = nilpotent_loop_algebra(1)
    c = a2_algebra()
    z, o = QQ.zero(), QQ.one()
    left = [Matrix(QQ, [[o, z], [z, z]]),          # e_x projects to the top
            Matrix(QQ, [[z, z], [z, o]]),          # e_y projects to the arrow part
            Matrix(QQ, [[z, z], [o, z]])]          # g shifts e_x to g
    right = [Matrix.identity(QQ, 2)]
    m = Bimodule(c, b, 2, left, right, block_row=[0, 1], block_col=[0, 0])
    return glue_triangular(b, c, m)


def violation_fixture():
    """B = k x k, C = k, M one-dimensional supported on the second
    B-idempotent; drives the homology-corner and surjectivity violations."""
    b = product_kk_algebra()
    c = nilpotent_loop_algebra(1)
    m = Bimodule(c, b, 1,
                 [Matrix.identity(QQ, 1)],
                 [Matrix.zeros(QQ, 1, 1), Matrix.identity(QQ, 1)],
                 block_row=[0], block_col=[1])
    return glue_triangular(b, c, m)


def apr_tilt_over(c_alg):
    """P_u + tau^{-1}(P_v) over a hereditary two-vertex corner algebra."""
    p0 = projective_module(c_alg, 0)
    tau = tau_inverse(projective_module(c_alg, 1)).module
    total, _, _ = direct_sum([p0, tau])
    return total


A3_DOC = {
    "field": "Q",
    "quiver": {"vertices": ["u", "v", "w"],
               "arrows": [{"name": "a", "from": "u", "to": "v"},
                          {"name": "b", "from": "v", "to": "w"}]},
    "relations": [[{"coeff": "1", "path": ["a", "b"]}]],
    "nilpotency_bound": 3,
}


# -- the corpus of the Ext, Hom_K, Hom and block checks --------------------------------

LOOP_PAIRS = [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]
ALGEBRA_IDS = [f"loop{a}{b}" for a, b in LOOP_PAIRS] + ["a3z"]


def algebras(field):
    return [loop_pair_algebra(a, b, field=field) for a, b in LOOP_PAIRS] + \
        [a3_zero_relation_algebra(field)]


@functools.cache
def modules_over(field, index):
    """Simples, projectives, the regular module and a seeded sum of
    projectives in a unimodular basis of each block."""
    a = algebras(field)[index]
    rng = random.Random(3 + index)
    projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
    total, _, _ = direct_sum([rng.choice(projectives) for _ in range(2)])
    return a, [simple_module(a, i) for i in range(a.idempotent_count)] + projectives + \
        [regular_module(a), rebased(total, rng)]


def complexes_over(field, index):
    """Resolution complexes, a shifted one and a degreewise direct sum."""
    _, mods = modules_over(field, index)
    out = [resolution_complex(min_projective_resolution(x, 2)) for x in mods[:3]]
    out.append(shift_complex(out[0], 1))
    out.append(direct_sum_complexes([out[1], out[2]])[0])
    return out


def ext_on(x, y, n, res):
    """ext(x, y, n) computed on the resolution res of x, which decides
    degree n: it is complete, or it reaches P_{n+1}."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiltkit.modules, "min_projective_resolution", lambda *_: res)
        return ext(x, y, n)


@functools.cache
def decompose_cases(field=QQ):
    """(algebra, module, rebased): the projectives and the regular module,
    and two seeded sums of two or three projectives in a unimodular basis,
    per algebra."""
    rng = random.Random(27)
    cases = []
    for a in [loop_pair_algebra(3, 2, field=field), loop_pair_algebra(2, 2, field=field),
              loop_pair_algebra(1, 2, field=field), loop_pair_algebra(3, 3, field=field),
              a3_zero_relation_algebra(field)]:
        projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
        cases += [(a, p, False) for p in projectives]
        cases.append((a, regular_module(a), False))
        for _ in range(2):
            picks = [rng.choice(projectives) for _ in range(rng.randint(2, 3))]
            total, _, _ = direct_sum(picks)
            cases.append((a, rebased(total, rng), True))
    return cases


LIFT_ALGEBRAS = {
    "loop22": lambda f: loop_pair_algebra(2, 2, field=f),
    "loop33": lambda f: loop_pair_algebra(3, 3, field=f),
    "a3z": a3_zero_relation_algebra,
}


def finite_pd_modules(name, a):
    """Modules of finite projective dimension, not all projective."""
    projectives = [projective_module(a, i) for i in range(a.idempotent_count)]
    if name == "a3z":
        injectives = [injective_module(a, i) for i in range(a.idempotent_count)]
        return [simple_module(a, i) for i in range(a.idempotent_count)] + \
            injectives[:1] + projectives[-1:]
    tau = tau_inverse(projectives[1]).module
    return [tau, rebased(direct_sum([tau, projectives[0]])[0], random.Random(5))] + \
        projectives


def two_term_complexes(name, a):
    """X -> Y over modules of finite_pd_modules that are not all projective,
    with the first basis map, zero, or the sum of the basis maps as the
    differential."""
    mods = finite_pd_modules(name, a)
    out = []
    for x in mods:
        for y in mods:
            basis = hom_space(x, y).basis
            diffs = basis[:1] + [ModuleMap.zero(x, y)]
            if len(basis) > 1:
                diffs.append(functools.reduce(ModuleMap.add, basis))
            for d in diffs:
                cx = Complex(a, 0, [x, y], [d])
                if not cx.all_projective():
                    out.append(cx)
    return out


def assert_same_hom(p, y, n):
    """hom_homotopy(p, y, n) against `reference.hom_homotopy`: the same
    dimension, representatives and class coordinates, entry for entry;
    returns the dimension."""
    want = reference.hom_homotopy(p, y, n)
    got = hom_homotopy(p, y, n)
    field = p.algebra.field
    assert got.dim == want.dim
    assert [typed(r) for r in got.reps] == [typed(r) for r in want.reps]
    probes = list(want.reps)
    if len(probes) >= 2:
        probes.append(probes[0].scale(field.of(3)).add(probes[1]))
    for probe in probes:
        assert typed(got.class_coordinates(probe), field) == \
            typed(want.class_coordinates(probe), field)
    return got.dim


def assert_same_hom_over_window(pairs):
    """assert_same_hom in every degree where a chain map can exist and one
    past each end; returns the sum of the dimensions."""
    seen = 0
    for p, y in pairs:
        lo, hi = forced_window(p, y)
        for n in range(lo - 1, hi + 2):
            seen += assert_same_hom(p, y, n)
    return seen

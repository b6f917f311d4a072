"""Finite-dimensional left modules over an FDAlgebra.

A module is stored in coordinates adapted to the idempotent decomposition:
block i holds e_i X, and every algebra basis element b in Peirce block (r, c)
acts by a single matrix X_c -> X_r.  Right modules are always realized as
left modules over the opposite algebra.
"""

from __future__ import annotations

from itertools import accumulate, chain, pairwise

from .algebra import FDAlgebra, opposite, same_algebra
from .linalg import EchelonBasis, Matrix, _kernel_basis, reversed_span, span_basis


class ModuleError(Exception):
    pass


class DecompositionError(ModuleError):
    pass


class Module:
    """A representation: per-idempotent dimensions plus one matrix per
    algebra basis element (shape dims[block_row] x dims[block_col]).

    A module is immutable once built: ``_cache`` keeps what is computed
    from it (its projective resolution and cover, its radical, the top of a
    projective A e_i, its summand instances and its Hom spaces to every
    module seen, keyed ``("hom", _shared(y))``), which would go stale if
    ``dims`` or ``mats`` changed afterwards.  Caches are shared by content:
    modules over one algebra object with equal ``dims`` and ``mats`` use
    one ``_cache``, reached through ``_shared``.
    """

    __slots__ = ("algebra", "dims", "mats", "layout", "_first", "_cache")

    def __init__(self, algebra, dims, mats):
        self.algebra = algebra
        self.dims = list(dims)
        self.mats = list(mats)
        self.layout = None
        self._first = None
        self._cache = {}
        if len(self.dims) != algebra.idempotent_count:
            raise ModuleError("dims must list one dimension per idempotent")
        if len(self.mats) != algebra.dim:
            raise ModuleError("need one action matrix per algebra basis element")
        for k, m in enumerate(self.mats):
            want = (self.dims[algebra.block_row[k]], self.dims[algebra.block_col[k]])
            if (m.rows, m.cols) != want:
                raise ModuleError(f"action matrix {k} has shape {(m.rows, m.cols)}, want {want}")

    # -- coordinates -----------------------------------------------------------

    @property
    def total_dim(self):
        return sum(self.dims)

    def offset(self, i):
        return sum(self.dims[:i])

    def block_slice(self, i):
        o = self.offset(i)
        return o, o + self.dims[i]

    def action_column(self, k, t):
        """b_k * u_t for the total basis vector u_t: column t of the action
        of basis element k.  That is column t - offset(c) of ``mats[k]``
        placed in block r when t lies in block c, for b_k in Peirce block
        (r, c), and zero otherwise."""
        a = self.algebra
        out = [a.field.zero()] * self.total_dim
        lo, hi = self.block_slice(a.block_col[k])
        if lo <= t < hi:
            ro = self.offset(a.block_row[k])
            for i, row in enumerate(self.mats[k].data):
                out[ro + i] = row[t - lo]
        return out

    def act(self, vec):
        """Total matrix of the action of an algebra element (coordinate vector)."""
        a = self.algebra
        out = Matrix.zeros(a.field, self.total_dim, self.total_dim)
        for k, c in enumerate(vec):
            if c:
                ro, co = self.offset(a.block_row[k]), self.offset(a.block_col[k])
                for i, row in enumerate(self.mats[k].data):
                    dst = out.data[ro + i]
                    for j, y in enumerate(row):
                        if y:
                            dst[co + j] = dst[co + j] + c * y
        return out

    def block_action(self, vec, r, c):
        """Action X_c -> X_r of an algebra element supported on block (r, c)."""
        f = self.algebra.field
        out = Matrix.zeros(f, self.dims[r], self.dims[c])
        for k in self.algebra.basis_in_block(r, c):
            if vec[k]:
                out = out + self.mats[k].scale(vec[k])
        return out

    def is_zero(self):
        return self.total_dim == 0

    def __repr__(self):
        return f"Module(dims={tuple(self.dims)})"

    # -- axioms ----------------------------------------------------------------

    def validate(self):
        """Check unit behaviour, and multiplicativity on the pairs (g, b)
        with g in ``FDAlgebra.generating_indices`` and b any basis element.

        A is associative, so the g with rho(g y) = rho(g) rho(y) for all y
        are closed under products, and generators suffice.  A module that
        passes is marked valid in ``_cache`` and not checked again.

        Raises ModuleError with the first offending basis pair as witness.
        """
        cache = _shared(self)._cache
        if cache.get("valid"):
            return
        a = self.algebra
        f = a.field
        for i, e in enumerate(a.idempotents):
            m = self.block_action(e, i, i)
            if m != Matrix.identity(f, self.dims[i]):
                raise ModuleError(f"idempotent {a.idempotent_names[i]} does not act as identity")
        pair = self._first_unmultiplicative_pair()
        if pair is not None:
            k, l = pair
            raise ModuleError(
                f"action not multiplicative at basis pair "
                f"({a.labels[k]}, {a.labels[l]})")
        cache["valid"] = True

    def _first_unmultiplicative_pair(self):
        """The first basis pair (k, l), k a generating index, with
        rho(b_k b_l) != rho(b_k) rho(b_l), or None.

        It is also the first such pair over all k.  The idempotents act
        correctly once the unit check has passed, and every other b_k lies
        in the span of products of idempotents and generators of smaller
        index, so the first k that fails is a generating index."""
        a = self.algebra
        f = a.field
        for k in a.generating_indices():
            for l in range(a.dim):
                if a.block_col[k] != a.block_row[l]:
                    continue
                lhs = self.mats[k] * self.mats[l]
                rhs = Matrix.zeros(f, self.dims[a.block_row[k]], self.dims[a.block_col[l]])
                for t, c in a.sparse_table[k][l]:
                    rhs = rhs + self.mats[t].scale(c)
                if lhs != rhs:
                    return k, l
        return None


def _shared(x):
    """The first module over x.algebra with x's content, whose cache x now
    uses.  Modules are kept per algebra in buckets by ``tuple(dims)`` and
    compared by ``mats``, entry types included: results built from an int
    and from an equal Fraction differ in type."""
    first = x._first
    if first is None:
        bucket = x.algebra._modules.setdefault(tuple(x.dims), [])
        first = next((c for c in bucket if all(
            m is n or m.data == n.data
            and [*map(type, chain(*m.data))] == [*map(type, chain(*n.data))]
            for m, n in zip(c.mats, x.mats))), x)
        if first is x:
            bucket.append(x)
        x._first = first
        x._cache = first._cache
    return first


class ModuleMap:
    """A homomorphism by per-idempotent component matrices."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = list(components)
        for i, m in enumerate(self.components):
            if (m.rows, m.cols) != (target.dims[i], source.dims[i]):
                raise ModuleError(f"component {i} has wrong shape")

    @staticmethod
    def zero(source, target):
        f = source.algebra.field
        return ModuleMap(source, target,
                         [Matrix.zeros(f, target.dims[i], source.dims[i])
                          for i in range(len(source.dims))])

    @staticmethod
    def identity(module):
        f = module.algebra.field
        return ModuleMap(module, module,
                         [Matrix.identity(f, d) for d in module.dims])

    def total_matrix(self):
        return Matrix.from_blocks(self.source.algebra.field, self.target.dims, self.source.dims,
                                  {(i, i): m for i, m in enumerate(self.components)})

    def apply(self, vec):
        return self.total_matrix().apply(vec)

    def compose(self, other):
        """self after other (other.target must be self.source)."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise ModuleError("composition shape mismatch")
        return ModuleMap(other.source, self.target,
                         [a * b for a, b in zip(self.components, other.components)])

    def add(self, other):
        return ModuleMap(self.source, self.target,
                         [a + b for a, b in zip(self.components, other.components)])

    def scale(self, c):
        return ModuleMap(self.source, self.target,
                         [m.scale(c) for m in self.components])

    def rank(self):
        return sum(m.rank() for m in self.components)

    def is_injective(self):
        return self.rank() == self.source.total_dim

    def is_surjective(self):
        return self.rank() == self.target.total_dim

    def is_zero(self):
        return all(m.is_zero() for m in self.components)

    def check_intertwines(self):
        a = self.source.algebra
        for k in a.generators():
            r, c = a.block_row[k], a.block_col[k]
            lhs = self.components[r] * self.source.mats[k]
            rhs = self.target.mats[k] * self.components[c]
            if lhs != rhs:
                raise ModuleError("map does not intertwine the algebra action")

    def __repr__(self):
        return f"ModuleMap({tuple(self.source.dims)} -> {tuple(self.target.dims)})"


# -- standard modules -----------------------------------------------------------


def projective_module(a: FDAlgebra, *vertices) -> Module:
    """A e_{v_1} + ... + A e_{v_m}, built once per algebra and vertex tuple.

    A single A e_i has in block r the algebra basis of Peirce block (r, i),
    acted on by the structure constants; a sum is the direct sum of the
    single ones.  ``layout[r]`` lists the algebra basis index at each
    coordinate of block r; unlike ``_cache``, it belongs to this object."""
    mod = a._projectives.get(vertices)
    if mod is not None:
        return mod
    n = a.idempotent_count
    if len(vertices) == 1:
        i = vertices[0]
        if not (0 <= i < n):
            raise ModuleError(f"unknown vertex index {i}")
        layout = [a.basis_in_block(r, i) for r in range(n)]
        mats = [a.mult_matrix(k, layout[a.block_col[k]], layout[a.block_row[k]], left=True)
                for k in range(a.dim)]
        mod = Module(a, [len(layout[r]) for r in range(n)], mats)
    else:
        parts = [projective_module(a, i) for i in vertices]
        mod = direct_sum(parts)[0]
        layout = [[k for p in parts for k in p.layout[r]] for r in range(n)]
    mod.layout = layout
    a._projectives[vertices] = mod
    return mod


def direct_sum(modules):
    """Direct sum with per-summand inclusion and projection maps.  Block i
    of the sum holds block i of each summand in turn."""
    if not modules:
        raise ModuleError("empty direct sum needs an algebra; use zero_module")
    a = modules[0].algebra
    f = a.field
    sizes = [[m.dims[i] for m in modules] for i in range(a.idempotent_count)]
    total = Module(a, [sum(s) for s in sizes], [
        Matrix.from_blocks(f, sizes[a.block_row[k]], sizes[a.block_col[k]],
                           {(t, t): m.mats[k] for t, m in enumerate(modules)})
        for k in range(a.dim)])
    # summand t's inclusion is a column block of the identity, and its
    # projection the row block at the same offsets
    incs, projs = [[] for _ in modules], [[] for _ in modules]
    for s in sizes:
        ident = Matrix.identity(f, sum(s)).data
        for t, (lo, hi) in enumerate(pairwise(accumulate(s, initial=0))):
            incs[t].append(Matrix._own(f, [row[lo:hi] for row in ident], hi - lo))
            projs[t].append(Matrix._own(f, ident[lo:hi], len(ident)))
    return (total, [ModuleMap(m, total, c) for m, c in zip(modules, incs)],
            [ModuleMap(total, m, c) for m, c in zip(modules, projs)])


def block_map(source, target, src_parts, tgt_parts, blocks):
    """The map between direct sums source = (+) src_parts and target =
    (+) tgt_parts, in the layout of ``direct_sum``, whose block (i, j) is
    the ModuleMap blocks[i, j]: src_parts[j] -> tgt_parts[i]; a missing
    block is zero."""
    f = source.algebra.field
    return ModuleMap(source, target, [
        Matrix.from_blocks(f, [p.dims[v] for p in tgt_parts], [p.dims[v] for p in src_parts],
                           {ij: g.components[v] for ij, g in blocks.items()})
        for v in range(len(source.dims))])


def zero_module(a: FDAlgebra) -> Module:
    f = a.field
    n = a.idempotent_count
    return Module(a, [0] * n,
                  [Matrix.zeros(f, 0, 0) for _ in range(a.dim)])


def regular_module(a: FDAlgebra) -> Module:
    if a.idempotent_count == 0:
        return zero_module(a)
    return projective_module(a, *range(a.idempotent_count))


# -- sub and quotient modules ----------------------------------------------------


def _block_parts(module, vectors):
    """Per-block span bases of an action-stable subspace given by total vectors."""
    f = module.algebra.field
    n = len(module.dims)
    parts = []
    for i in range(n):
        lo, hi = module.block_slice(i)
        parts.append(span_basis(f, [v[lo:hi] for v in vectors], module.dims[i]))
    return parts


def submodule(module, vectors):
    """The submodule spanned by total-coordinate vectors.

    Returns (sub Module, inclusion ModuleMap).  Per-block components are
    taken because submodules are graded by the idempotent decomposition.
    A subspace that is not action-stable is refused: the coordinates of each
    image in the spanning blocks carry an exact residual check.
    """
    a = module.algebra
    f = a.field
    parts = _block_parts(module, vectors)
    dims = [len(p) for p in parts]
    incl = [Matrix.from_columns(f, parts[i], rows=module.dims[i]) for i in range(len(dims))]
    # each part is an rref, whose rows EchelonBasis stores as they are
    spans = [EchelonBasis(f, p) for p in parts]
    mats = []
    for k in range(a.dim):
        r, c = a.block_row[k], a.block_col[k]
        cols = []
        for v in parts[c]:
            sol = spans[r].coordinates(module.mats[k].apply(v))
            if sol is None:
                raise ModuleError("subspace is not action-stable")
            cols.append(sol)
        mats.append(Matrix.from_columns(f, cols, rows=dims[r]))
    sub = Module(a, dims, mats)
    return sub, ModuleMap(sub, module, incl)


def quotient_module(module, vectors):
    """Quotient by the submodule spanned by the given total vectors.

    Returns (quotient Module, projection ModuleMap, free positions): basis
    vector t of block i of the quotient is the class of the unit vector at
    free[i][t], a column of the block's rref basis that holds no pivot.
    Row t of the projection of block i is the kernel vector of that rref
    at that column, so it reads off the residue there.
    """
    a = module.algebra
    f = a.field
    projs, free = [], []
    for rows, n in zip(_block_parts(module, vectors), module.dims):
        pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
        projs.append(Matrix(f, _kernel_basis(f, n, rows, pivots), cols=n))
        free.append(sorted(set(range(n)).difference(pivots)))
    mats = []
    for k in range(a.dim):
        r, c = a.block_row[k], a.block_col[k]
        m = module.mats[k]
        mats.append(projs[r] * Matrix.from_columns(f, [m.column(j) for j in free[c]],
                                                   rows=m.rows))
    quot = Module(a, [len(fr) for fr in free], mats)
    return quot, ModuleMap(module, quot, projs), free


def kernel_of(map_: ModuleMap):
    """Kernel submodule with its inclusion (blockwise nullspaces)."""
    src = map_.source
    f = src.algebra.field
    kernels = [Matrix.from_columns(f, m.nullspace(), rows=m.cols) for m in map_.components]
    vectors = Matrix.from_blocks(f, src.dims, [k.cols for k in kernels],
                                 {(i, i): k for i, k in enumerate(kernels)}).columns()
    return submodule(src, vectors)


def radical_vectors(module):
    """Total-coordinate basis (rref) of rad(A) * X: the sum of s * X over
    the right-ideal generators s of rad A, computed once per module: the
    span of the columns of each ``act(s)``."""
    cache = _shared(module)._cache
    rad = cache.get("radical")
    if rad is None:
        vectors = [col for s in module.algebra.radical_generators()
                   for col in module.act(s).columns() if any(col)]
        rad = cache["radical"] = span_basis(module.algebra.field, vectors, module.total_dim)
    return rad


def top_of(module):
    """X / rad X with the projection."""
    quot, proj, _ = quotient_module(module, radical_vectors(module))
    return quot, proj


# -- hom spaces -------------------------------------------------------------------


class HomSpace:
    def __init__(self, source: Module, target: Module, basis, span: EchelonBasis):
        self.source = source
        self.target = target
        self.basis = basis    # ModuleMaps
        self.span = span      # the flattened coordinates of the basis maps

    @property
    def dimension(self):
        return len(self.basis)

    def coordinates_of(self, map_: ModuleMap):
        sol = self.span.coordinates(_flatten_components(map_.components))
        if sol is None:
            raise ModuleError("map not in hom space")
        return sol

    def from_coordinates(self, coords):
        out = ModuleMap.zero(self.source, self.target)
        for c, b in zip(coords, self.basis):
            if c:
                out = out.add(b.scale(c))
        return out


def _flatten_components(components):
    return [m.data[i][j] for m in components for i in range(m.rows) for j in range(m.cols)]


def hom_space(x: Module, y: Module) -> HomSpace:
    """Basis of Hom_A(x, y), kept for the contents of x and y: a later call
    on modules with equal contents returns the same HomSpace, whose source
    and target are the modules of the first call."""
    if not same_algebra(x.algebra, y.algebra):
        raise ModuleError("hom between modules over different algebras")
    cache, key = _shared(x)._cache, ("hom", _shared(y))
    h = cache.get(key)
    if h is None:
        h = cache[key] = _solve_hom(x, y)
    return h


def _solve_hom(x: Module, y: Module) -> HomSpace:
    """Solve the intertwining system on a generating set of the algebra
    (idempotent blocks are built in)."""
    a = x.algebra
    f = a.field
    n = len(x.dims)
    sizes = [y.dims[i] * x.dims[i] for i in range(n)]
    offs = [sum(sizes[:i]) for i in range(n)]
    total_unknowns = sum(sizes)

    def unknown(i, r, c):
        return offs[i] + r * x.dims[i] + c

    rows = []
    z = f.zero()
    for k in a.generators():
        gr, gc = a.block_row[k], a.block_col[k]
        gx, gy = x.mats[k].data, y.mats[k].data
        # component[gr] * gx == gy * component[gc]
        for al in range(y.dims[gr]):
            for be in range(x.dims[gc]):
                row = [z] * total_unknowns
                for gm in range(x.dims[gr]):
                    if gx[gm][be]:
                        row[unknown(gr, al, gm)] = row[unknown(gr, al, gm)] + gx[gm][be]
                for gm in range(y.dims[gc]):
                    if gy[al][gm]:
                        row[unknown(gc, gm, be)] = row[unknown(gc, gm, be)] - gy[al][gm]
                if any(row):
                    rows.append(row)
    _, rref, pivots = Matrix(f, rows, cols=total_unknowns).rank_and_rref()
    null = _kernel_basis(f, total_unknowns, rref.data, pivots)
    free = sorted(set(range(total_unknowns)).difference(pivots))
    basis = []
    for v in null:
        comps = []
        for i in range(n):
            block = [[v[unknown(i, r, c)] for c in range(x.dims[i])]
                     for r in range(y.dims[i])]
            comps.append(Matrix(f, block, cols=x.dims[i]))
        basis.append(ModuleMap(x, y, comps))
    return HomSpace(x, y, basis, EchelonBasis.echelon_at(f, null, free))


def hom_dim(x, y):
    return hom_space(x, y).dimension


# -- duality ----------------------------------------------------------------------


def dual_module(x: Module) -> Module:
    """Vector-space dual as a left module over the opposite algebra:
    spaces unchanged, action matrices transposed."""
    return Module(opposite(x.algebra), x.dims, [m.transpose() for m in x.mats])


# -- projective covers and resolutions ---------------------------------------------


class Cover:
    """A projective cover P -> X with its kernel, the first syzygy of X."""

    def __init__(self, map: ModuleMap, summands, kernel: Module, inclusion: ModuleMap):
        self.map = map
        self.summands = summands    # distinguished idempotent index per summand of P
        self.kernel = kernel
        self.inclusion = inclusion  # kernel -> P

    @property
    def projective(self):
        return self.map.source


def projective_cover(x: Module) -> Cover:
    """Greedy minimal cover: pick block-coordinate generators whose images
    span X / rad X, one indecomposable projective per generator.  Minimality
    (kernel inside rad P) is verified, so non-primitive idempotent input
    cannot silently produce a non-minimal cover."""
    if x.is_zero():
        raise ModuleError("projective cover of the zero module")
    a = x.algebra
    f = a.field
    rad = radical_vectors(x)
    gens = []
    covered = EchelonBasis(f, rad)
    # e_i acts as the identity on block i, so a pick covers its own
    # coordinate, and one pass over the coordinates makes every pick
    for i in range(len(x.dims)):
        lo, hi = x.block_slice(i)
        for t in range(lo, hi):
            unit = [f.zero()] * x.total_dim
            unit[t] = f.one()
            if not covered.contains(unit):
                gens.append((i, t))
                for k in range(a.dim):
                    if a.block_col[k] == i:
                        covered.add(x.action_column(k, t))
    p = projective_module(a, *(i for i, _ in gens))
    # the coordinate of b_k in the summand of generator t maps to b_k * t
    comps = []
    for r in range(len(x.dims)):
        lo, hi = x.block_slice(r)
        comps.append(Matrix.from_columns(
            f, [x.action_column(k, gt)[lo:hi] for gi, gt in gens
                for k in projective_module(a, gi).layout[r]],
            rows=x.dims[r]))
    cover_map = ModuleMap(p, x, comps)
    if not cover_map.is_surjective():
        raise ModuleError("constructed cover is not surjective")
    ker, incl = kernel_of(cover_map)
    if not ker.is_zero():
        radp = EchelonBasis(f, radical_vectors(p))
        for v in incl.total_matrix().columns():
            if not radp.contains(v):
                raise ModuleError(
                    "cover kernel escapes rad P; distinguished idempotents are "
                    "likely not primitive")
    return Cover(cover_map, [i for (i, _) in gens], ker, incl)


def _cover(x: Module) -> Cover:
    """The projective cover of x, built once per content."""
    cache = _shared(x)._cache
    if "cover" not in cache:
        cache["cover"] = projective_cover(x)
    return cache["cover"]


def is_projective(x: Module) -> bool:
    return x.is_zero() or _cover(x).kernel.is_zero()


class Resolution:
    """A (possibly truncated) minimal projective resolution
    P_r -> ... -> P_0 -> X -> 0."""

    def __init__(self, target: Module, modules, differentials, augmentation: ModuleMap,
                 summands, completed: bool):
        self.target = target
        self.modules = modules              # [P_0, ..., P_r]
        self.differentials = differentials  # d_k: P_k -> P_{k-1} for k >= 1
        self.augmentation = augmentation
        self.summands = summands            # idempotent indices per P_k
        self.completed = completed

    @property
    def length(self):
        return len(self.modules) - 1

    @property
    def pd(self):
        """Projective dimension when the resolution completed, else None."""
        return self.length if self.completed else None


def min_projective_resolution(x: Module, bound: int) -> Resolution:
    """Iterated projective covers of syzygies; stops at a zero syzygy or at
    the bound (then completed=False).  The deepest resolution of x's
    content is kept, and a smaller bound gets its first bound + 1 terms,
    completed only when it completed within the bound, as a fresh run."""
    if bound < 0:
        raise ModuleError("bound must be >= 0")
    cache = _shared(x)._cache
    res = cache.get("resolution")
    if res is None or not res.completed and res.length < bound:
        res = cache["resolution"] = _resolve(x, bound)
    if res.length <= bound:
        return res
    return Resolution(x, res.modules[:bound + 1], res.differentials[:bound],
                      res.augmentation, res.summands[:bound + 1], completed=False)


def _resolve(x: Module, bound: int) -> Resolution:
    """A fresh run, with one cover per distinct syzygy.  A differential is
    never copied: the first repeat can sit under a different inclusion."""
    if x.is_zero():
        p = zero_module(x.algebra)
        return Resolution(x, [p], [], ModuleMap.zero(p, x), [[]], completed=True)
    cover = _cover(x)
    aug, modules, summands, diffs = cover.map, [cover.projective], [cover.summands], []
    while len(modules) <= bound and not cover.kernel.is_zero():
        c = _cover(cover.kernel)
        modules.append(c.projective)
        summands.append(c.summands)
        diffs.append(cover.inclusion.compose(c.map))
        cover = c
    return Resolution(x, modules, diffs, aug, summands, cover.kernel.is_zero())


# -- Ext ---------------------------------------------------------------------------


class ExtGroup:
    """Ext^n(x, y) = Hom_K(P, y[n]) for a projective resolution P of x:
    dimension and cocycle representatives P_n -> y."""

    def __init__(self, dim: int, cocycles, degree: int, resolution: Resolution,
                 homotopy=None):
        self.dim = dim
        self.cocycles = cocycles
        self.degree = degree
        self.resolution = resolution
        self.homotopy = homotopy        # the HomotopyHom(P, stalk y, n) behind it

    def class_coordinates(self, map_: ModuleMap):
        """Coordinates of a cocycle's class in the chosen representative basis."""
        from .complexes import ChainMap, shift_complex
        h = self.homotopy
        n = self.degree
        return h.class_coordinates(
            ChainMap(h.source, shift_complex(h.target, n), {-n: map_}, check=False))


def ext(x: Module, y: Module, n: int, bound: int = 12) -> ExtGroup:
    """Hom_K(P, y[n]) for a minimal projective resolution P of x, through
    ``hom_homotopy`` against the stalk complex of y.  P is resolved to depth
    max(bound, n + 1), which reaches P_{n+1} unless P stops earlier, so the
    group is always decided."""
    from .complexes import hom_homotopy, resolution_complex, stalk_complex
    if n < 0:
        raise ModuleError("ext degree must be >= 0")
    res = min_projective_resolution(x, max(bound, n + 1))
    if n > res.length:
        return ExtGroup(0, [], n, res)
    h = hom_homotopy(resolution_complex(res), stalk_complex(y), n)
    return ExtGroup(h.dim, [rep.component(-n) for rep in h.reps], n, res, homotopy=h)


# -- decomposition ------------------------------------------------------------------


def _min_poly(f, mat):
    """Monic minimal polynomial (coefficient list, low degree first): the
    reduced tail of the first flattened power that reduces to zero against
    the lower ones, each stored with a tail that is 1 at its degree."""
    n = mat.rows
    z, o = f.zero(), f.one()
    krylov = EchelonBasis(f)
    power = Matrix.identity(f, n)
    for k in range(n + 1):
        tail = [z] * (n + 1)
        tail[k] = o
        out = krylov.reduce([x for row in power.data for x in row] + tail)[0]
        if not any(out[:n * n]):
            return out[n * n:n * n + k + 1]
        krylov.add(out)
        power = power * mat


def _rational_roots(coeffs):
    """All rational roots of a polynomial with Fraction coefficients."""
    from fractions import Fraction
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return []
    shift = 0
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
        shift += 1
    roots = [Fraction(0)] if shift else []
    if len(coeffs) <= 1:
        return roots
    from math import lcm
    den = lcm(*[c.denominator for c in coeffs]) if len(coeffs) > 1 else 1
    ints = [int(c * den) for c in coeffs]
    a0, an = ints[0], ints[-1]

    def divisors(m):
        m = abs(m)
        small, large = [], []
        d = 1
        while d * d <= m:
            if m % d == 0:
                small.append(d)
                if d != m // d:
                    large.append(m // d)
            d += 1
        return small + large[::-1]

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                val = Fraction(0)
                for c in reversed(ints):
                    val = val * cand + c
                if val == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _fitting_split(x: Module, endo_mat: Matrix):
    """Split X = ker(w^m) + im(w^m) for w = endo_mat when both are proper.

    Kernel and image of w^m are the same for every m >= d = dim X, so
    m is the first power of two at or past d, reached by squaring."""
    d = x.total_dim
    power, m = endo_mat, 1
    while m < d:
        power, m = power * power, 2 * m
    k = power.nullspace()
    if not k or len(k) == d:
        return None
    img = power.column_space_basis()
    return k, img


def decompose(x: Module):
    """Indecomposable summands with multiplicity, deterministically ordered.

    Returns a list of (module, multiplicity, projection ModuleMap) records;
    the projection maps are onto one chosen instance of each class.  A
    module whose End(X) is local with top the ground field is certified
    indecomposable first, with no search; otherwise candidate endomorphisms
    are tried for a Fitting split.  Raises DecompositionError when a
    splitting cannot be certified either way.
    """
    pieces = _decompose_instances(x)
    # group by isomorphism
    groups = []
    for mod, proj, _ in pieces:
        placed = False
        for g in groups:
            if is_isomorphic_indec(g[0][0], mod):
                g.append((mod, proj))
                placed = True
                break
        if not placed:
            groups.append([(mod, proj)])
    groups.sort(key=lambda g: _module_sort_key(g[0][0]))
    return [(g[0][0], len(g), g[0][1]) for g in groups]


def decompose_instances(x: Module):
    """All indecomposable summand instances (module, projection X -> module,
    inclusion module -> X), in deterministic order."""
    return sorted(_decompose_instances(x), key=lambda p: _module_sort_key(p[0]))


def _module_sort_key(m: Module):
    flat = []
    for mat in m.mats:
        for row in mat.data:
            flat.extend(row)
    return (m.total_dim, tuple(m.dims), tuple(flat))


def _has_split_local_endo(x: Module) -> bool:
    """dim End(x) - dim rad End(x) == 1, i.e. End(x) is local with top the
    ground field, which certifies that x is indecomposable.

    End(x) acts faithfully on x, so in characteristic 0 its radical is the
    kernel of the trace form (phi, psi) -> tr(phi psi) on x (Dickson), and
    the test reads: that form has rank 1.
    """
    f = x.algebra.field
    comps = [b.components for b in hom_space(x, x).basis]
    # tr(phi psi) sums phi_i[r][c] * psi_i[c][r] over the blocks i
    nonzero = [[(i, r, c, v) for i, m in enumerate(cs) for r, row in enumerate(m.data)
                for c, v in enumerate(row) if v] for cs in comps]
    d = len(comps)
    gram = [[f.zero()] * d for _ in range(d)]
    for p in range(d):
        for q in range(p, d):
            s = f.zero()
            for i, r, c, v in nonzero[p]:
                w = comps[q][i].data[c][r]
                if w:
                    s = s + v * w
            gram[p][q] = gram[q][p] = s
    return Matrix(f, gram, cols=d).rank() == 1


def _fitting_candidates(mats):
    """Endomorphisms to try for a Fitting split, built one at a time: the
    basis, then the products (i, j), then the sums i < j."""
    yield from mats
    for a in mats:
        for b in mats:
            yield a * b
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            yield a + b


def _decompose_instances(x: Module):
    """Summand instances of x in search order, computed once per content;
    callers must not mutate the returned list."""
    cache = _shared(x)._cache
    pieces = cache.get("summands")
    if pieces is None:
        pieces = cache["summands"] = _split_instances(x)
    return pieces


def _split_instances(x: Module):
    if x.is_zero():
        return []
    f = x.algebra.field
    endo = hom_space(x, x)
    if endo.dimension == 1:
        return [(x, ModuleMap.identity(x), ModuleMap.identity(x))]
    if f.characteristic:
        # the eigenvalue search below (_rational_roots) works over Q only
        raise DecompositionError(
            f"decomposition over the prime field {f.name} is not supported yet")
    # a local End(X) has only nilpotent or invertible elements, so no
    # candidate below could split X
    if _has_split_local_endo(x):
        return [(x, ModuleMap.identity(x), ModuleMap.identity(x))]
    mats = [b.total_matrix() for b in endo.basis]
    ident = Matrix.identity(f, x.total_dim)
    for z in _fitting_candidates(mats):
        mp = _min_poly(f, z)
        for lam in _rational_roots(mp):
            split = _fitting_split(x, z - ident.scale(f.of(lam)))
            if split is None:
                continue
            kvecs, ivecs = split
            k_mod, k_incl = submodule(x, kvecs)
            i_mod, i_incl = submodule(x, ivecs)
            # X = K + I, so per block the inverse of [incl_K | incl_I]
            # stacks the projection onto K over the projection onto I
            k_proj, i_proj = [], []
            for i, d in enumerate(k_mod.dims):
                inv = Matrix.from_blocks(f, [x.dims[i]], [d, i_mod.dims[i]], {
                    (0, 0): k_incl.components[i], (0, 1): i_incl.components[i]}).inverse()
                k_proj.append(Matrix(f, inv.data[:d], cols=x.dims[i]))
                i_proj.append(Matrix(f, inv.data[d:], cols=x.dims[i]))
            result = []
            for sub, proj, incl in ((k_mod, ModuleMap(x, k_mod, k_proj), k_incl),
                                    (i_mod, ModuleMap(x, i_mod, i_proj), i_incl)):
                for inner_mod, inner_proj, inner_incl in _decompose_instances(sub):
                    result.append((inner_mod, inner_proj.compose(proj),
                                   incl.compose(inner_incl)))
            return result
    raise DecompositionError(
        "could not decompose: End(X) modulo its radical is not the ground field "
        "and no candidate endomorphism split X")


def is_isomorphic_indec(x: Module, y: Module) -> bool:
    """Isomorphism test for indecomposables with split local endomorphism
    rings: some single composite of hom basis elements is invertible."""
    if x.dims != y.dims:
        return False
    if x.mats == y.mats:
        return True
    fwd, bwd = hom_space(x, y), hom_space(y, x)
    for g in bwd.basis:
        for f_ in fwd.basis:
            if g.compose(f_).total_matrix().is_invertible():
                return True
    return False


def in_additive_closure(x: Module, summand_pool) -> bool:
    """Is x a direct sum of copies of modules in the pool?

    The pool must be basic: pairwise non-isomorphic indecomposables, each
    with End local and top the ground field (the summand classes of
    `decompose`).  x lies in add(pool) exactly when its minimal left
    add(pool)-approximation is an isomorphism.
    """
    approx = _min_left_approximation(x, summand_pool, _pool_radical(summand_pool))
    return approx.target.total_dim == x.total_dim and approx.is_injective()


def _top_scalar(phi: ModuleMap):
    """The scalar lambda with phi - lambda * id nilpotent, for phi in a local
    End(T) with top the ground field: tr(phi) / dim T, which holds in
    characteristic 0 only."""
    f = phi.source.algebra.field
    if f.characteristic:
        raise DecompositionError(
            f"radical of an endomorphism ring over the prime field {f.name} "
            "is not supported yet")
    tr = sum((m.data[i][i] for m in phi.components for i in range(m.rows)), f.zero())
    return tr * f.inv(f.of(phi.source.total_dim))


def _pool_radical(pool):
    """rad[i][j]: maps spanning rad(T_j, T_i) for a basic pool.

    For j != i that is all of Hom(T_j, T_i); for j == i it is spanned by
    phi - lambda(phi) id over a basis of End(T_i).
    """
    rad = []
    for i, t_i in enumerate(pool):
        row = []
        for j, t_j in enumerate(pool):
            h = hom_space(t_j, t_i)
            if j != i:
                row.append(h.basis)
            elif h.dimension == 1:
                row.append([])
            else:
                ident = ModuleMap.identity(t_i)
                row.append([phi.add(ident.scale(-_top_scalar(phi))) for phi in h.basis])
        rad.append(row)
    return rad


def _min_left_approximation(x: Module, pool, rad) -> ModuleMap:
    """The minimal left add(pool)-approximation x -> (+)_i T_i^{c_i}.

    Its components into T_i are the basis maps of Hom(x, T_i) outside the
    span of the composites r o h (h: x -> T_j, r in rad(T_j, T_i)) and the
    basis maps before them: those at which no composite ends, in the
    coordinates of Hom(x, T_i) (``linalg.reversed_span``).  The target is
    the zero module when Hom(x, pool) = 0.
    """
    a = x.algebra
    homs = [hom_space(x, t) for t in pool]
    summands, maps = [], []
    for i, h in enumerate(homs):
        if h.dimension == 0:
            continue
        composites = [h.coordinates_of(r.compose(g))
                      for j, h_j in enumerate(homs) for g in h_j.basis for r in rad[i][j]]
        for k in reversed_span(a.field, composites, h.dimension)[1]:
            summands.append(pool[i])
            maps.append(h.basis[k])
    target = direct_sum(summands)[0] if summands else zero_module(a)
    return block_map(x, target, [x], summands, {(t, 0): g for t, g in enumerate(maps)})


def _local_top(a: FDAlgebra, i: int):
    """A e_i with its top A e_i / rad(A e_i), computed once per projective:
    an echelon basis of rad(A e_i) and the positions without a pivot, at
    which a residue modulo the radical is read.  Refuses when
    dim e_i A e_i / e_i rad(A) e_i is not 1, as then A e_i is not shown to
    be local."""
    p = projective_module(a, i)
    cache = _shared(p)._cache
    if "top" not in cache:
        rad = EchelonBasis(a.field, radical_vectors(p))
        cache["top"] = rad, rad.free(p.total_dim)
    rad, free = cache["top"]
    lo, hi = p.block_slice(i)
    if sum(lo <= c < hi for c in free) != 1:
        raise ModuleError(f"e_{i} A e_{i} is not k modulo the radical; "
                          "summand multiplicity needs a basic split idempotent")
    return p, rad, free


def projective_multiplicity(y: Module, i: int) -> int:
    """How often A e_i is a direct summand of y, in every characteristic:
    the rank of {top o g : g a basis map y -> A e_i}, with top the projection
    of A e_i onto A e_i / rad(A e_i).  A map into the local module A e_i
    that leaves its radical is onto, so it splits; each summand A e_i adds
    dim e_i A e_i / e_i rad(A) e_i = 1 to the rank.  Refuses when that
    dimension is not 1, as then A e_i is not shown to be local.  A summand
    A e_i holds e_i, so a y that is zero at vertex i has none."""
    if not y.dims[i]:
        return 0
    p, rad, free = _local_top(y.algebra, i)
    images = []
    for g in hom_space(y, p).basis:
        # top o g: the residue of each column of g modulo rad(A e_i)
        outs = [rad.reduce(col)[0] for col in g.total_matrix().columns()]
        images.append([out[k] for out in outs for k in free])
    return Matrix(y.algebra.field, images).rank() if images else 0


def has_free_summand(c: FDAlgebra, m: Module) -> bool:
    """True iff m has the regular module of c as a summand: each A e_i at
    least as often as in c.  By Yoneda, Hom(A, A e_i) = A e_i, so A e_i
    occurs in A dim A e_i / rad(A e_i) times."""
    if not same_algebra(m.algebra, c):
        raise ModuleError("module is not over the given algebra")
    return all(projective_multiplicity(m, i) >= len(_local_top(m.algebra, i)[2])
               for i in range(c.idempotent_count))


# -- endomorphism algebras -----------------------------------------------------------


def composition_algebra(field, basis, coordinates_of, splittings) -> FDAlgebra:
    """The opposite of the algebra that the maps in ``basis`` span under
    composition, in the coordinates ``coordinates_of`` reads off a map: the
    product of b1 and b2 is b2 after b1.  Each (incl, proj) in splittings
    gives a distinguished idempotent, incl after proj."""
    table = [[coordinates_of(b2.compose(b1)) for b2 in basis] for b1 in basis]
    idems = [coordinates_of(incl.compose(proj)) for incl, proj in splittings]
    return FDAlgebra.from_structure_constants(field, table, idems)


def endo_algebra(x: Module) -> FDAlgebra:
    """End(x)^op as an FDAlgebra with distinguished idempotents the
    projections onto the indecomposable summands of x."""
    endo = hom_space(x, x)
    if endo.dimension == 0:
        raise ModuleError("endomorphism algebra of the zero module")
    return composition_algebra(x.algebra.field, endo.basis, endo.coordinates_of,
                               [(incl, proj) for _, proj, incl in decompose_instances(x)])


# -- simples ---------------------------------------------------------------------------


def simple_module(a: FDAlgebra, i) -> Module:
    """top(A e_i): the simple attached to the i-th distinguished idempotent."""
    p = projective_module(a, i)
    top, _ = top_of(p)
    return top


# -- representations from arrow data ------------------------------------------------------


def module_from_arrow_matrices(a: FDAlgebra, dims, arrow_mats) -> Module:
    """A module over a path algebra quotient from per-arrow matrices.

    dims: per-vertex dimensions (aligned with the distinguished idempotents).
    arrow_mats: dict arrow name -> Matrix of shape (dims[target], dims[source]).
    Full validation runs afterwards, which is a complete check that the
    matrices satisfy every defining relation.
    """
    if a.paths is None or a.quiver is None:
        raise ModuleError("algebra has no quiver provenance")
    f = a.field
    q = a.quiver
    for arr in q.arrows:
        m = arrow_mats.get(arr.name)
        want = (dims[q.vertex_index[arr.target]], dims[q.vertex_index[arr.source]])
        if m is None:
            raise ModuleError(f"missing matrix for arrow {arr.name}")
        if (m.rows, m.cols) != want:
            raise ModuleError(f"arrow {arr.name} matrix has shape {(m.rows, m.cols)}, want {want}")
    mats = []
    for p in a.paths:
        cur = Matrix.identity(f, dims[q.vertex_index[p.source]])
        for name in p.arrows:
            if name not in arrow_mats:
                raise ModuleError(
                    f"basis path {p.arrows} uses arrow {name!r} outside the "
                    "presented quiver; provide the module over the full algebra")
            cur = arrow_mats[name] * cur
        mats.append(cur)
    mod = Module(a, dims, mats)
    mod.validate()
    return mod


# -- one-sided modules out of a bimodule ---------------------------------------------------


def _one_sided_module(alg: FDAlgebra, blocks, action) -> Module:
    """The module over alg whose block i holds the bimodule basis elements t
    with blocks[t] == i, and on which basis element k of alg acts by
    action[k]."""
    f = alg.field
    positions = [[t for t, blk in enumerate(blocks) if blk == i]
                 for i in range(alg.idempotent_count)]
    dims = [len(p) for p in positions]
    mats = []
    for k in range(alg.dim):
        r, cc = alg.block_row[k], alg.block_col[k]
        act = action[k]
        rows = [[act.data[i][j] for j in positions[cc]] for i in positions[r]]
        mats.append(Matrix(f, rows, cols=dims[cc]) if rows else Matrix.zeros(f, 0, dims[cc]))
    return Module(alg, dims, mats)


def bimodule_left_module(bim) -> Module:
    """The underlying left module over the left-acting algebra C."""
    return _one_sided_module(bim.left_algebra, bim.block_row, bim.left_action)


def bimodule_right_module(bim) -> Module:
    """The underlying right B-module, realized over the opposite algebra: an
    op block (r, c) maps column block r to column block c."""
    return _one_sided_module(opposite(bim.right_algebra), bim.block_col, bim.right_action)


# -- tilting certificate -----------------------------------------------------------------


class TiltingReport:
    def __init__(self, module: Module, pd, ext_table: dict, coresolution_lengths: list | None,
                 failure_stage: int | None, verdict, notes):
        self.module = module
        self.pd = pd                    # int or ">= <bound>"
        self.ext_table = ext_table      # degree -> dimension
        self.coresolution_lengths = coresolution_lengths
        self.failure_stage = failure_stage
        self.verdict = verdict          # True / False / "undetermined"
        self.notes = notes


def tilting_module_check(t: Module, bound: int = 12) -> TiltingReport:
    """The three tilting conditions: finite projective dimension, vanishing
    self-extensions, and an add(T)-coresolution of the regular module built
    from minimal left add(T)-approximations (the generation condition is
    certified through this coresolution; that substitution is recorded in the
    notes).  The minimal approximations need each summand class of T to have
    a local endomorphism ring with top the ground field; `decompose`
    certifies that or refuses."""
    notes = ["generation condition certified via add(T)-coresolution of the regular module"]
    res = min_projective_resolution(t, bound)
    pd_known = res.completed
    pd = res.pd if pd_known else f">= {bound + 1}"
    if not pd_known:
        notes.append(f"projective dimension exceeds bound {bound}")
    # self-extension table up to the deepest computable degree; a nonzero
    # value at any computable degree is a definite failure even when the
    # projective dimension is unknown
    max_degree = res.pd if pd_known else max(res.length - 1, 0)
    ext_table = {}
    ext_failed = False
    for i in range(1, max_degree + 1):
        e = ext(t, t, i, bound=bound)
        ext_table[i] = e.dim
        if e.dim != 0:
            ext_failed = True
            break
    # coresolution of each indecomposable projective by minimal left
    # approximations into add(T); one approximation per stage decides whether
    # the stage is in add(T) (it is an isomorphism) and builds the next
    # cokernel.  An approximation with a kernel, or one with no maps at all,
    # is a definite failure
    summand_pool = [mod for mod, _, _ in decompose(t)]
    rad = _pool_radical(summand_pool)
    a = t.algebra
    stage_cap = res.pd if pd_known else bound
    coreso_lengths = []
    failure_stage = None
    coreso_verdict = True
    for i in range(a.idempotent_count):
        current = projective_module(a, i)
        stages = 0
        while not current.is_zero():
            approx = _min_left_approximation(current, summand_pool, rad)
            target = approx.target
            injective = approx.is_injective()
            if injective and target.total_dim == current.total_dim:
                break
            if stages > stage_cap:
                # beyond pd this cannot happen for a tilting module; with pd
                # unknown it is merely inconclusive
                coreso_verdict = False if pd_known else "unknown"
                failure_stage = stages
                break
            if not injective:
                # with no maps at all the target is zero, so this covers both
                coreso_verdict = False
                failure_stage = stages
                break
            current, _, _ = quotient_module(target, approx.total_matrix().columns())
            stages += 1
        if coreso_verdict is not True:
            break
        coreso_lengths.append(stages)
    if ext_failed or coreso_verdict is False:
        verdict = False
    elif pd_known and coreso_verdict is True:
        verdict = True
    else:
        verdict = "undetermined"
    return TiltingReport(t, pd, ext_table,
                         coreso_lengths if coreso_verdict is True else None,
                         failure_stage, verdict, notes)

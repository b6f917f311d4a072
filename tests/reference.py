"""Definition-level reference implementations that the differential tests
compare the library with.

Each function computes one concept from its definition, reading only
`Matrix` storage and the structure table `FDAlgebra.table`, and never calls
the library routine that it checks: elimination is Gauss-Jordan one row at
a time, Hom(X, Y) solves the intertwining equations of every basis element,
Hom_K(P, Y[n]) solves the chain-map equations and takes the quotient by the
null-homotopic maps, products are read off the table, and direct sums and
cones are assembled from inclusions and projections.  A change that
replaces an algorithm in `src/tiltkit` is compared with these functions,
or extends them, instead of keeping the code it replaced.

The results are exact field values.  Over Q an integral value can be an
int here and a Fraction in the library, or the other way round, as the
arithmetic that reached it decides, so tests compare values and
`conftest.entry_types`, which over F_p is each entry's own type.
"""

import functools
import itertools

from tiltkit.complexes import ChainMap, Complex, shift_complex
from tiltkit.linalg import Matrix
from tiltkit.modules import Module, ModuleMap, zero_module

# -- matrix arithmetic and elimination ------------------------------------------------


def mul(a, b):
    """The product a * b, one dot product per entry."""
    columns = b.columns()
    return Matrix(a.field, [[_dot(a.field, row, col) for col in columns] for row in a.data],
                  cols=b.cols)


def apply(a, vec):
    """a times the column vector vec."""
    return [_dot(a.field, row, vec) for row in a.data]


def _dot(field, u, v):
    """The sum of the products u_k v_k, over the k where both are nonzero."""
    return sum((x * y for x, y in zip(u, v) if x and y), field.zero())


def rank_and_rref(a):
    """(rank, rref rows, pivot columns) by Gauss-Jordan elimination, one row
    at a time, each row held as its nonzero entries: a row is cleared at the
    pivots found so far, and what is left gives a new pivot at its leftmost
    entry, scaled to 1 and cleared from the rows before.  The reduced row
    echelon form is unique, so the order of the steps does not change it;
    zero rows fill it up to a.rows."""
    f = a.field
    found = {}      # pivot column -> its row: 1 there, nothing at the other pivots
    for entries in a.data:
        row = {j: x for j, x in enumerate(entries) if x}
        for c in [c for c in row if c in found]:
            _subtract(f, row, row[c], found[c])
        if not row:
            continue
        c = min(row)
        inv = f.inv(row[c])
        row = {j: inv * x for j, x in row.items()}
        for p in found.values():
            if c in p:
                _subtract(f, p, p[c], row)
        found[c] = row
    pivots = sorted(found)
    rows = [[found[c].get(j, f.zero()) for j in range(a.cols)] for c in pivots]
    return len(pivots), rows + [[f.zero()] * a.cols for _ in range(a.rows - len(pivots))], pivots


def _subtract(field, row, g, p):
    """row - g p, in place, for rows held as {column: nonzero entry}."""
    for j, y in p.items():
        x = row.get(j, field.zero()) - g * y
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def nullspace(a):
    """The kernel basis with one vector per column c without a pivot: 1 at
    c, 0 at the other such columns."""
    f = a.field
    _, rows, pivots = rank_and_rref(a)
    out = []
    for c in range(a.cols):
        if c in pivots:
            continue
        v = [f.zero()] * a.cols
        v[c] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][c]
        out.append(v)
    return out


def solve(a, rhs):
    """The solution of a x = rhs whose free variables are zero, from the
    rref of [a | rhs]; None when rhs is outside the column space."""
    f = a.field
    aug = Matrix(f, [row + [b] for row, b in zip(a.data, rhs)], cols=a.cols + 1)
    _, rows, pivots = rank_and_rref(aug)
    if a.cols in pivots:
        return None
    x = [f.zero()] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][a.cols]
    return x


def inverse(a):
    """The inverse of a square matrix, from the rref of [a | identity]."""
    f, n = a.field, a.rows
    ident = [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]
    _, rows, pivots = rank_and_rref(Matrix(f, [r + e for r, e in zip(a.data, ident)],
                                           cols=2 * n))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(f, [row[n:] for row in rows], cols=n)


def det(a):
    """The product of the pivots of Gaussian elimination, with a sign flip
    per row swap."""
    f, n = a.field, a.rows
    rows = [list(row) for row in a.data]
    out = f.one()
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c]), None)
        if sel is None:
            return f.zero()
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            out = -out
        out = out * rows[c][c]
        inv = f.inv(rows[c][c])
        for i in range(c + 1, n):
            g = rows[i][c] * inv
            rows[i] = [x - g * y for x, y in zip(rows[i], rows[c])]
    return out


def span(field, vectors, n):
    """The rref basis of the span of vectors in k^n."""
    rank, rows, _ = rank_and_rref(Matrix(field, vectors, cols=n))
    return rows[:rank]


class Quotient:
    """k^n modulo the span of some vectors.  ``basis`` is the rref basis of
    the span and ``free`` its columns without a pivot; ``projection`` sends
    a vector to its residue modulo the span read at ``free``, and
    ``section`` sends class t to the unit vector at free[t]."""

    def __init__(self, field, n, vectors):
        rank, rows, pivots = rank_and_rref(Matrix(field, vectors, cols=n))
        self.basis = rows[:rank]
        self.free = [c for c in range(n) if c not in pivots]
        self.projection = Matrix(field, nullspace(Matrix(field, self.basis, cols=n)), cols=n)
        units = [[field.one() if i == j else field.zero() for i in range(n)] for j in self.free]
        self.section = Matrix.from_columns(field, units, rows=n)

    def project(self, vec):
        return apply(self.projection, vec)

    def contains(self, vec):
        return not any(self.project(vec))


def kron(x, y):
    """The Kronecker product: entry (i p + k, j q + l) is x[i][j] * y[k][l],
    for y of shape p x q."""
    p, q = y.rows, y.cols
    out = Matrix.zeros(x.field, x.rows * p, x.cols * q)
    for i, j, k, l in itertools.product(range(x.rows), range(x.cols), range(p), range(q)):
        out.data[i * p + k][j * q + l] = x.data[i][j] * y.data[k][l]
    return out


# -- the algebra: products read off the structure table -------------------------------


def multiply(field, table, u, v):
    """The product of coordinate vectors: sum of u_i v_j table[i][j]."""
    out = [field.zero()] * len(table)
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if vj:
                out = [o + ui * vj * t for o, t in zip(out, table[i][j])]
    return out


def mult_matrix(a, x, src, tgt, left):
    """The matrix of u -> x u (left) or u -> u x on the span of the basis
    elements indexed by src, written in those indexed by tgt; a product
    outside span(tgt) is refused."""
    cols = []
    for u in src:
        prod = multiply(a.field, a.table, x, a.coordinate_vector(u)) if left else \
            multiply(a.field, a.table, a.coordinate_vector(u), x)
        if any(prod[k] for k in range(a.dim) if k not in tgt):
            raise ValueError("product leaves the span of the target")
        cols.append([prod[k] for k in tgt])
    return Matrix.from_columns(a.field, cols, rows=len(tgt))


def projective_layout(a, vertices):
    """The basis elements of A e_{v_1} + ... + A e_{v_m}, block by block:
    block r lists those of Peirce blocks (r, v_1), ..., (r, v_m) in turn."""
    return [[k for v in vertices for k in a.basis_in_block(r, v)]
            for r in range(a.idempotent_count)]


def projective_module(a, i):
    """A e_i: block r has the basis elements of Peirce block (r, i), and
    basis element k acts by left multiplication."""
    layout = projective_layout(a, [i])
    return Module(a, [len(lay) for lay in layout],
                  [mult_matrix(a, a.coordinate_vector(k), layout[a.block_col[k]],
                               layout[a.block_row[k]], left=True) for k in range(a.dim)])


def corner_column(a, subset, corner, i):
    """e A e_i over the corner e A e, e the sum of the idempotents in subset:
    block s has the basis elements of Peirce block (subset[s], i), and
    corner basis element l acts as its ambient element."""
    layout = [a.basis_in_block(s, i) for s in subset]
    c = corner.algebra
    return Module(c, [len(lay) for lay in layout],
                  [mult_matrix(a, a.coordinate_vector(k), layout[c.block_col[l]],
                               layout[c.block_row[l]], left=True)
                   for l, k in enumerate(corner.basis_indices)])


def ideal_basis(a, subset):
    """The rref basis of A e A, e the sum of the idempotents in subset: the
    span of the products b_i e b_j over every pair of basis elements."""
    e = [sum((a.idempotents[s][k] for s in subset), a.field.zero()) for k in range(a.dim)]
    basis = [a.coordinate_vector(k) for k in range(a.dim)]
    products = [multiply(a.field, a.table, ue, v)
                for ue in (multiply(a.field, a.table, u, e) for u in basis) if any(ue)
                for v in basis]
    return span(a.field, [p for p in products if any(p)], a.dim)


def quotient_algebra(a, subset):
    """A / A e A as the Quotient of A by ideal_basis, whose class t is that
    of the basis element b_{free[t]}, with its structure table, and the
    vertices outside subset whose idempotents stay nonzero, with their
    classes."""
    q = Quotient(a.field, a.dim, ideal_basis(a, subset))
    table = [[q.project(a.table[i][j]) for j in q.free] for i in q.free]
    idems = {s: q.project(e) for s, e in enumerate(a.idempotents) if s not in subset}
    kept = [s for s in idems if any(idems[s])]
    return q, table, kept, [idems[s] for s in kept]


# -- modules -------------------------------------------------------------------------------


def act(x, vec):
    """The total matrix of the action of the algebra element vec on x."""
    a = x.algebra
    out = Matrix.zeros(a.field, x.total_dim, x.total_dim)
    for k, c in enumerate(vec):
        if not c:
            continue
        ro, co = x.offset(a.block_row[k]), x.offset(a.block_col[k])
        for i, row in enumerate(x.mats[k].data):
            for j, y in enumerate(row):
                out.data[ro + i][co + j] = out.data[ro + i][co + j] + c * y
    return out


def radical_vectors(x):
    """The rref basis of rad(A) X: the span of r v over the radical basis
    vectors r and the basis vectors v of X."""
    vectors = [col for r in x.algebra.radical_basis() for col in act(x, r).columns()]
    return span(x.algebra.field, vectors, x.total_dim)


def total_vectors(map_):
    """The columns of the components of a module map, each placed in its
    block of the target's total coordinates."""
    y = map_.target
    out = []
    for i, c in enumerate(map_.components):
        lo, _ = y.block_slice(i)
        for col in c.columns():
            v = [y.algebra.field.zero()] * y.total_dim
            v[lo:lo + len(col)] = col
            out.append(v)
    return out


def submodule(x, vectors):
    """The submodule spanned by total vectors, with its inclusion: block i
    has the rref basis of the block-i parts, and the action is solved in
    it; a subspace that is not action-stable is refused."""
    a, f = x.algebra, x.algebra.field
    parts = [span(f, [v[slice(*x.block_slice(i))] for v in vectors], d)
             for i, d in enumerate(x.dims)]
    incl = [Matrix.from_columns(f, p, rows=d) for p, d in zip(parts, x.dims)]
    mats = []
    for k in range(a.dim):
        r, c = a.block_row[k], a.block_col[k]
        cols = [solve(incl[r], apply(x.mats[k], v)) for v in parts[c]]
        if None in cols:
            raise ValueError("subspace is not action-stable")
        mats.append(Matrix.from_columns(f, cols, rows=len(parts[r])))
    sub = Module(a, [len(p) for p in parts], mats)
    return sub, ModuleMap(sub, x, incl)


def quotient_module(x, vectors):
    """X modulo the submodule spanned by total vectors, with the
    projection: block i is the Quotient of X_i by the block-i parts, and
    basis element k acts by projection o X_k o section."""
    a, f = x.algebra, x.algebra.field
    qs = [Quotient(f, d, [v[slice(*x.block_slice(i))] for v in vectors])
          for i, d in enumerate(x.dims)]
    mats = [mul(mul(qs[a.block_row[k]].projection, m), qs[a.block_col[k]].section)
            for k, m in enumerate(x.mats)]
    quot = Module(a, [len(q.free) for q in qs], mats)
    return quot, ModuleMap(x, quot, [q.projection for q in qs])


def flatten(map_):
    return [v for c in map_.components for row in c.data for v in row]


@functools.cache
def hom(x, y):
    """Basis of Hom_A(x, y), as a tuple: the kernel basis of the equations
    f_r X_k = Y_k f_c for every basis element b_k of Peirce block (r, c),
    in the unknowns f_i (a dim y_i x dim x_i matrix per vertex, row by row,
    vertex after vertex).  Kept for the pair of module objects, which
    never change."""
    a, f = x.algebra, x.algebra.field
    offs = list(itertools.accumulate((y.dims[i] * x.dims[i] for i in range(len(x.dims))),
                                     initial=0))

    def unknown(i, r, c):
        return offs[i] + r * x.dims[i] + c

    rows = []
    for k in range(a.dim):
        gr, gc = a.block_row[k], a.block_col[k]
        for al, be in itertools.product(range(y.dims[gr]), range(x.dims[gc])):
            row = [f.zero()] * offs[-1]
            for gm in range(x.dims[gr]):
                row[unknown(gr, al, gm)] += x.mats[k].data[gm][be]
            for gm in range(y.dims[gc]):
                row[unknown(gc, gm, be)] -= y.mats[k].data[al][gm]
            if any(row):
                rows.append(row)
    return tuple(ModuleMap(x, y, [Matrix(f, [[v[unknown(i, r, c)] for c in range(x.dims[i])]
                                             for r in range(y.dims[i])], cols=x.dims[i])
                                  for i in range(len(x.dims))])
                 for v in nullspace(Matrix(f, rows, cols=offs[-1])))


@functools.cache
def _basis_solver(basis, field, n):
    """The matrix B of a tuple of independent maps with n entries, rows at
    which B has full rank, and the inverse of B there."""
    b = Matrix.from_columns(field, [flatten(m) for m in basis], rows=n)
    rows = rank_and_rref(b.transpose())[2]
    return b, rows, inverse(Matrix(field, [b.data[r] for r in rows], cols=len(basis)))


def coordinates(basis, map_):
    """The coefficients of map_ in basis, a tuple of independent module
    maps, or None when map_ is not in their span: c from the rows where B
    has full rank, and B c must give map_ back."""
    flat = flatten(map_)
    b, rows, inv = _basis_solver(basis, map_.source.algebra.field, len(flat))
    coords = apply(inv, [flat[r] for r in rows])
    return coords if apply(b, coords) == flat else None


def from_coordinates(source, target, basis, coords):
    out = ModuleMap.zero(source, target)
    for c, b in zip(coords, basis):
        if c:
            out = out.add(b.scale(c))
    return out


def direct_sum(modules):
    """The direct sum with its inclusions and projections: block i holds
    block i of each summand in turn, and each action is block diagonal."""
    a = modules[0].algebra
    f = a.field
    dims = [sum(m.dims[i] for m in modules) for i in range(a.idempotent_count)]
    mats = []
    for k in range(a.dim):
        r, c = a.block_row[k], a.block_col[k]
        out = Matrix.zeros(f, dims[r], dims[c])
        ro = co = 0
        for m in modules:
            for i, row in enumerate(m.mats[k].data):
                out.data[ro + i][co:co + len(row)] = row
            ro += m.dims[r]
            co += m.dims[c]
        mats.append(out)
    total = Module(a, dims, mats)
    incs, projs = [], []
    for idx, m in enumerate(modules):
        offs = [sum(mm.dims[i] for mm in modules[:idx]) for i in range(a.idempotent_count)]
        inc = [Matrix.zeros(f, dims[i], m.dims[i]) for i in range(a.idempotent_count)]
        prj = [Matrix.zeros(f, m.dims[i], dims[i]) for i in range(a.idempotent_count)]
        for i, t in ((i, t) for i in range(a.idempotent_count) for t in range(m.dims[i])):
            inc[i].data[offs[i] + t][t] = prj[i].data[t][offs[i] + t] = f.one()
        incs.append(ModuleMap(m, total, inc))
        projs.append(ModuleMap(total, m, prj))
    return total, incs, projs


def direct_sum_complexes(parts):
    """The degreewise direct sum with its inclusion and projection chain
    maps: each differential is the sum of inc_t o d_t o proj_t."""
    a = parts[0].algebra
    nonzero = [p for p in parts if not p.is_zero()]
    if not nonzero:
        z = Complex(a, 0, [], [], check=False)
        return z, [ChainMap(p, z, {}, check=False) for p in parts], \
            [ChainMap(z, p, {}, check=False) for p in parts]
    lo, hi = min(p.lo for p in nonzero), max(p.hi for p in nonzero)
    sums = [direct_sum([p.term(k) or zero_module(a) for p in parts]) for k in range(lo, hi + 1)]
    diffs = []
    for i, k in enumerate(range(lo, hi)):
        d = ModuleMap.zero(sums[i][0], sums[i + 1][0])
        for t, p in enumerate(parts):
            if p.diff(k) is not None:
                d = d.add(sums[i + 1][1][t].compose(p.diff(k)).compose(sums[i][2][t]))
        diffs.append(d)
    total = Complex(a, lo, [s[0] for s in sums], diffs)
    degrees = list(enumerate(range(lo, hi + 1)))
    incs = [ChainMap(p, total, {k: sums[i][1][t] for i, k in degrees if p.term(k) is not None},
                     check=False) for t, p in enumerate(parts)]
    projs = [ChainMap(total, p, {k: sums[i][2][t] for i, k in degrees if p.term(k) is not None},
                      check=False) for t, p in enumerate(parts)]
    return total, incs, projs


def cone(u):
    """The mapping cone of u: P -> Q: C^k = P^{k+1} + Q^k with
    d = [[-d_P, 0], [u, d_Q]], a sum of inc o block o proj."""
    p, q = u.source, u.target
    a = p.algebra
    if p.is_zero() and q.is_zero():
        return Complex(a, 0, [], [], check=False)
    lo, hi = min(p.lo - 1, q.lo), max(p.hi - 1, q.hi)
    sums = [direct_sum([p.term(k + 1) or zero_module(a), q.term(k) or zero_module(a)])
            for k in range(lo, hi + 1)]
    diffs = []
    for i, k in enumerate(range(lo, hi)):
        (src, _, projs), (tgt, incs, _) = sums[i], sums[i + 1]
        d = ModuleMap.zero(src, tgt)
        blocks = [(0, p.diff(k + 1), 0), (1, u.component(k + 1), 0), (1, q.diff(k), 1)]
        for row, g, col in blocks:
            if g is not None:
                if row == col == 0:
                    g = g.scale(-a.field.one())
                d = d.add(incs[row].compose(g).compose(projs[col]))
        diffs.append(d)
    return Complex(a, lo, [s[0] for s in sums], diffs)


# -- Hom in the homotopy category ----------------------------------------------------------


class HomotopyHom:
    """Hom_K(P, Y[n]): ``reps`` are chain maps P -> Y[n] whose classes are a
    basis, and ``class_coordinates`` gives the coefficients of a chain
    map's class in them."""

    def __init__(self, field, layout, boundaries, reps, rep_coords):
        self.field = field
        self.layout = layout            # (degree m, basis of Hom(P^m, Y^{m+n}))
        self.boundaries = boundaries    # coordinate vectors in the layout
        self.reps = reps
        self.rep_coords = rep_coords
        self.dim = len(reps)

    def coordinates_of(self, cm):
        out = []
        for m, basis in self.layout:
            comp = cm.component(m)
            coords = [self.field.zero()] * len(basis) if comp is None else \
                coordinates(basis, comp)
            if coords is None:
                raise ValueError(f"component {m} is no module map")
            out += coords
        return out

    def class_coordinates(self, cm):
        """Solved against [boundaries | reps]: the reps are independent
        modulo the boundaries, so their coefficients are unique."""
        vec = self.coordinates_of(cm)
        cols = self.boundaries + self.rep_coords
        sol = solve(Matrix.from_columns(self.field, cols, rows=len(vec)), vec)
        if sol is None:
            raise ValueError("not a chain map")
        return sol[len(self.boundaries):]


def _hom_layout(p, y, n):
    return [(m, hom(p.term(m), y.term(m + n))) for m in p.degrees()
            if not p.term(m).is_zero() and y.term(m + n) is not None
            and not y.term(m + n).is_zero()]


def hom_homotopy(p, y, n):
    """Hom_K(P, Y[n]) for P a bounded complex of projectives.  A chain map
    f = (f_m: P^m -> Y^{m+n}) satisfies (-1)^n d_Y f_m = f_{m+1} d_P, entry
    by entry; the null-homotopic ones are (-1)^{n-1} d_Y h_m - h_{m+1} d_P
    (or their negatives) for h = (h_m: P^m -> Y^{m+n-1}).  The
    representatives are the first kernel-basis cycles independent modulo the
    boundaries and the cycles before them."""
    f = p.algebra.field
    sign = f.one() if n % 2 == 0 else -f.one()
    layout = _hom_layout(p, y, n)
    offs = list(itertools.accumulate((len(b) for _, b in layout), initial=0))
    equations = []     # one column per coordinate: its chain-map defect, flattened
    for m, basis in layout:
        for b in basis:
            col = []
            for j in p.degrees():
                tgt = y.term(j + n + 1)
                if p.term(j).is_zero() or tgt is None or tgt.is_zero():
                    continue
                defect = ModuleMap.zero(p.term(j), tgt)
                if j == m and y.diff(m + n) is not None:
                    defect = defect.add(y.diff(m + n).compose(b).scale(sign))
                if j == m - 1:
                    defect = defect.add(b.compose(p.diff(m - 1)).scale(-f.one()))
                col += flatten(defect)
            equations.append(col)
    cycles = nullspace(Matrix.from_columns(f, equations, rows=len(equations[0]))
                       if equations and equations[0] else Matrix(f, [], cols=offs[-1]))
    boundaries = []
    pos = {m: t for t, (m, _) in enumerate(layout)}
    for m, basis in _hom_layout(p, y, n - 1):
        for h in basis:
            vec = [f.zero()] * offs[-1]
            parts = [(m, y.diff(m + n - 1), True), (m - 1, p.diff(m - 1), False)]
            for k, d, after in parts:
                if k in pos and d is not None:
                    g = d.compose(h).scale(-sign) if after else h.compose(d).scale(-f.one())
                    coords = coordinates(layout[pos[k]][1], g)
                    vec[offs[pos[k]]:offs[pos[k] + 1]] = coords
            boundaries.append(vec)
    _, _, pivots = rank_and_rref(Matrix.from_columns(f, boundaries + cycles, rows=offs[-1]))
    chosen = [cycles[c - len(boundaries)] for c in pivots if c >= len(boundaries)]
    shifted = shift_complex(y, n)
    reps = [ChainMap(p, shifted, {m: from_coordinates(p.term(m), y.term(m + n), basis,
                                                      v[offs[t]:offs[t + 1]])
                                  for t, (m, basis) in enumerate(layout)}, check=False)
            for v in chosen]
    return HomotopyHom(f, layout, boundaries, reps, chosen)

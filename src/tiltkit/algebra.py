"""Finite-dimensional algebras: path algebras with relations, structure
constants, idempotents, triangular gluing and detection, and basic invariants.

Conventions fixed once here and relied on everywhere else:

* Multiplication of paths: ``p * q`` means "traverse q first, then p", so the
  left module A.e_i has basis the nonzero path classes with source i.  Input
  files list the arrows of a path in traversal order and the parser keeps
  that order internally.
* Every FDAlgebra basis is Peirce-homogeneous: each basis element b satisfies
  b = e_r * b * e_c for a unique pair (r, c) of distinguished idempotents.
  Constructors either produce such a basis directly, and pass its blocks, or
  normalize to one with ``_peirce_basis``, as bimodules do too.
"""

from __future__ import annotations

from functools import cached_property

from .linalg import EchelonBasis, Matrix, QQ, span_basis


class AlgebraError(Exception):
    pass


class Arrow:
    def __init__(self, name: str, source: str, target: str):
        self.name = name
        self.source = source
        self.target = target

    def __eq__(self, other):
        return isinstance(other, Arrow) and vars(self) == vars(other)

    def __hash__(self):
        return hash((self.name, self.source, self.target))


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise AlgebraError(f"arrow {a.name} has undeclared endpoint")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class PathAlgebraPresentation:
    """A quiver, admissible relations, and a nilpotency bound N >= 1.

    Each relation is a list of (coefficient, arrow-name tuple) pairs; paths
    are written in traversal order.  All paths in one relation must share
    source and target and have length >= 2.
    """

    def __init__(self, quiver, relations, nilpotency_bound, field=QQ):
        if nilpotency_bound < 1:
            raise AlgebraError("nilpotency bound must be >= 1")
        self.quiver = quiver
        self.field = field
        self.nilpotency_bound = nilpotency_bound
        self.relations = []
        for rel in relations:
            terms = []
            src = tgt = None
            for coeff, arrows in rel:
                arrows = tuple(arrows)
                if len(arrows) < 2:
                    raise AlgebraError("relation paths must have length >= 2")
                for nm in arrows:
                    if nm not in quiver.arrow_index:
                        raise AlgebraError(f"relation references unknown arrow {nm!r}")
                for a, b in zip(arrows, arrows[1:]):
                    if quiver.arrows[quiver.arrow_index[a]].target != \
                            quiver.arrows[quiver.arrow_index[b]].source:
                        raise AlgebraError(f"non-composable path {arrows}")
                s = quiver.arrows[quiver.arrow_index[arrows[0]]].source
                t = quiver.arrows[quiver.arrow_index[arrows[-1]]].target
                if src is None:
                    src, tgt = s, t
                elif (s, t) != (src, tgt):
                    raise AlgebraError("paths within one relation must share source and target")
                terms.append((field.of(coeff), arrows))
            self.relations.append(terms)


class PathInfo:
    def __init__(self, source: str, target: str, arrows: tuple):
        self.source = source
        self.target = target
        self.arrows = arrows  # arrow names, traversal order

    def __eq__(self, other):
        return isinstance(other, PathInfo) and vars(self) == vars(other)

    def __hash__(self):
        return hash((self.source, self.target, self.arrows))


def _path_label(p: PathInfo):
    if not p.arrows:
        return f"e_{p.source}"
    return "*".join(p.arrows)


def _peirce_basis(field, lefts, rights, dim):
    """The one idempotent-homogeneous basis of k^dim under commuting left and
    right actions of complete orthogonal idempotents, given by their matrices
    `lefts` and `rights`: for each pair (r, c) in order, the rref basis of the
    column span of lefts[r] * rights[c].  Returns the change of basis (column
    t is basis vector t), its inverse, and the pair (r, c) of each vector;
    raises AlgebraError when the pieces do not span."""
    basis, blocks = [], []
    for r, left in enumerate(lefts):
        for c, right in enumerate(rights):
            for v in span_basis(field, (left * right).columns(), dim):
                basis.append(v)
                blocks.append((r, c))
    if len(basis) != dim:
        raise AlgebraError("the Peirce pieces do not span; the idempotents are not "
                           "complete and orthogonal")
    change = Matrix.from_columns(field, basis, rows=dim)
    return change, change.inverse(), blocks


class FDAlgebra:
    """A finite-dimensional algebra by basis and structure constants.

    Attributes:
        field: scalar field.
        dim: vector-space dimension.
        labels: basis labels.
        table: table[i][j] = coordinate vector of basis_i * basis_j.
            Immutable once the instance is built: ``sparse_table`` caches
            its nonzero entries, which would go stale if ``table`` changed.
            Constructors fill a table completely before passing it in.
        idempotents: coordinate vectors of the distinguished complete
            orthogonal idempotents e_0..e_{n-1}.
        idempotent_names: printable names, one per idempotent.
        block_row / block_col: Peirce block of each basis element
            (b = e_{block_row} * b * e_{block_col}), given by every
            constructor.
        paths: optional quiver provenance (PathInfo per basis element).
    """

    def __init__(self, field, labels, table, idempotents, *, idempotent_names,
                 block_row, block_col, quiver=None, paths=None, presentation=None,
                 check=True):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.table = table
        self.idempotents = [list(v) for v in idempotents]
        self.idempotent_names = list(idempotent_names)
        self.quiver = quiver
        self.paths = paths
        self.presentation = presentation
        self.block_row = list(block_row)
        self.block_col = list(block_col)
        self._radical = None
        self._radical_generators = None
        self._generators = None
        self._projectives = {}
        self._modules = {}      # tuple(dims) -> modules by content (modules._shared)
        self._opposite = None
        self._corners = {}      # idempotent tuple -> CornerData (corner_algebra)
        self._quotients = {}    # sorted idempotent tuple -> QuotientData (quotient_algebra)
        if check:
            self.check_axioms()

    @staticmethod
    def from_structure_constants(field, table, idempotents, idempotent_names=None):
        """Build an FDAlgebra, normalizing the basis to Peirce-homogeneous form.

        The input basis may be arbitrary; the result's basis consists of
        block-homogeneous vectors expressed in the *input* coordinates via
        the returned algebra's ``change_from_input`` matrix (new = P * old
        coordinates), stored for callers that need to transport data.

        The input table is checked on every basis triple with a nonzero
        product before it is normalized; a failure names the first failing
        triple, in input indices.  That check covers the
        result too: its table is the input's moved by an invertible change of
        basis, which keeps associativity, the idempotent axioms and the unit,
        and each new basis vector e_r u e_c is homogeneous for its block.
        """
        raw = FDAlgebra.__new__(FDAlgebra)
        raw.field, raw.dim, raw.table = field, len(table), table
        raw.idempotents = [list(v) for v in idempotents]
        raw._check_multiplication_axioms()
        everything = range(raw.dim)
        change, inv, blocks = _peirce_basis(
            field, [raw.mult_matrix(e, everything, everything, left=True) for e in raw.idempotents],
            [raw.mult_matrix(e, everything, everything, left=False) for e in raw.idempotents],
            raw.dim)
        basis = change.columns()
        new_table = [[inv.apply(raw.multiply(u, v)) for v in basis] for u in basis]
        alg = FDAlgebra(field, [f"b{r}.{c}.{k - blocks.index((r, c))}"
                                for k, (r, c) in enumerate(blocks)],
                        new_table, [inv.apply(e) for e in raw.idempotents],
                        idempotent_names=idempotent_names or
                        [f"e{i}" for i in range(len(raw.idempotents))],
                        block_row=[r for r, _ in blocks], block_col=[c for _, c in blocks],
                        check=False)
        alg.change_from_input = inv          # old coords -> new coords
        alg.change_to_input = change
        return alg

    # -- basic structure -------------------------------------------------------

    @property
    def idempotent_count(self):
        return len(self.idempotents)

    def zero_vector(self):
        return [self.field.zero()] * self.dim

    def coordinate_vector(self, k):
        v = self.zero_vector()
        v[k] = self.field.one()
        return v

    def unit(self):
        u = self.zero_vector()
        for e in self.idempotents:
            u = [a + b for a, b in zip(u, e)]
        return u

    @cached_property
    def bound_truncates(self):
        """Whether the nilpotency bound of the presentation does real
        truncation (``_bound_truncates``), computed on first use; False
        without a presentation."""
        return self.presentation is not None and _bound_truncates(self.presentation)

    @cached_property
    def sparse_table(self):
        """sparse_table[i][j]: the (k, c) pairs over the nonzero entries c
        of table[i][j], built on first use."""
        return [[[(k, c) for k, c in enumerate(prod) if c] for prod in row]
                for row in self.table]

    def multiply(self, u, v):
        out = [self.field.zero()] * self.dim
        sparse = self.sparse_table
        v_nz = [(j, vj) for j, vj in enumerate(v) if vj]
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = sparse[i]
            for j, vj in v_nz:
                prod = row[j]
                if prod:
                    c = ui * vj
                    for k, t in prod:
                        out[k] = out[k] + c * t
        return out

    def generators(self):
        """Basis indices k such that the idempotents together with the basis
        elements b_k generate A as an algebra, computed once per algebra.

        With ``paths`` provenance they are G of ``_path_radical``, which
        says why they generate; a failed grading raises its AlgebraError.
        Otherwise they are chosen greedily in basis order: b_k is taken when
        it lies outside the subalgebra generated so far.  That subalgebra is
        the smallest subspace that contains the idempotents and is closed
        under left multiplication by the chosen b_k (the basis is
        Peirce-homogeneous), so each vector that enters it is multiplied by
        each generator once.

        ``check_axioms`` runs this before associativity is verified, and
        both routes read the table alone.  Every vector of the greedy span is
        a product of idempotents and chosen b_k, so a span of dimension dim A
        shows, by bilinearity alone, that such products span A.  The unit
        puts each b_k = sum_i b_k e_i in the span; without one the closure
        can fall short, and this raises AlgebraError.
        """
        if self.paths is not None:
            return self._path_radical[1]
        if self._generators is None:
            span = EchelonBasis(self.field, self.idempotents)
            gens, gen_vecs = [], []
            for k in range(self.dim):
                b = self.coordinate_vector(k)
                if span.contains(b):
                    continue
                gens.append(k)
                gen_vecs.append(b)
                self._close(span, [self.multiply(b, v) for v in span.vectors], gen_vecs,
                            left=True)
            if len(span) != self.dim:
                raise AlgebraError("generator closure failed to span the algebra")
            self._generators = gens
        return self._generators

    def _generating_set(self):
        """The idempotents and the generators, as coordinate vectors: a set
        that generates A as an algebra."""
        return self.idempotents + [self.coordinate_vector(k) for k in self.generators()]

    def _close(self, span, start, multipliers, left):
        """Add the vectors of `start` to the EchelonBasis `span` and close it
        under multiplication by `multipliers`, on the left (m*v) or on the
        right (v*m).  Vectors already in `span` must be closed already."""
        queue = [v for v in map(span.add, start) if v is not None]
        while queue:
            v = queue.pop()
            for m in multipliers:
                w = span.add(self.multiply(m, v) if left else self.multiply(v, m))
                if w is not None:
                    queue.append(w)

    def basis_in_block(self, r, c):
        return [k for k in range(self.dim)
                if self.block_row[k] == r and self.block_col[k] == c]

    def block_dim(self, r, c):
        return len(self.basis_in_block(r, c))

    def mult_matrix(self, x, src, tgt, *, left):
        """Matrix of u -> x*u (`left`) or u -> u*x on the span of the basis
        elements indexed by `src`, written in the basis elements indexed by
        `tgt`: column c is the product with basis element src[c].  x is a
        coordinate vector, or a basis index k standing for the basis element
        b_k.  Reads the structure table over the nonzero entries of x only,
        and raises AlgebraError when a product leaves span(tgt)."""
        # (i, x_i) over the nonzero x_i; for x = b_k the coefficient 1 is None,
        # so the table entries are used as they are
        terms = [(x, None)] if isinstance(x, int) else \
            [(i, xi) for i, xi in enumerate(x) if xi]
        pos = {k: t for t, k in enumerate(tgt)}
        table = self.sparse_table
        out = Matrix.zeros(self.field, len(tgt), len(src))
        for c, u in enumerate(src):
            prod = {}
            for i, xi in terms:
                for k, t in (table[i][u] if left else table[u][i]):
                    v = t if xi is None else xi * t
                    prod[k] = prod[k] + v if k in prod else v
            for k, val in prod.items():
                if val:
                    if k not in pos:
                        raise AlgebraError(f"product with {self.labels[u]} leaves the "
                                           "span of the target basis elements")
                    out.data[pos[k]][c] = val
        return out

    # -- axioms ---------------------------------------------------------------

    def _check_multiplication_axioms(self, middle=None):
        """Associativity on the basis triples (i, j, k) with j in `middle`
        (every index by default), then the idempotent and unit axioms.

        By Light's associativity test the g with (x g) y = x (g y) for all
        x, y form a subspace closed under products, so a `middle` whose
        products span A suffices.  When that restricted test fails, the full
        scan runs again to name the first failing triple.

        Each triple costs one difference (b_i b_j) b_k - b_i (b_j b_k) over
        the nonzero entries of the structure table; a triple with
        b_i b_j = 0 and b_j b_k = 0 is skipped, both sides being zero."""
        sparse = self.sparse_table
        indices = range(self.dim)
        # per j, the k with b_j b_k != 0: when b_i b_j = 0 only these count
        nonzero = [[k for k, prod in enumerate(row) if prod] for row in sparse]
        for i in indices:
            row_i = sparse[i]
            for j in indices if middle is None else middle:
                ij, row_j = row_i[j], sparse[j]
                for k in indices if ij else nonzero[j]:
                    diff = {}
                    for m, c in ij:
                        for n, t in sparse[m][k]:
                            diff[n] = diff[n] + c * t if n in diff else c * t
                    for m, c in row_j[k]:
                        for n, t in row_i[m]:
                            diff[n] = diff[n] - c * t if n in diff else -(c * t)
                    if any(diff.values()):
                        if middle is not None:
                            self._check_multiplication_axioms()
                        raise AlgebraError(
                            f"associativity fails on basis triple ({i},{j},{k})")
        for i, ei in enumerate(self.idempotents):
            for j, ej in enumerate(self.idempotents):
                p = self.multiply(ei, ej)
                if (p != ei) if i == j else any(p):
                    raise AlgebraError(f"idempotent axiom fails on (e{i}, e{j})")
        u = self.unit()
        identity = Matrix.identity(self.field, self.dim)
        if (self.mult_matrix(u, indices, indices, left=True) != identity
                or self.mult_matrix(u, indices, indices, left=False) != identity):
            raise AlgebraError("sum of idempotents is not a two-sided unit")

    def generating_indices(self):
        """Basis indices whose elements generate A: the support of the
        idempotents and the generators, or every index when ``generators``
        raises (the closure fails to span A, or the path grading fails)."""
        try:
            gens = self.generators()
        except AlgebraError:
            return range(self.dim)
        return sorted({k for e in self.idempotents for k, x in enumerate(e) if x}.union(gens))

    def check_axioms(self):
        self._check_multiplication_axioms(self.generating_indices())
        # block homogeneity.  With associativity, the idempotent axioms and
        # the unit checked, e_r b e_c = b holds exactly when e_r b = b and
        # b e_c = b: column k of the left and right multiplications.
        indices = range(self.dim)
        lefts = [self.mult_matrix(e, indices, indices, left=True) for e in self.idempotents]
        rights = [self.mult_matrix(e, indices, indices, left=False) for e in self.idempotents]
        for k in indices:
            b = self.coordinate_vector(k)
            if (lefts[self.block_row[k]].column(k) != b
                    or rights[self.block_col[k]].column(k) != b):
                raise AlgebraError(f"basis element {k} not homogeneous for its declared block")

    # -- invariants -----------------------------------------------------------

    def radical_basis(self):
        """Basis (rref) of the Jacobson radical, by one of two routes; either
        way a wrong answer raises AlgebraError instead of escaping.

        With ``paths`` provenance (``build_fd_algebra``, ``corner_algebra``,
        ``quotient_algebra``) it is the arrow ideal J/I, the span of the basis
        paths of length >= 1, certified against the structure table by
        ``_path_radical``.  Valid in every characteristic.

        Otherwise it is the kernel of the trace bilinear form T(x, y) =
        trace(left multiplication by x*y), valid over Q, or over F_p with
        p > dim, and then verified to be a nilpotent two-sided ideal against
        the generating set of A (``_verify_nilpotent_ideal``).
        """
        if self._radical is not None:
            return self._radical
        if self.paths is not None:
            rad = self._path_radical[0]
            self._radical_generators = [self.coordinate_vector(k) for k in self.generators()]
        else:
            rad = self._trace_radical()
            self._radical_generators, _ = self._verify_nilpotent_ideal(rad)
        self._radical = rad
        return rad

    @cached_property
    def _path_radical(self):
        """The span J' of the basis paths of length >= 1, as unit vectors,
        and the indices G of those paths that are not single-term products
        b_i*b_j = c*b_k of two paths of length >= 1, in basis order, after
        one pass over the structure table shows that J' = rad A.

        Each product b_i*b_j must be supported on basis paths of length
        >= len(i) + len(j), and the basis paths of length 0 must be the
        distinguished idempotents, as unit vectors.  The first makes J' a
        two-sided ideal whose m-th power lies on paths of length >= m, so J'
        is nilpotent and inside rad A; the second, the idempotents being
        complete and orthogonal, makes A/J' = k^n semisimple, so rad A is
        inside J'.  No step divides, so this holds in every characteristic.

        A path k of length l outside G is c^-1 b_i*b_j with i and j shorter
        than l, so by induction on l every b_k is a product of idempotents
        and elements of G: G generates A, by the table alone, and with
        associativity G*A is a right ideal holding every path of length
        >= 1, so G generates J' as a right ideal.
        """
        lengths = [len(p.arrows) for p in self.paths]
        trivial = [self.coordinate_vector(k) for k in range(self.dim) if not lengths[k]]
        if len(trivial) != len(self.idempotents) or \
                any(e not in trivial for e in self.idempotents):
            raise AlgebraError("the basis paths of length 0 are not the distinguished "
                               "idempotents")
        sparse = self.sparse_table
        products = set()
        for i in range(self.dim):
            for j in range(self.dim):
                prod = sparse[i][j]
                floor = lengths[i] + lengths[j]
                if any(lengths[k] < floor for k, _ in prod):
                    raise AlgebraError(
                        f"path grading fails: {self.labels[i]}*{self.labels[j]} has a "
                        "term on a shorter basis path")
                if len(prod) == 1 and lengths[i] and lengths[j]:
                    products.add(prod[0][0])
        rad = [k for k in range(self.dim) if lengths[k]]
        return [self.coordinate_vector(k) for k in rad], [k for k in rad if k not in products]

    def _trace_radical(self):
        """The kernel of the trace form, split into Peirce blocks, in rref."""
        ch = self.field.characteristic
        if ch != 0 and ch <= self.dim:
            raise AlgebraError(
                f"radical via trace form needs characteristic 0 or p > dim "
                f"(p={ch}, dim={self.dim})")
        if self.dim == 0:
            return []
        z = self.field.zero()
        sparse = self.sparse_table
        # traces[k] = trace of left multiplication by basis element k
        traces = []
        for k in range(self.dim):
            tr = z
            for j in range(self.dim):
                for m, c in sparse[k][j]:
                    if m == j:
                        tr = tr + c
            traces.append(tr)
        gram = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                tr = z
                for k, c in sparse[i][j]:
                    tr = tr + c * traces[k]
                row.append(tr)
            gram.append(row)
        null = Matrix(self.field, gram, cols=self.dim).nullspace()
        # make the basis Peirce-homogeneous by masking block coordinates
        pieces = []
        n = self.idempotent_count
        for v in null:
            for r in range(n):
                for c in range(n):
                    idx = self.basis_in_block(r, c)
                    w = [z] * self.dim
                    nonzero = False
                    for k in idx:
                        if v[k]:
                            w[k] = v[k]
                            nonzero = True
                    if nonzero:
                        pieces.append(w)
        return span_basis(self.field, pieces, self.dim)

    def radical_generators(self):
        """Vectors S of the radical basis that generate rad A as a right ideal,
        so that rad A = S*A and rad(A)*X is the sum of s*X over s in S: the
        unit vectors of ``generators`` with paths, else the greedy choice of
        ``_verify_nilpotent_ideal``."""
        self.radical_basis()
        return self._radical_generators

    def _verify_nilpotent_ideal(self, ideal):
        """Check that the span I of `ideal` is a nilpotent two-sided ideal.

        I is a two-sided ideal when g*v and v*g lie in I for every basis
        vector v of I and every g of the generating set.  The vectors S of
        `ideal` that lie outside the right ideal generated by the ones before
        them generate I as a right ideal; since I^k is a two-sided ideal,
        I^(k+1) = I^k * S * A is the right ideal generated by I^k * S.  I is
        nilpotent when that chain reaches 0 before it stalls.  Returns S and
        the dimensions of I, I^2, ..., the last nonzero power.
        """
        if not ideal:
            return [], []
        mults = self._generating_set()
        span = EchelonBasis(self.field, ideal)
        for v in ideal:
            for g in mults:
                if not span.contains(self.multiply(g, v)) or \
                        not span.contains(self.multiply(v, g)):
                    raise AlgebraError("trace-form radical is not a two-sided ideal")
        closure, gens = EchelonBasis(self.field), []
        for v in ideal:
            if not closure.contains(v):
                gens.append(v)
                self._close(closure, [v], mults, left=False)
        if len(closure) != len(span):
            raise AlgebraError("right ideal generators do not generate the ideal")
        power, dims = span.vectors, [len(span)]
        while True:
            nxt = EchelonBasis(self.field)
            self._close(nxt, [self.multiply(u, s) for u in power for s in gens], mults,
                        left=False)
            if not nxt:
                return gens, dims
            if len(nxt) >= len(power):
                raise AlgebraError("trace-form radical is not nilpotent")
            power = nxt.vectors
            dims.append(len(nxt))

    def radical_dim(self):
        return len(self.radical_basis())

    def is_idempotent_primitive(self, i):
        """e_i is primitive (with split corner) iff e_i A e_i is local with
        one-dimensional semisimple quotient."""
        corner = corner_algebra(self, [i]).algebra
        return corner.dim - corner.radical_dim() == 1

    def cartan_matrix(self):
        """Integer matrix of corner dimensions dim e_i A e_j, plus determinant.

        Requires the distinguished idempotents to be primitive.
        """
        bad = [i for i in range(self.idempotent_count) if not self.is_idempotent_primitive(i)]
        if bad:
            raise AlgebraError(f"non-primitive distinguished idempotents at {bad}")
        n = self.idempotent_count
        entries = [[self.block_dim(i, j) for j in range(n)] for i in range(n)]
        det = Matrix(QQ, entries, cols=n).det() if n else 1
        return entries, int(det)

    def center_dimension(self):
        """Dimension of the centre: the z with z*g = g*z for every g of the
        generating set, which is enough since those g generate A.  The
        equations are read off the structure table: for each g, output
        coordinate m and unknown z_j, the entry of b_j*g - g*b_j at m."""
        z = self.field.zero()
        sparse = self.sparse_table
        rows = []
        for g in self._generating_set():
            g_nz = [(i, c) for i, c in enumerate(g) if c]
            eqs = [[z] * self.dim for _ in range(self.dim)]
            for j in range(self.dim):
                for i, c in g_nz:
                    for m, t in sparse[j][i]:
                        eqs[m][j] = eqs[m][j] + c * t
                    for m, t in sparse[i][j]:
                        eqs[m][j] = eqs[m][j] - c * t
            rows.extend(row for row in eqs if any(row))
        return self.dim - Matrix(self.field, rows, cols=self.dim).rank()

    def __repr__(self):
        return f"FDAlgebra(dim={self.dim}, idempotents={self.idempotent_count})"


def same_algebra(a: FDAlgebra, b: FDAlgebra) -> bool:
    """Identity or structural equality (corner algebras are rebuilt along
    different pipelines but share basis, table, and idempotents)."""
    if a is b:
        return True
    return (a.dim == b.dim and a.table == b.table and a.idempotents == b.idempotents)


# -- path algebra construction ------------------------------------------------


def _enumerate_paths(quiver, max_len):
    """All paths of length < max_len in deterministic (length, arrows) order."""
    paths = [PathInfo(v, v, ()) for v in quiver.vertices]
    frontier = list(paths)
    for _ in range(1, max_len):
        nxt = []
        for p in frontier:
            for a in quiver.arrows:
                if a.source == p.target:
                    nxt.append(PathInfo(p.source, a.target, p.arrows + (a.name,)))
        paths.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return paths


def build_fd_algebra(presentation: PathAlgebraPresentation) -> FDAlgebra:
    """The algebra kQ / (I + J^N): paths of length < N modulo the span of all
    truncated products u*r*v over the relation generators r."""
    quiver = presentation.quiver
    field = presentation.field
    N = presentation.nilpotency_bound
    paths, index, span = _relation_quotient(presentation, N)
    z = field.zero()
    free = span.free(len(paths))
    basis_paths = [paths[i] for i in free]
    dim = len(basis_paths)
    labels = [_path_label(p) for p in basis_paths]
    rep_pos = {idx: t for t, idx in enumerate(free)}
    classes = {}     # path index -> the class of its unit vector, reduced once

    def reduce_path(src, arrows):
        if len(arrows) >= N:
            return [z] * dim
        li = index[(src, arrows)]
        if li not in classes:
            unit = [z] * len(paths)
            unit[li] = field.one()
            out = span.reduce(unit)[0]
            classes[li] = [out[k] for k in free]
        return classes[li]

    table = []
    for p in basis_paths:
        row = []
        for q in basis_paths:
            # p * q: traverse q, then p
            if q.target != p.source:
                row.append([z] * dim)
            else:
                row.append(reduce_path(q.source, q.arrows + p.arrows))
        table.append(row)

    idems = []
    for v in quiver.vertices:
        li = index[(v, ())]
        if li not in rep_pos:
            raise AlgebraError("trivial path eliminated by relations; presentation not admissible")
        vec = [z] * dim
        vec[rep_pos[li]] = field.one()
        idems.append(vec)

    block_row = [quiver.vertex_index[p.target] for p in basis_paths]
    block_col = [quiver.vertex_index[p.source] for p in basis_paths]
    return FDAlgebra(field, labels, table, idems, idempotent_names=list(quiver.vertices),
                     block_row=block_row, block_col=block_col,
                     quiver=quiver, paths=basis_paths, presentation=presentation)


def _relation_quotient(presentation, max_len):
    """The paths of length < max_len, their index by (source, arrows), and an
    echelon basis of the span of the truncated products u*r*v over the
    relation generators r."""
    quiver = presentation.quiver
    field = presentation.field
    paths = _enumerate_paths(quiver, max_len)
    index = {(p.source, p.arrows): i for i, p in enumerate(paths)}
    long_dim = len(paths)
    z = field.zero()
    span = EchelonBasis(field)
    for rel in presentation.relations:
        rel_src = quiver.arrows[quiver.arrow_index[rel[0][1][0]]].source
        rel_tgt = quiver.arrows[quiver.arrow_index[rel[0][1][-1]]].target
        for v in paths:       # right factor: traversed first, must end at rel source
            if v.target != rel_src:
                continue
            for u in paths:   # left factor: traversed last, must start at rel target
                if u.source != rel_tgt:
                    continue
                vec = [z] * long_dim
                # most products are truncated away: test hit before any(vec)
                hit = False
                for coeff, arrows in rel:
                    full = v.arrows + arrows + u.arrows
                    if len(full) < max_len:
                        vec[index[(v.source, full)]] += coeff
                        hit = True
                if hit and any(vec):
                    span.add(vec)
    return paths, index, span


def _bound_truncates(presentation):
    """Informational check that the nilpotency bound does real truncation:
    true when some length-N path does not already reduce into the relation
    ideal computed one level deeper (so J^N <= I is not verified)."""
    field = presentation.field
    N = presentation.nilpotency_bound
    paths, index, span = _relation_quotient(presentation, N + 1)
    for p in paths:
        if len(p.arrows) == N:
            unit = [field.zero()] * len(paths)
            unit[index[(p.source, p.arrows)]] = field.one()
            if not span.contains(unit):
                return True
    return False


def opposite(a: FDAlgebra) -> FDAlgebra:
    """Same basis, multiplication reversed; Peirce blocks transpose, and
    basis paths, where A has them, are read backwards.  Built once per
    algebra, so that every caller shares what is cached on A^op, such as its
    projectives.  The opposite of A^op is a new algebra, not A."""
    if a._opposite is None:
        table = [[a.table[j][i] for j in range(a.dim)] for i in range(a.dim)]
        paths = None if a.paths is None else \
            [PathInfo(p.target, p.source, p.arrows[::-1]) for p in a.paths]
        a._opposite = FDAlgebra(a.field, a.labels, table, a.idempotents,
                                idempotent_names=a.idempotent_names,
                                block_row=a.block_col, block_col=a.block_row, paths=paths,
                                check=False)
    return a._opposite


# -- corners, quotients, triangular structure ----------------------------------


class CornerData:
    """The algebra e A e for e a sum of distinguished idempotents."""

    def __init__(self, algebra: FDAlgebra, basis_indices, idem_map, ambient: FDAlgebra):
        self.algebra = algebra
        self.basis_indices = basis_indices  # ambient basis indices forming the corner basis
        self.idem_map = idem_map    # corner idempotent position -> ambient idempotent position
        self.ambient = ambient

    def embed_vector(self, v):
        out = self.ambient.zero_vector()
        for pos, k in enumerate(self.basis_indices):
            out[k] = v[pos]
        return out


def corner_algebra(a: FDAlgebra, idem_subset) -> CornerData:
    """e A e for e the sum of the chosen distinguished idempotents, which
    the corner keeps in the order given.  Built once per algebra and order,
    like ``opposite``, so that every caller shares the corner and what is
    cached on it."""
    key = tuple(idem_subset)
    if key not in a._corners:
        a._corners[key] = _build_corner(a, list(key))
    return a._corners[key]


def _build_corner(a: FDAlgebra, subset) -> CornerData:
    sset = set(subset)
    basis_indices = [k for k in range(a.dim)
                     if a.block_row[k] in sset and a.block_col[k] in sset]
    pos = {k: t for t, k in enumerate(basis_indices)}
    dim = len(basis_indices)
    table = []
    for i in basis_indices:
        row = []
        for j in basis_indices:
            prod = a.table[i][j]
            row.append([prod[k] for k in basis_indices])
        table.append(row)
    idems = []
    idem_map = []
    for s in subset:
        idems.append([a.idempotents[s][k] for k in basis_indices])
        idem_map.append(s)
    remap = {s: t for t, s in enumerate(subset)}
    alg = FDAlgebra(a.field, [a.labels[k] for k in basis_indices], table, idems,
                    idempotent_names=[a.idempotent_names[s] for s in subset],
                    block_row=[remap[a.block_row[k]] for k in basis_indices],
                    block_col=[remap[a.block_col[k]] for k in basis_indices],
                    check=False)
    if a.quiver is not None and a.paths is not None:
        # restricted provenance: the subquiver on the chosen vertices, and the
        # ambient path of each corner basis element (its arrows may leave the
        # subquiver in general; consumers must handle missing arrows)
        names = {a.idempotent_names[s] for s in subset}
        inside = [(ar.name, ar.source, ar.target) for ar in a.quiver.arrows
                  if ar.source in names and ar.target in names]
        alg.quiver = Quiver([a.idempotent_names[s] for s in subset], inside)
        alg.paths = [a.paths[k] for k in basis_indices]
    return CornerData(alg, basis_indices, idem_map, a)


class QuotientData:
    """The algebra A / AeA with the ideal and its coset representatives."""

    def __init__(self, algebra: FDAlgebra, ideal: EchelonBasis, rep_indices, idem_map,
                 ambient: FDAlgebra, ideal_basis):
        self.algebra = algebra
        self.ideal = ideal  # AeA, in ambient coords
        self.rep_indices = rep_indices  # quotient element t is the class of b_{rep_indices[t]}
        self.idem_map = idem_map  # quotient idempotent position -> ambient idempotent position
        self.ambient = ambient
        self.ideal_basis = ideal_basis  # rref basis of AeA, in ambient coords

    def project_vector(self, v):
        """Quotient coordinates of v: its residue modulo AeA, read at the
        positions of the coset representatives."""
        out = self.ideal.reduce(v)[0]
        return [out[k] for k in self.rep_indices]


def quotient_algebra(a: FDAlgebra, idem_subset) -> QuotientData:
    """A / A e A for e the sum of the chosen distinguished idempotents,
    built once per algebra and subset."""
    key = tuple(sorted(set(idem_subset)))
    if key not in a._quotients:
        a._quotients[key] = _build_quotient(a, set(key))
    return a._quotients[key]


def _build_quotient(a: FDAlgebra, subset) -> QuotientData:
    # AeA is spanned by the products b_i e b_j; on a Peirce basis b_i e is
    # b_i when b_i ends in the subset and 0 otherwise
    gens = [v for i in range(a.dim) if a.block_col[i] in subset
            for v in a.table[i] if any(v)]
    ideal_basis = span_basis(a.field, gens, a.dim)
    ideal = EchelonBasis(a.field, ideal_basis)
    # the algebra is filled in once the classes of its table are read
    qd = QuotientData(None, ideal, ideal.free(a.dim), [], a, ideal_basis)
    rep_idx, idem_map = qd.rep_indices, qd.idem_map
    table = [[qd.project_vector(a.table[i][j]) for j in rep_idx] for i in rep_idx]
    idems = []
    for s in range(a.idempotent_count):
        if s in subset:
            continue
        img = qd.project_vector(a.idempotents[s])
        if any(img):
            idems.append(img)
            idem_map.append(s)
    remap = {s: t for t, s in enumerate(idem_map)}
    block_row, block_col = [], []
    for k in rep_idx:
        r, c = a.block_row[k], a.block_col[k]
        if r not in remap or c not in remap:
            raise AlgebraError("quotient basis element in a killed block")
        block_row.append(remap[r])
        block_col.append(remap[c])
    alg = qd.algebra = FDAlgebra(a.field, [a.labels[k] for k in rep_idx], table, idems,
                                 idempotent_names=[a.idempotent_names[s] for s in idem_map],
                                 block_row=block_row, block_col=block_col, check=False)
    if a.paths is not None:
        # the coset representatives are ambient basis paths
        alg.paths = [a.paths[k] for k in rep_idx]
    return qd


class Bimodule:
    """A (C, B)-bimodule by a basis with left-C and right-B action matrices.

    left_action[k]  : matrix of the action of C basis element k (m -> c_k * m)
    right_action[k] : matrix of the action of B basis element k (m -> m * b_k)
    block_row[t] / block_col[t]: C-idempotent / B-idempotent supporting basis
        element t (so t spans part of e_row * M * e_col).

    A bimodule is immutable once built: ``left_module`` is built on first
    use and kept, and would go stale if the actions changed afterwards.
    Its axioms are checked where it is glued (``glue_triangular``).
    """

    def __init__(self, left_algebra, right_algebra, dim, left_action, right_action,
                 labels=None, *, block_row, block_col):
        self.left_algebra = left_algebra    # C
        self.right_algebra = right_algebra  # B
        self.dim = dim
        self.left_action = left_action
        self.right_action = right_action
        self.labels = list(labels) if labels else [f"m{t}" for t in range(dim)]
        self.block_row = block_row
        self.block_col = block_col

    @cached_property
    def left_module(self):
        """The underlying left C-module (``modules.bimodule_left_module``),
        one per bimodule, so that what is cached on it, such as its
        projective resolution, is shared by every caller."""
        from .modules import bimodule_left_module
        return bimodule_left_module(self)


def _act(mats, vec, field, dim):
    """sum_k vec[k] * mats[k]: the matrix by which the algebra element with
    coordinates `vec` acts, from the matrices of its basis elements."""
    out = Matrix.zeros(field, dim, dim)
    for k, c in enumerate(vec):
        if c:
            out = out + mats[k].scale(c)
    return out


class TriangularPresentation:
    """A = [[B, 0],[M, C]] realized inside an ambient algebra.

    b_idems / c_idems: ambient distinguished idempotent indices whose sums are
    e_B and e_C.  The defining corner is e_B * A * e_C = 0 and M = e_C A e_B.
    """

    def __init__(self, ambient: FDAlgebra, b_idems, c_idems, corner_b: CornerData,
                 corner_c: CornerData, bimodule: Bimodule, m_basis_indices):
        self.ambient = ambient
        self.b_idems = b_idems
        self.c_idems = c_idems
        self.corner_b = corner_b
        self.corner_c = corner_c
        self.bimodule = bimodule
        self.m_basis_indices = m_basis_indices  # ambient basis indices spanning M = e_C A e_B

    @property
    def algebra_b(self):
        return self.corner_b.algebra

    @property
    def algebra_c(self):
        return self.corner_c.algebra


def detect_triangular(a: FDAlgebra, idem_subset):
    """Triangular presentation with B = eAe, C = fAf, M = fAe when eAf = 0,
    where e is the sum of the chosen idempotents and f = 1 - e.  Returns None
    when the corner eAf is nonzero."""
    subset = sorted(idem_subset)
    sset = set(subset)
    comp = [i for i in range(a.idempotent_count) if i not in sset]
    # eAf = span of basis elements with row in subset, col in complement
    if any(a.block_row[k] in sset and a.block_col[k] not in sset for k in range(a.dim)):
        return None
    corner_b = corner_algebra(a, subset)
    corner_c = corner_algebra(a, comp)
    m_idx = [k for k in range(a.dim)
             if a.block_row[k] not in sset and a.block_col[k] in sset]
    left_action = [a.mult_matrix(k, m_idx, m_idx, left=True) for k in corner_c.basis_indices]
    right_action = [a.mult_matrix(k, m_idx, m_idx, left=False) for k in corner_b.basis_indices]
    remap_c = {s: t for t, s in enumerate(comp)}
    remap_b = {s: t for t, s in enumerate(subset)}
    bim = Bimodule(corner_c.algebra, corner_b.algebra, len(m_idx),
                   left_action, right_action,
                   labels=[a.labels[k] for k in m_idx],
                   block_row=[remap_c[a.block_row[k]] for k in m_idx],
                   block_col=[remap_b[a.block_col[k]] for k in m_idx])
    return TriangularPresentation(a, subset, comp, corner_b, corner_c, bim, m_idx)


def glue_triangular(b: FDAlgebra, c: FDAlgebra, m: Bimodule) -> TriangularPresentation:
    """The triangular matrix algebra [[B, 0], [M, C]] with block multiplication
    (b1, m1, c1) * (b2, m2, c2) = (b1 b2, m1*b2 + c1*m2, c1 c2).

    The bimodule is not checked on its own: the axiom check of the glued
    algebra covers it, since associativity on the triples (c, c', m),
    (m, b, b') and (c, m, b), the unit and the Peirce blocks of the M rows
    are exactly the unital (C, B)-bimodule axioms."""
    if not (same_algebra(m.left_algebra, c) and same_algebra(m.right_algebra, b)):
        raise AlgebraError("bimodule sides do not match the given corner algebras")
    f = b.field
    z = f.zero()
    dim = b.dim + m.dim + c.dim
    off_m = b.dim
    off_c = b.dim + m.dim

    def emb_b(v):
        return [*v] + [z] * (m.dim + c.dim)

    def emb_m(v):
        return [z] * b.dim + [*v] + [z] * c.dim

    def emb_c(v):
        return [z] * (b.dim + m.dim) + [*v]

    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if i < off_m and j < off_m:
                table[i][j] = emb_b(b.table[i][j])
            elif i >= off_c and j >= off_c:
                table[i][j] = emb_c(c.table[i - off_c][j - off_c])
            elif i >= off_c and off_m <= j < off_c:
                # c * m
                table[i][j] = emb_m(m.left_action[i - off_c].column(j - off_m))
            elif off_m <= i < off_c and j < off_m:
                # m * b
                table[i][j] = emb_m(m.right_action[j].column(i - off_m))
            else:
                table[i][j] = [z] * dim
    idems = [emb_b(e) for e in b.idempotents] + [emb_c(e) for e in c.idempotents]
    names = [f"B.{n}" for n in b.idempotent_names] + [f"C.{n}" for n in c.idempotent_names]
    nb = b.idempotent_count
    block_row = ([r for r in b.block_row]
                 + [m.block_row[t] + nb for t in range(m.dim)]
                 + [r + nb for r in c.block_row])
    block_col = ([cc for cc in b.block_col]
                 + [m.block_col[t] for t in range(m.dim)]
                 + [cc + nb for cc in c.block_col])
    labels = ([f"B.{l}" for l in b.labels] + [f"M.{l}" for l in m.labels]
              + [f"C.{l}" for l in c.labels])
    amb = FDAlgebra(f, labels, table, idems, idempotent_names=names,
                    block_row=block_row, block_col=block_col)
    pres = detect_triangular(amb, list(range(nb)))
    if pres is None:
        raise AlgebraError("glued algebra failed its own triangularity detection")
    return pres


def bimodule_from_actions(left_algebra, right_algebra, dim, left_mats,
                          right_mats) -> Bimodule:
    """Build a bimodule from raw action matrices, rebased to the
    idempotent-homogeneous basis of ``_peirce_basis``, the normalization
    ``FDAlgebra.from_structure_constants`` uses.  The result records that
    basis as ``basis_change``: column t is basis element t in the
    coordinates of the given matrices."""
    f = left_algebra.field
    change, inv, blocks = _peirce_basis(
        f, [_act(left_mats, e, f, dim) for e in left_algebra.idempotents],
        [_act(right_mats, e, f, dim) for e in right_algebra.idempotents], dim)
    bim = Bimodule(left_algebra, right_algebra, dim, [inv * m * change for m in left_mats],
                   [inv * m * change for m in right_mats],
                   block_row=[r for r, _ in blocks], block_col=[c for _, c in blocks])
    bim.basis_change = change
    return bim


def is_selfinjective_local(c: FDAlgebra):
    """Verdicts (local, self-injective) with failing witnesses.

    local: dim(C / rad C) == 1.  self-injective: Ext^1(S, C) = 0 for every
    simple S, which forces Ext^1(-, C) = 0 on all finite-dimensional modules.
    """
    from .modules import regular_module, simple_module, ext

    local = (c.dim - c.radical_dim()) == 1
    witnesses = []
    reg = regular_module(c)
    selfinj = True
    for i in range(c.idempotent_count):
        s = simple_module(c, i)
        if s.total_dim == 0:
            continue
        e = ext(s, reg, 1, bound=2)     # P_2 -> P_1 -> P_0 decides Ext^1
        if e.dim != 0:
            selfinj = False
            witnesses.append((c.idempotent_names[i], e.dim))
    return local, selfinj, witnesses

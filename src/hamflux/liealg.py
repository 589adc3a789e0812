"""Finite-dimensional Lie algebras, modules and algebra maps, all validated
eagerly: a constructed object is guaranteed to satisfy its defining identities
(antisymmetry + Jacobi for algebras, the commutator rule for actions, bracket
preservation for maps). Scalars are exact rationals throughout.

Every subalgebra is presented by spanned_subalgebra, on an ordered list of
generators; subalgebra is that builder on a subspace's canonical basis.
"""

from hamflux.errors import (
    AntisymmetryViolation,
    BracketViolation,
    HamfluxError,
    HomViolation,
    JacobiViolation,
    Unsolvable,
)
from hamflux.linalg import (
    _ZERO_ROW,
    LinearSolver,
    Matrix,
    Subspace,
    _checked_row,
    _concat,
    _dense,
    _neg,
    _sparse,
    kernel_basis,
    sparse_lincomb,
    unit_vector,
    vec_add,
    vec_neg,
    vector,
    zero_vector,
)


class _Rows(tuple):
    """A structure table of canonical scaled rows the library built itself:
    _Rows(rows)[i][j] is [e_i, e_j] as in Matrix.sparse_rows. LieAlgebra
    stores it without coercion and still checks its shape and identities."""

    __slots__ = ()


class LieAlgebra:
    """Lie algebra given by structure constants on a fixed basis.

    The constants are stored once, as canonical scaled integer rows:
    _sparse[i][j] is [e_i, e_j] in the form of Matrix.sparse_rows, and
    brackets and checks are integer arithmetic on it. structure[i][j], the
    dense Fraction coordinate vector of [e_i, e_j], is derived from it on
    each call. A dense table is coerced and scanned into rows; the parser and
    the extension builders pass a _Rows table, which is stored as it is.
    Either way construction checks the shape, antisymmetry on all pairs and
    the Jacobi identity on strictly increasing triples; with antisymmetry in
    hand, multilinearity extends the identity from those triples to arbitrary
    arguments.
    """

    __slots__ = ("dim", "_sparse")

    def __init__(self, structure):
        if isinstance(structure, _Rows):
            rows = tuple(map(tuple, structure))
            n = len(rows)
            # columns increase along a row, so its last one is its largest
            ok = all(len(r) == n and all(p[-1][0] < n for _, p in r if p) for r in rows)
        else:
            table = tuple(tuple(vector(v) for v in row) for row in structure)
            n = len(table)
            ok = all(len(r) == n and all(len(v) == n for v in r) for r in table)
            rows = tuple(tuple(map(_sparse, row)) for row in table) if ok else ()
        if not ok:
            raise ValueError("structure table must be n x n with length-n values")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "_sparse", rows)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @property
    def structure(self):
        """Dense table of the constants, derived from the sparse rows."""
        n = self.dim
        return tuple(tuple(_dense(v, n) for v in row) for row in self._sparse)

    def _validate(self):
        n, s = self.dim, self._sparse
        for i in range(n):
            if s[i][i][1]:
                raise AntisymmetryViolation(i, i, self.structure[i][i])
            for j in range(i + 1, n):
                if s[i][j] != _neg(s[j][i]):
                    c = self.structure  # dense values only for the message
                    raise AntisymmetryViolation(i, j, vec_add(c[i][j], c[j][i]))
        # cyclic sum of [[e_i, e_j], e_k] with [e_l, e_k] = s[l][k], times
        # the product of the three bracket scales, over the terms whose row
        # is nonzero. A triple has such a term only when some l in [e_x, e_y]
        # has [e_l, e_z] nonzero, (x, y, z) a rotation of it; the others sum
        # to zero, so only those triples are visited, in increasing order.
        partners = [{k for k, (_, p) in enumerate(row) if p} for row in s]
        live = set()
        for x in range(n):
            for y in range(x + 1, n):
                if pairs := s[x][y][1]:
                    zs = set().union(*[partners[l] for l, _ in pairs]) - {x, y}
                    live.update(
                        (x, y, z) if z > y else (x, z, y) if z > x else (z, x, y) for z in zs
                    )
        for i, j, k in sorted(live):
            (a, ij), (b, jk), (c, ki) = s[i][j], s[j][k], s[k][i]
            terms = [(x * b * c, r) for l, x in ij if (r := s[l][k])[1]]
            terms += [(x * a * c, r) for l, x in jk if (r := s[l][i])[1]]
            terms += [(x * a * b, r) for l, x in ki if (r := s[l][j])[1]]
            if (r := sparse_lincomb(terms, a * b * c))[1]:
                raise JacobiViolation(i, j, k, _dense(r, n))

    @classmethod
    def abelian(cls, n):
        return cls(_Rows(((_ZERO_ROW,) * n,) * n))

    def _coords(self, x):
        """Scaled row of the coordinate vector x; ValueError unless it has
        length dim, TypeError if an entry is inexact."""
        return _checked_row(x, self.dim)

    def _sparse_bracket(self, xs, ys):
        """Scaled row of [x, y] for scaled rows xs and ys."""
        s = self._sparse
        (sx, px), (sy, py) = xs, ys
        return sparse_lincomb(((a * b, s[i][j]) for i, a in px for j, b in py), sx * sy)

    def bracket_with_basis(self, x, k):
        """[x, e_k] for a coordinate vector x."""
        k = range(self.dim)[k]
        return _dense(self._sparse_bracket(self._coords(x), (1, ((k, 1),))), self.dim)

    def bracket(self, x, y):
        """[x, y] by bilinear expansion of the structure constants."""
        return _dense(self._sparse_bracket(self._coords(x), self._coords(y)), self.dim)

    def ad_matrix(self, x):
        """Matrix of ad(x): y -> [x, y]."""
        xs = self._coords(x)
        cols = [self._sparse_bracket(xs, (1, ((j, 1),))) for j in range(self.dim)]
        return Matrix._from_sparse(cols, self.dim).transpose()

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self._sparse == other._sparse

    def __hash__(self):
        return hash(self._sparse)

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim})"


def center(algebra):
    """{x : [x, y] = 0 for all y}, as a Subspace."""
    if algebra.dim == 0:
        return Subspace.zero(0)
    return kernel_basis(_transpose_action(algebra))


def _transpose_action(algebra):
    # matrix sending x to the concatenation of [x, e_j] over j: the transpose
    # of the matrix whose row i holds [e_i, e_j] in columns j*n on
    n = algebra.dim
    return Matrix._from_sparse((_concat(r, n) for r in algebra._sparse), n * n).transpose()


class LieModule:
    """Representation of a LieAlgebra on Q^dim by matrices per basis element.

    Validates rho([e_i, e_j]) = rho(e_i) rho(e_j) - rho(e_j) rho(e_i) on all
    increasing pairs.
    """

    __slots__ = ("algebra", "dim", "action", "_cache")

    def __init__(self, algebra, dim, action):
        action = tuple(a if isinstance(a, Matrix) else Matrix(a) for a in action)
        if len(action) != algebra.dim:
            raise ValueError("one action matrix per algebra basis element required")
        for a in action:
            if a.nrows != dim or a.ncols != dim:
                raise ValueError("action matrices must be dim x dim")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_cache", {})
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("LieModule is immutable")

    def _validate(self):
        n, s = self.algebra.dim, self.algebra._sparse
        rho = [a.sparse_rows for a in self.action]
        for i in range(n):
            for j in range(i + 1, n):
                t, bracket = s[i][j]
                for r, ((si, ri), (sj, rj)) in enumerate(zip(rho[i], rho[j])):
                    # row r of rho([e_i, e_j]) - rho_i rho_j + rho_j rho_i,
                    # times t si sj for the scales t of the bracket and si, sj
                    # of row r of rho_i and rho_j
                    terms = [(c * si * sj, rho[l][r]) for l, c in bracket]
                    terms += [(-a * t * sj, rho[j][k]) for k, a in ri]
                    terms += [(a * t * si, rho[i][k]) for k, a in rj]
                    if sparse_lincomb(terms)[1]:
                        raise HomViolation(i, j)

    @classmethod
    def trivial(cls, algebra, dim):
        z = Matrix.zeros(dim, dim)
        return cls(algebra, dim, tuple(z for _ in range(algebra.dim)))

    def action_of(self, x):
        """Matrix of the action of the coordinate vector x."""
        s, pairs = _checked_row(x, self.algebra.dim)
        terms = [(c, self.action[l].sparse_rows) for l, c in pairs]
        rows = (sparse_lincomb(((c, a[r]) for c, a in terms), s) for r in range(self.dim))
        return Matrix._from_sparse(rows, self.dim)

    def act(self, x, v):
        """x . v for coordinate vectors."""
        xs, vs = _checked_row(x, self.algebra.dim), _checked_row(v, self.dim)
        return _dense(self._act_row(xs, vs), self.dim)

    def _action_columns(self):
        """Per l, {j: rho(e_l) e_j as a scaled row} over the nonzero columns
        of rho(e_l), built once per module."""
        table = self._cache.get("action_columns")
        if table is None:
            table = self._cache["action_columns"] = tuple(
                {j: c for j, c in enumerate(a.transpose().sparse_rows) if c[1]}
                for a in self.action
            )
        return table

    def _act_row(self, xs, vs):
        """Scaled row of x . v for scaled rows: one sum of the columns
        rho(e_l) e_j, weighted by x_l v_j."""
        table = self._action_columns()
        (sx, xs), (sv, vs) = xs, vs
        return sparse_lincomb(
            (
                (a * b, col)
                for l, a in xs
                if (cols := table[l])
                for j, b in vs
                if (col := cols.get(j))
            ),
            sx * sv,
        )

    def __eq__(self, other):
        return (
            isinstance(other, LieModule)
            and self.algebra == other.algebra
            and self.dim == other.dim
            and self.action == other.action
        )

    def __hash__(self):
        return hash((self.algebra, self.dim, self.action))

    def __repr__(self):
        return f"LieModule(dim {self.dim} over algebra of dim {self.algebra.dim})"


def adjoint_module(algebra):
    """The algebra acting on itself by ad."""
    mats = [algebra.ad_matrix(unit_vector(algebra.dim, i)) for i in range(algebra.dim)]
    return LieModule(algebra, algebra.dim, mats)


class AlgebraHom:
    """Linear map between Lie algebras, validated to preserve brackets."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        matrix = matrix if isinstance(matrix, Matrix) else Matrix(matrix)
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValueError("hom matrix must be target.dim x source.dim")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        cols = matrix.transpose().sparse_rows
        s, t = source._sparse, target._sparse
        for i in range(source.dim):
            sx, px = cols[i]
            for j in range(i + 1, source.dim):
                sy, py = cols[j]
                # M [e_i, e_j] - [M e_i, M e_j], times the scales of the
                # bracket and of columns i and j
                scale, pairs = s[i][j]
                terms = [(x * sx * sy, r) for l, x in pairs if (r := cols[l])[1]]
                terms += [(-a * b * scale, t[p][q]) for p, a in px for q, b in py]
                if terms and sparse_lincomb(terms)[1]:
                    raise BracketViolation(i, j)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraHom is immutable")

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, algebra, Matrix.identity(algebra.dim))

    def apply(self, x):
        return self.matrix.apply(x)

    def __repr__(self):
        return f"AlgebraHom({self.source.dim} -> {self.target.dim})"


def spanned_subalgebra(algebra, generators):
    """Present the span of the columns of `generators` as an algebra of its
    own, on those columns in their order.

    Returns (presentation, inclusion hom). Raises if the columns are linearly
    dependent or their span is not closed under the bracket. Brackets are
    solved for i < j only and [e_j, e_i] = -[e_i, e_j] fills in the rest, so
    the pair named is the first one, in row-major order, that leaves the span.
    """
    solver = LinearSolver(generators)
    if solver.kernel().dim:
        raise HamfluxError("subalgebra generators are linearly dependent")
    cols = generators.columns()
    k = len(cols)
    table = [[zero_vector(k)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            try:
                table[i][j] = solver.solve(algebra.bracket(cols[i], cols[j]))
            except Unsolvable:
                raise HamfluxError(
                    f"generators are not bracket-closed at pair ({i}, {j})"
                ) from None
            table[j][i] = vec_neg(table[i][j])
    sub = LieAlgebra(table)
    return sub, AlgebraHom(sub, algebra, generators)


def subalgebra(algebra, subspace):
    """Present a bracket-closed subspace as an algebra of its own, on its
    canonical basis; see spanned_subalgebra."""
    if subspace.ambient != algebra.dim:
        raise ValueError("ambient mismatch")
    return spanned_subalgebra(algebra, subspace.basis)

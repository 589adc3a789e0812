"""Exact linear algebra over the rationals.

Every sparse row, of a Matrix or of a LieAlgebra's structure constants, is
stored once, as a canonical scaled integer row (s, ((col, a), ...)): s >= 1,
each a a nonzero int, columns strictly increasing, gcd(s, a, ...) = 1, and
the entry at col is a / s; the zero row is (1, ()). Equal matrices therefore
have equal rows, and products, sums, applications, stacks and transposes are
integer arithmetic on the nonzeros.

Everything reduces to one elimination kernel in _backend, entered only
through _int_rref and fed the stored integers of each row. A reduced row is
primitive with a positive pivot, so (pivot, its nonzeros) is already a
canonical row. A LinearSolver reduces only a row basis of its matrix, found
by eliminating the transpose.
All derived objects are canonical so that equal subspaces compare equal and
repeated runs produce identical output:

- subspace bases are in reduced column echelon form (the transpose is the
  rational RREF of the spanning rows);
- particular solutions set every free variable to zero;
- quotient maps are built from the canonical annihilator basis.

Inside the library a vector is a scaled row too. A public method reads its
vectors once (_checked_row or a dense constructor), runs its row core and
makes Fractions once, on return (_dense); no library code reads dense views.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from hamflux._backend import rref_ints
from hamflux.errors import Unsolvable

_ZERO = Fraction(0)
_ZERO_ROW = (1, ())


def rat(x):
    """Coerce an int, string 'p/q' or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(q):
    """Serialize a Fraction as 'p/q', or 'p' when the denominator is 1."""
    return str(rat(q))


# -- vectors -------------------------------------------------------------------

def vector(xs):
    return tuple(rat(x) for x in xs)


# no library code calls dot; perfbench/tracer.py wraps it by this name
def dot(u, v):
    """Exact inner product; pairs with a zero factor are never multiplied."""
    return sum([a * b for a, b in zip(u, v, strict=True) if a and b], _ZERO)


# -- scaled rows ---------------------------------------------------------------

def _canon(scale, pairs):
    """Canonical row of a / scale over nonzero (column, a) pairs, in order."""
    if not pairs:
        return _ZERO_ROW
    if scale != 1:
        g = gcd(scale, *[a for _, a in pairs])
        if g != 1:
            return scale // g, tuple((j, a // g) for j, a in pairs)
    return scale, tuple(pairs)


def _gather(entries):
    """Canonical row of the entries a / s over (column, a, s) triples."""
    den = lcm(*[s for _, _, s in entries])
    return _canon(den, [(j, a * (den // s)) for j, a, s in entries])


def _sparse(vec):
    """Scaled row of a dense vector of Fractions or ints."""
    nz = [(j, x) for j, x in enumerate(vec) if x]
    if not nz:
        return _ZERO_ROW
    # every prime power of den divides some denominator exactly, so the
    # scaled numerators share no factor with den
    den = lcm(*[x.denominator for _, x in nz])
    if den == 1:
        return 1, tuple([(j, x.numerator) for j, x in nz])
    return den, tuple([(j, x.numerator * (den // x.denominator)) for j, x in nz])


def _checked_row(v, n):
    """Scaled row of v; ValueError unless len(v) == n, TypeError if inexact."""
    if len(v) != n:
        raise ValueError("vector length mismatch")
    return _sparse(vector(v))


def _dense(row, n):
    s, pairs = row
    out = [_ZERO] * n
    for j, a in pairs:
        out[j] = Fraction(a, s)
    return tuple(out)


def _entry(row, j):
    s, pairs = row
    k = bisect_left(pairs, (j,))  # (j,) sorts before (j, a)
    return Fraction(pairs[k][1], s) if k < len(pairs) and pairs[k][0] == j else _ZERO


def _neg(row):
    return row[0], tuple((j, -a) for j, a in row[1])


def _times(row, c):
    """Canonical row of the nonzero Fraction c times a scaled row."""
    s, pairs = row
    p, q = c.numerator, c.denominator
    return _canon(s * q, [(j, a * p) for j, a in pairs])


def _concat(rows, width):
    # `rows` side by side, row k from column k * width on
    return _gather([(k * width + j, a, s) for k, (s, p) in enumerate(rows) for j, a in p])


def sparse_lincomb(terms, scale=1):
    """Canonical row of (the sum of c * row over (c, row) pairs) / scale.

    The coefficients c and the positive scale are ints. Only stored entries
    are multiplied; callers drop zero coefficients where they are common.
    """
    acc, den = {}, 1  # the sum so far is acc / den
    for c, (s, pairs) in terms:
        if den % s:
            f = lcm(den, s) // den
            acc = {j: a * f for j, a in acc.items()}
            den *= f
        c *= den // s
        for j, a in pairs:
            acc[j] = acc[j] + c * a if j in acc else c * a
    if not acc:
        return _ZERO_ROW
    return _canon(scale * den, [(j, a) for j, a in sorted(acc.items()) if a])


# -- matrices ------------------------------------------------------------------

def _fill(m, rows, ncols):
    object.__setattr__(m, "sparse_rows", rows)
    object.__setattr__(m, "nrows", len(rows))
    object.__setattr__(m, "ncols", ncols)


class Matrix:
    """Immutable rational matrix stored as canonical scaled rows.

    sparse_rows[i] is row i as a scaled integer row (s, pairs), the entry at
    column j being a / s for (j, a) in pairs. Matrix(entries) coerces and
    checks dense input; Matrix._from_sparse takes rows the library built
    itself.
    """

    __slots__ = ("nrows", "ncols", "sparse_rows")

    def __init__(self, entries, ncols=None):
        rows = [tuple(rat(x) for x in row) for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        _fill(self, tuple(map(_sparse, rows)), ncols)

    @classmethod
    def _from_sparse(cls, rows, ncols):
        """Trusted constructor: `rows` must already be canonical scaled rows."""
        m = object.__new__(cls)
        _fill(m, tuple(rows), ncols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._from_sparse((_ZERO_ROW,) * nrows, ncols)

    @classmethod
    def identity(cls, n):
        return cls._from_sparse(((1, ((i, 1),)) for i in range(n)), n)

    @classmethod
    def from_columns(cls, columns, nrows=None):
        cols = [vector(c) for c in columns]
        if not cols:
            return cls.zeros(nrows or 0, 0)
        if nrows is not None and nrows != len(cols[0]):
            raise ValueError("nrows disagrees with column height")
        return cls._from_sparse(map(_sparse, zip(*cols, strict=True)), len(cols))

    @property
    def entries(self):
        """Dense rows of Fractions, derived from the scaled rows."""
        return tuple(_dense(r, self.ncols) for r in self.sparse_rows)

    def row(self, i):
        return _dense(self.sparse_rows[i], self.ncols)

    def column(self, j):
        j = range(self.ncols)[j]
        return tuple(_entry(r, j) for r in self.sparse_rows)

    def columns(self):
        return [_dense(c, self.nrows) for c in self.transpose().sparse_rows]

    def __getitem__(self, ij):
        i, j = ij
        return _entry(self.sparse_rows[i], range(self.ncols)[j])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash((self.sparse_rows, self.ncols))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.entries)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Matrix._from_sparse(
            (
                sparse_lincomb(((1, a), (sign, b)))
                for a, b in zip(self.sparse_rows, other.sparse_rows)
            ),
            self.ncols,
        )

    def __neg__(self):
        return Matrix._from_sparse(map(_neg, self.sparse_rows), self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            rows = other.sparse_rows
            return Matrix._from_sparse(
                (
                    sparse_lincomb(((a, rows[k]) for k, a in r), s)
                    for s, r in self.sparse_rows
                ),
                other.ncols,
            )
        c = rat(other)
        if not c:
            return Matrix.zeros(self.nrows, self.ncols)
        return Matrix._from_sparse((_times(r, c) for r in self.sparse_rows), self.ncols)

    def __rmul__(self, other):
        return self.__mul__(other)

    def apply(self, vec):
        """Matrix-vector product, returning a tuple of Fractions."""
        return _dense(self._apply_row(_checked_row(vec, self.ncols)), self.nrows)

    def _apply_row(self, row):
        """Scaled row of the product with the scaled row `row`, in integers."""
        den, nz = row
        ints = dict(nz)
        return _gather([
            (i, t, s * den)
            for i, (s, r) in enumerate(self.sparse_rows)
            if (t := sum([a * ints[j] for j, a in r if j in ints]))
        ])

    def transpose(self):
        cols = [[] for _ in range(self.ncols)]
        for i, (s, r) in enumerate(self.sparse_rows):
            for j, a in r:
                cols[j].append((i, a, s))
        return Matrix._from_sparse(map(_gather, cols), self.nrows)

    def is_zero(self):
        return not any(r for _, r in self.sparse_rows)

    def rank(self):
        _, pivots = _int_rref(self.sparse_rows, self.ncols)
        return len(pivots)

    def inverse(self):
        if self.nrows != self.ncols:
            raise Unsolvable("not square")
        solver = LinearSolver(self)
        n = self.nrows
        cols = [solver._solve_row((1, ((j, 1),))) for j in range(n)]
        return Matrix._from_sparse(cols, n).transpose()


def hstack(a, b):
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    return Matrix._from_sparse(
        (_concat(rows, a.ncols) for rows in zip(a.sparse_rows, b.sparse_rows)),
        a.ncols + b.ncols,
    )


def vstack(a, b):
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return Matrix._from_sparse(a.sparse_rows + b.sparse_rows, a.ncols)


# -- elimination ---------------------------------------------------------------

def _int_row(row, ncols):
    # the row's integers, dense; dropping the scale keeps its line
    out = [0] * ncols
    for j, a in row[1]:
        out[j] = a
    return out


def _int_rref(rows, ncols):
    """Canonical rows of the rational RREF of scaled rows, and pivot columns.

    Every elimination enters rref_ints here. Zero rows hold no pivot, so
    they are dropped before the rows are made dense.
    """
    reduced, pivots = rref_ints([_int_row(r, ncols) for r in rows if r[1]], ncols)
    return [
        (r[pc], tuple((j, a) for j, a in enumerate(r[pc:], pc) if a))
        for r, pc in zip(reduced, pivots)
    ], pivots


def _rref_in_order(rows, order):
    """_int_rref with the columns eliminated in `order`, a permutation of
    the column indices: the canonical reduced rows, each in the original
    columns, and the pivot of each as an original column."""
    at = {j: p for p, j in enumerate(order)}
    permuted = [(s, tuple(sorted((at[j], a) for j, a in p))) for s, p in rows]
    reduced, pivots = _int_rref(permuted, len(order))
    return [
        (s, tuple(sorted((order[p], a) for p, a in pairs))) for s, pairs in reduced
    ], [order[p] for p in pivots]


def rref(m):
    """Rational reduced row echelon form, same shape as the input."""
    rows, _ = _int_rref(m.sparse_rows, m.ncols)
    return Matrix._from_sparse(rows + [_ZERO_ROW] * (m.nrows - len(rows)), m.ncols)


def _kernel_vectors(rows, pivots, ncols):
    # one vector per free column f: 1 at f, and -row[f] / row[pc] at the
    # pivot column pc of each reduced row; in a reduced row every entry
    # after the pivot sits in a free column
    pivot_set = set(pivots)
    vecs = {f: [(f, 1, 1)] for f in range(ncols) if f not in pivot_set}
    for (_, pairs), pc in zip(rows, pivots):
        pv = pairs[0][1]
        for f, a in pairs[1:]:
            vecs[f].append((pc, -a, pv))
    return [_gather(sorted(v)) for v in vecs.values()]


def kernel_basis(m):
    """Canonical basis of {x : m x = 0} as a Subspace of the column space."""
    rows, pivots = _int_rref(m.sparse_rows, m.ncols)
    return Subspace._span(m.ncols, _kernel_vectors(rows, pivots, m.ncols))


class LinearSolver:
    """Stored factorization of a matrix for repeated exact solves.

    Reduces [A_S | I] once, S the row basis of A given by the pivot columns
    of RREF(A^T); RREF(A_S) = RREF(A), so pivots and kernel are those of A.
    Each solve is one sparse product: (row of R) = (row of T) . A_S, so each
    row divided by its pivot reads off the canonical (free variables zero)
    solution from b_S, and the residual check A x = b rejects b outside the
    image.
    """

    def __init__(self, m):
        self.matrix = m
        n = m.ncols
        _, basis = _int_rref(m.transpose().sparse_rows, m.nrows)
        # [s * row | s * e_i] for row basis[i] and its scale s; _int_rref
        # reads only the integers
        rows = [m.sparse_rows[k] for k in basis]
        aug = [(s, p + ((n + i, s),)) for i, (s, p) in enumerate(rows)]
        reduced, self._a_pivots = _int_rref(aug, n + len(basis))
        # each reduced row is over its pivot value: the A part is a row of
        # RREF(A), the T part a row of the transform on rows of A
        self._a_rows, transform = [], []
        for pv, pairs in reduced:
            cut = bisect_left(pairs, (n,))
            self._a_rows.append(_canon(pv, pairs[:cut]))
            transform.append(_canon(pv, [(basis[j - n], a) for j, a in pairs[cut:]]))
        self._transform = Matrix._from_sparse(transform, m.nrows)
        self._kernel = None

    def solve(self, b):
        if len(b) != self.matrix.nrows:
            raise ValueError("rhs length mismatch")
        return _dense(self._solve_row(_checked_row(b, self.matrix.nrows)), self.matrix.ncols)

    def _solve_row(self, b):
        """Scaled row of the canonical solution for the scaled row b."""
        s, y = self._transform._apply_row(b)
        # pivots increase, so the solution is canonical as it stands
        x = s, tuple((self._a_pivots[k], a) for k, a in y)
        # substitution replaces the consistency rows of the reduction
        if self.matrix._apply_row(x) != b:
            raise Unsolvable("rhs outside image")
        return x

    def kernel(self):
        if self._kernel is None:
            self._kernel = Subspace._span(
                self.matrix.ncols,
                _kernel_vectors(self._a_rows, self._a_pivots, self.matrix.ncols),
            )
        return self._kernel


# -- subspaces -----------------------------------------------------------------

class Subspace:
    """Linear subspace of Q^ambient with a canonical echelon basis.

    The basis matrix is ambient x dim, and its transpose is a rational RREF;
    two subspaces are equal iff their basis matrices are equal.
    """

    __slots__ = ("ambient", "basis", "_rows")

    def __init__(self, ambient, basis):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient, vectors):
        vectors = [vector(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length mismatch")
        return cls._span(ambient, [_sparse(v) for v in vectors])

    @classmethod
    def _span(cls, ambient, rows):
        """Span of scaled rows of length `ambient`."""
        if not rows:
            return cls.zero(ambient)
        rows, _ = _int_rref(rows, ambient)
        return cls._from_rref(ambient, rows)

    @classmethod
    def _from_rref(cls, ambient, rows):
        """Trusted constructor: `rows` must be the canonical rows of a
        rational RREF, the basis vectors in order."""
        sub = cls(ambient, Matrix._from_sparse(rows, ambient).transpose())
        object.__setattr__(sub, "_rows", tuple(rows))
        return sub

    @classmethod
    def from_columns(cls, m):
        return cls._span(m.nrows, m.transpose().sparse_rows)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, Matrix.zeros(ambient, 0))

    @classmethod
    def full(cls, ambient):
        return cls(ambient, Matrix.identity(ambient))

    @property
    def dim(self):
        return self.basis.ncols

    def _basis_rows(self):
        """The basis vectors as scaled rows: the rows of the RREF."""
        if self._rows is None:
            object.__setattr__(self, "_rows", self.basis.transpose().sparse_rows)
        return self._rows

    def _coords_row(self, row):
        """Scaled row of the coordinates of the scaled row `row`.

        Each basis row has a unit pivot, so coordinate k is the integer of
        `row` at pivot k over the scale of `row`; Unsolvable when recombining
        the basis does not give `row` back.
        """
        s, ints = row[0], dict(row[1])
        rows = self._basis_rows()
        # each basis row starts at its pivot
        coords = [(k, ints[r[0][0]]) for k, (_, r) in enumerate(rows) if r[0][0] in ints]
        if sparse_lincomb(((a, rows[k]) for k, a in coords), s) != row:
            raise Unsolvable("vector outside subspace")
        return _canon(s, coords)

    def coords_of(self, v):
        """Coordinates of v in the canonical basis; Unsolvable if v is outside."""
        return _dense(self._coords_row(_checked_row(v, self.ambient)), self.dim)

    def contains(self, v):
        return self._contains_row(_checked_row(v, self.ambient))

    def _contains_row(self, row):
        try:
            self._coords_row(row)
            return True
        except Unsolvable:
            return False

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"


def quotient_map(ambient, sub):
    """Canonical surjection q with kernel exactly `sub`.

    Rows are the canonical basis of the annihilator of `sub`, so q is
    (ambient - dim) x ambient and deterministic.
    """
    if sub.ambient != ambient:
        raise ValueError("ambient mismatch")
    ann = kernel_basis(sub.basis.transpose())
    return ann.basis.transpose()

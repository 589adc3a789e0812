"""Exact linear algebra over the rationals.

A Matrix is stored as sparse rows: row i is a tuple of (column, Fraction)
pairs with strictly increasing columns and no zero value. That form is
canonical, so equal matrices have equal rows, and products, applications,
stacks and transposes touch the nonzeros only. `entries`, `row`, `column`,
`columns` and `m[i, j]` are dense views derived from the sparse rows on each
call; no dense copy is kept.

Everything reduces to one elimination kernel, _backend.rref_ints: sparse
rows are scaled row-wise to dense integer rows, reduced by fraction-free
Gauss-Jordan, and normalized back to sparse rational rows. A LinearSolver
reduces only a row basis of its matrix, found by eliminating the transpose.
All derived objects are canonical so that equal subspaces compare equal and
repeated runs produce identical output:

- subspace bases are in reduced column echelon form (the transpose is the
  rational RREF of the spanning rows);
- particular solutions set every free variable to zero;
- quotient maps are built from the canonical annihilator basis.

Vectors are plain dense tuples of Fraction.
"""

from bisect import bisect_left
from fractions import Fraction
from math import lcm

from hamflux._backend import rref_ints
from hamflux.errors import Unsolvable

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x):
    """Coerce an int, string 'p/q' or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(q):
    """Serialize a Fraction as 'p/q', or 'p' when the denominator is 1."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# -- vectors -------------------------------------------------------------------

def vector(xs):
    return tuple(rat(x) for x in xs)


def zero_vector(n):
    return (_ZERO,) * n


def unit_vector(n, i):
    """The i-th standard basis vector of Q^n."""
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_neg(u):
    return tuple(-a for a in u)


def dot(u, v):
    """Exact inner product; pairs with a zero factor are never multiplied."""
    return sum([a * b for a, b in zip(u, v, strict=True) if a and b], _ZERO)


def lincomb(terms, n):
    """The length-n sum of c * v over (c, v) pairs, skipping zero factors."""
    acc = [_ZERO] * n
    for c, v in terms:
        if c:
            for i, x in zip(range(n), v, strict=True):
                if x:
                    acc[i] += c * x
    return tuple(acc)


# -- sparse rows ---------------------------------------------------------------

def _sparse(vec):
    """Sparse row of a dense vector of Fractions (or ints)."""
    return tuple((j, x) for j, x in enumerate(vec) if x)


def _dense(row, n):
    out = [_ZERO] * n
    for j, x in row:
        out[j] = x
    return tuple(out)


def _entry(row, j):
    k = bisect_left(row, (j,))  # (j,) sorts before (j, x)
    return row[k][1] if k < len(row) and row[k][0] == j else _ZERO


def sparse_lincomb(terms):
    """Sparse row of the sum of c * row over (c, sparse row) pairs.

    Only stored entries are multiplied; callers drop zero coefficients where
    they are common. Entries that cancel are left out of the result.
    """
    acc = {}
    for c, row in terms:
        for j, x in row:
            acc[j] = acc[j] + c * x if j in acc else c * x
    return tuple((j, x) for j, x in sorted(acc.items()) if x)


# -- matrices ------------------------------------------------------------------

def _fill(m, rows, ncols):
    object.__setattr__(m, "sparse_rows", rows)
    object.__setattr__(m, "nrows", len(rows))
    object.__setattr__(m, "ncols", ncols)
    object.__setattr__(m, "_scaled_rows", None)


class Matrix:
    """Immutable rational matrix stored as canonical sparse rows.

    sparse_rows[i] holds the nonzeros of row i as (column, Fraction) pairs
    with strictly increasing columns. Matrix(entries) coerces and checks
    dense input; Matrix._from_sparse takes rows the library built itself.
    """

    __slots__ = ("nrows", "ncols", "sparse_rows", "_scaled_rows")

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
        _fill(self, tuple(_sparse(r) for r in rows), ncols)

    @classmethod
    def _from_sparse(cls, rows, ncols):
        """Trusted constructor: `rows` must already be canonical sparse rows."""
        m = object.__new__(cls)
        _fill(m, tuple(rows), ncols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._from_sparse(((),) * nrows, ncols)

    @classmethod
    def identity(cls, n):
        return cls._from_sparse((((i, _ONE),) for i in range(n)), n)

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
        """Dense rows, derived from the sparse rows."""
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
        return self._combine(other, _ONE)

    def __sub__(self, other):
        return self._combine(other, -_ONE)

    def _combine(self, other, sign):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Matrix._from_sparse(
            (
                sparse_lincomb(((_ONE, a), (sign, b)))
                for a, b in zip(self.sparse_rows, other.sparse_rows)
            ),
            self.ncols,
        )

    def __neg__(self):
        return Matrix._from_sparse(
            (tuple((j, -x) for j, x in r) for r in self.sparse_rows), self.ncols
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            rows = other.sparse_rows
            return Matrix._from_sparse(
                (sparse_lincomb((x, rows[k]) for k, x in r) for r in self.sparse_rows),
                other.ncols,
            )
        c = rat(other)
        if not c:
            return Matrix.zeros(self.nrows, self.ncols)
        return Matrix._from_sparse(
            (tuple((j, c * x) for j, x in r) for r in self.sparse_rows), self.ncols
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def apply(self, vec):
        """Matrix-vector product, returning a tuple.

        Each row and the vector are scaled to integers, so a row costs
        integer products and one Fraction, not a Fraction product per term.
        """
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        nz = [(j, x) for j, x in enumerate(vec) if x]
        if not nz:
            return zero_vector(self.nrows)
        den = lcm(*[x.denominator for _, x in nz])
        ints = {j: x.numerator * (den // x.denominator) for j, x in nz}
        if self._scaled_rows is None:
            object.__setattr__(
                self,
                "_scaled_rows",
                tuple(map(_scaled_row, self.sparse_rows)),
            )
        out = []
        for scale, r in self._scaled_rows:
            t = sum([a * ints[j] for j, a in r if j in ints])
            out.append(Fraction(t, scale * den) if t else _ZERO)
        return tuple(out)

    def transpose(self):
        cols = [[] for _ in range(self.ncols)]
        for i, r in enumerate(self.sparse_rows):
            for j, x in r:
                cols[j].append((i, x))
        return Matrix._from_sparse(map(tuple, cols), self.nrows)

    def is_zero(self):
        return not any(self.sparse_rows)

    def rank(self):
        _, pivots = _int_rref(self.sparse_rows, self.ncols)
        return len(pivots)

    def inverse(self):
        if self.nrows != self.ncols:
            raise Unsolvable("not square")
        solver = LinearSolver(self)
        n = self.nrows
        cols = [solver.solve(unit_vector(n, j)) for j in range(n)]
        return Matrix.from_columns(cols, n)


def hstack(a, b):
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    shift = a.ncols
    return Matrix._from_sparse(
        (
            ra + tuple((j + shift, x) for j, x in rb)
            for ra, rb in zip(a.sparse_rows, b.sparse_rows)
        ),
        a.ncols + b.ncols,
    )


def vstack(a, b):
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return Matrix._from_sparse(a.sparse_rows + b.sparse_rows, a.ncols)


# -- elimination ---------------------------------------------------------------

def _row_scale(row):
    return lcm(*[x.denominator for _, x in row])


def _scaled_row(row):
    # (s, integer pairs) with the sparse row equal to the pairs divided by s
    scale = _row_scale(row)
    return scale, tuple((j, x.numerator * (scale // x.denominator)) for j, x in row)


def _int_row(row, ncols):
    # clear denominators; preserves the row's line through the origin
    scale = _row_scale(row)
    out = [0] * ncols
    for j, x in row:
        out[j] = x.numerator * (scale // x.denominator)
    return out


def _int_rref(rows, ncols):
    """Sparse reduced integer rows and pivot columns of sparse rational rows.

    Every elimination enters rref_ints here or in LinearSolver. Each reduced
    row starts at its pivot.
    """
    reduced, pivots = rref_ints([_int_row(r, ncols) for r in rows], ncols)
    return [_sparse(r) for r in reduced], pivots


def _fraction_rows(int_rows):
    # divide each reduced row by its pivot, its first entry
    out = []
    for row in int_rows:
        inv = Fraction(1, row[0][1])
        out.append(tuple((j, x * inv) for j, x in row))
    return tuple(out)


def rref(m):
    """Rational reduced row echelon form, same shape as the input."""
    int_rows, _ = _int_rref(m.sparse_rows, m.ncols)
    rows = _fraction_rows(int_rows)
    return Matrix._from_sparse(rows + ((),) * (m.nrows - len(rows)), m.ncols)


def rank(m):
    return m.rank()


def _kernel_vectors(int_rows, pivots, ncols):
    # one sparse vector per free column f: 1 at f, and -row[f] / row[pc] at
    # the pivot column pc of each reduced row; in a reduced row every entry
    # after the pivot sits in a free column
    pivot_set = set(pivots)
    vecs = {f: {f: _ONE} for f in range(ncols) if f not in pivot_set}
    for row, pc in zip(int_rows, pivots):
        pv = row[0][1]
        for f, x in row[1:]:
            vecs[f][pc] = Fraction(-x, pv)
    return [tuple(sorted(v.items())) for v in vecs.values()]


def kernel_basis(m):
    """Canonical basis of {x : m x = 0} as a Subspace of the column space."""
    int_rows, pivots = _int_rref(m.sparse_rows, m.ncols)
    return Subspace._span(m.ncols, _kernel_vectors(int_rows, pivots, m.ncols))


def solve_affine(m, b):
    """Solve m x = b exactly.

    Returns (particular, kernel) where the particular solution has every free
    variable equal to zero. Raises Unsolvable when b is outside the image.
    """
    solver = LinearSolver(m)
    return solver.solve(b), solver.kernel()


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
        rows = []
        for i, k in enumerate(basis):
            row = m.sparse_rows[k]
            aug = _int_row(row, n + len(basis))
            # the row scaling multiplies the identity part too
            aug[n + i] = _row_scale(row)
            rows.append(aug)
        reduced, self._a_pivots = rref_ints(rows, n + len(basis))
        self._a_rows = []  # sparse A part of each reduced row
        transform = []  # its T part divided by the pivot value, on rows of A
        for row, pc in zip(reduced, self._a_pivots):
            pv = row[pc]
            self._a_rows.append(_sparse(row[:n]))
            transform.append(
                tuple((basis[j], Fraction(x, pv)) for j, x in enumerate(row[n:]) if x)
            )
        self._transform = Matrix._from_sparse(transform, m.nrows)
        self._kernel = None

    def solve(self, b):
        if len(b) != self.matrix.nrows:
            raise ValueError("rhs length mismatch")
        b = vector(b)
        x = [_ZERO] * self.matrix.ncols
        for pc, y in zip(self._a_pivots, self._transform.apply(b)):
            x[pc] = y
        x = tuple(x)
        # substitution replaces the consistency rows of the reduction
        if self.matrix.apply(x) != b:
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

    __slots__ = ("ambient", "basis", "_pivots")

    def __init__(self, ambient, basis):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_pivots", None)

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
        """Span of sparse rows of length `ambient`."""
        if not rows:
            return cls.zero(ambient)
        int_rows, _ = _int_rref(rows, ambient)
        rref_rows = Matrix._from_sparse(_fraction_rows(int_rows), ambient)
        return cls(ambient, rref_rows.transpose())

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

    def basis_vectors(self):
        return self.basis.columns()

    def _pivot_rows(self):
        if self._pivots is None:
            # each basis column starts at its pivot
            piv = tuple(c[0][0] for c in self.basis.transpose().sparse_rows)
            object.__setattr__(self, "_pivots", piv)
        return self._pivots

    def coords_of(self, v):
        """Coordinates of v in the canonical basis; Unsolvable if v is outside."""
        if len(v) != self.ambient:
            raise ValueError("vector length mismatch")
        v = vector(v)
        # the echelon basis has unit pivots, so coordinates are plain reads;
        # the residual check catches vectors outside the span
        coords = tuple(v[p] for p in self._pivot_rows())
        if self.basis.apply(coords) != v:
            raise Unsolvable("vector outside subspace")
        return coords

    def contains(self, v):
        try:
            self.coords_of(v)
            return True
        except Unsolvable:
            return False

    def contains_subspace(self, other):
        return all(self.contains(c) for c in other.basis.columns())

    def sum_with(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace._span(
            self.ambient,
            self.basis.transpose().sparse_rows + other.basis.transpose().sparse_rows,
        )

    def intersect(self, other):
        return intersect(self, other)

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


def intersect(a, b):
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient)
    stacked = hstack(a.basis, -b.basis)
    pairs = kernel_basis(stacked)
    # the a-coordinates of each kernel vector are its first a.dim entries
    top = Matrix._from_sparse(pairs.basis.sparse_rows[: a.dim], pairs.dim)
    return Subspace.from_columns(a.basis * top)

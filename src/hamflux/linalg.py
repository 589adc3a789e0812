"""Exact linear algebra over the rationals.

Everything reduces to one elimination kernel, _backend.rref_ints: matrices
are scaled row-wise to integers, reduced by fraction-free Gauss-Jordan, and
normalized back. All derived objects are canonical so that equal subspaces
compare equal and repeated runs produce identical output:

- subspace bases are in reduced column echelon form (the transpose is the
  rational RREF of the spanning rows);
- particular solutions set every free variable to zero;
- quotient maps are built from the canonical annihilator basis.

Vectors are plain tuples of Fraction.
"""

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


def is_zero_vector(u):
    return all(a == 0 for a in u)


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


# -- matrices ------------------------------------------------------------------

class Matrix:
    """Immutable rational matrix; rows stored as tuples of Fraction."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, entries, ncols=None):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls((zero_vector(ncols),) * nrows, ncols)

    @classmethod
    def identity(cls, n):
        return cls(tuple(unit_vector(n, i) for i in range(n)), n)

    @classmethod
    def from_columns(cls, columns, nrows=None):
        cols = [vector(c) for c in columns]
        if not cols:
            return cls.zeros(nrows or 0, 0)
        if nrows is not None and nrows != len(cols[0]):
            raise ValueError("nrows disagrees with column height")
        return cls(tuple(zip(*cols, strict=True)), len(cols))

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.entries, self.ncols))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.entries)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(
            tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)), self.ncols
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(
            tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries)), self.ncols
        )

    def __neg__(self):
        return Matrix(tuple(vec_neg(r) for r in self.entries), self.ncols)

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            rows = other.entries
            return Matrix(
                tuple(lincomb(zip(row, rows), other.ncols) for row in self.entries),
                other.ncols,
            )
        c = rat(other)
        return Matrix(tuple(vec_scale(c, r) for r in self.entries), self.ncols)

    def __rmul__(self, other):
        return self.__mul__(other)

    def apply(self, vec):
        """Matrix-vector product, returning a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(dot(row, vec) for row in self.entries)

    def transpose(self):
        return Matrix(
            tuple(self.column(j) for j in range(self.ncols)) if self.ncols else (),
            self.nrows,
        )

    def is_zero(self):
        return all(is_zero_vector(r) for r in self.entries)

    def rank(self):
        _, pivots = _int_rref(self)
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
    return Matrix(
        tuple(ra + rb for ra, rb in zip(a.entries, b.entries)), a.ncols + b.ncols
    )


def vstack(a, b):
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return Matrix(a.entries + b.entries, a.ncols)


# -- elimination ---------------------------------------------------------------

def _row_scale(row):
    return lcm(*[x.denominator for x in row])


def _int_row(row):
    # clear denominators; preserves the row's line through the origin
    scale = _row_scale(row)
    return [x.numerator * (scale // x.denominator) for x in row]


def _int_rref(m):
    """Reduced integer rows and pivot columns of a Matrix (kernel entry point)."""
    rows = [_int_row(r) for r in m.entries]
    return rref_ints(rows, m.ncols)


def _fraction_rows(int_rows, pivots):
    out = []
    for row, pc in zip(int_rows, pivots):
        inv = Fraction(1, row[pc])
        out.append(tuple(x * inv for x in row))
    return out


def rref(m):
    """Rational reduced row echelon form, same shape as the input."""
    int_rows, pivots = _int_rref(m)
    rows = _fraction_rows(int_rows, pivots)
    rows.extend([zero_vector(m.ncols)] * (m.nrows - len(rows)))
    return Matrix(rows, m.ncols)


def rank(m):
    return m.rank()


def _kernel_vectors(int_rows, pivots, ncols):
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    vecs = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = _ONE
        for row, pc in zip(int_rows, pivots):
            if row[f]:
                v[pc] = Fraction(-row[f], row[pc])
        vecs.append(tuple(v))
    return vecs


def kernel_basis(m):
    """Canonical basis of {x : m x = 0} as a Subspace of the column space."""
    int_rows, pivots = _int_rref(m)
    return Subspace.from_vectors(m.ncols, _kernel_vectors(int_rows, pivots, m.ncols))


def solve_affine(m, b):
    """Solve m x = b exactly.

    Returns (particular, kernel) where the particular solution has every free
    variable equal to zero. Raises Unsolvable when b is outside the image.
    """
    solver = LinearSolver(m)
    return solver.solve(b), solver.kernel()


class LinearSolver:
    """Stored factorization of a matrix for repeated exact solves.

    Reduces [A | I] once; each solve is a pass over the recorded rows. The
    transform part T satisfies (row of R) = (row of T) . A throughout, so rows
    whose R-part vanished give the consistency conditions T_r . b = 0 and the
    others read off the canonical (free variables zero) solution.
    """

    def __init__(self, m):
        self.matrix = m
        n = m.ncols
        rows = []
        for i, row in enumerate(m.entries):
            aug = _int_row(row) + [0] * m.nrows
            # the row scaling multiplies the identity part too
            aug[n + i] = _row_scale(row)
            rows.append(aug)
        reduced, pivots = rref_ints(rows, n + m.nrows)
        self._solution_rows = []  # (pivot col in A, pivot value, T part)
        self._a_pivots = []
        self._a_rows = []
        for row, pc in zip(reduced, pivots):
            if pc < n:
                self._solution_rows.append((pc, row[pc], row[n:]))
                self._a_pivots.append(pc)
                self._a_rows.append(row[:n])
        self._kernel = None

    def solve(self, b):
        if len(b) != self.matrix.nrows:
            raise ValueError("rhs length mismatch")
        b = vector(b)
        x = [_ZERO] * self.matrix.ncols
        for pc, pv, t in self._solution_rows:
            x[pc] = dot(t, b) / pv
        x = tuple(x)
        # substitution replaces the consistency rows of the reduction
        if self.matrix.apply(x) != b:
            raise Unsolvable("rhs outside image")
        return x

    def kernel(self):
        if self._kernel is None:
            self._kernel = Subspace.from_vectors(
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
        if not vectors:
            return cls(ambient, Matrix.zeros(ambient, 0))
        int_rows, pivots = rref_ints([_int_row(v) for v in vectors], ambient)
        rows = _fraction_rows(int_rows, pivots)
        return cls(ambient, Matrix(rows, ambient).transpose() if rows else Matrix.zeros(ambient, 0))

    @classmethod
    def from_columns(cls, m):
        return cls.from_vectors(m.nrows, m.columns())

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
            ent = self.basis.entries
            piv = []
            for j in range(self.basis.ncols):
                piv.append(next(i for i in range(self.ambient) if ent[i][j]))
            object.__setattr__(self, "_pivots", tuple(piv))
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
        return Subspace.from_vectors(
            self.ambient, self.basis.columns() + other.basis.columns()
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
    vecs = [a.basis.apply(p[: a.dim]) for p in pairs.basis.columns()]
    return Subspace.from_vectors(a.ambient, vecs)

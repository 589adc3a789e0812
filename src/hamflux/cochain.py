"""Alternating cochains on a Lie algebra with module coefficients.

Degrees 0..3 are stored, each cochain as one canonical scaled integer row
over its coordinates on strictly increasing index tuples; the differential
is implemented for degrees 0..2 via the usual alternating sum

    (d v)(x)        = x . v
    (d a)(x, y)     = x . a(y) - y . a(x) - a([x, y])
    (d w)(x, y, z)  = x.w(y,z) - y.w(x,z) + z.w(x,y)
                      - w([x,y], z) + w([x,z], y) - w([y,z], x)

written as one kernel that scatters column (t, b) of d_p, for an increasing
tuple t and a module component b: through the action onto the tuples that
add one index to t, and through the brackets onto the tuples they reach.
d c sums the columns of the nonzeros of c, each term over the scale of the
action or structure constant it carries, and applies the scale of c once.
differential_matrix scatters every column into a matrix, cached per module,
for the complexes whose kernels and images are eliminated. Contraction and
the Lie derivative follow the standard conventions (i_xi c)(...) =
c(xi, ...) and (L_xi c)(y_1..y_p) = xi.c(y_1..y_p) - sum_i c(y_1, ..,
[xi, y_i], .., y_p).
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from math import lcm

from hamflux.errors import DegreeZero, UnsupportedDegree
from hamflux.linalg import (
    _ZERO_ROW,
    Matrix,
    Subspace,
    _canon,
    _dense,
    _neg,
    _sparse,
    _times,
    kernel_basis,
    quotient_map,
    rat,
    sparse_lincomb,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)

MAX_DEGREE = 3


@lru_cache(maxsize=None)
def tuple_basis(n, p):
    """Strictly increasing p-tuples in lex order, with an index lookup."""
    tuples = tuple(combinations(range(n), p))
    return tuples, {t: i for i, t in enumerate(tuples)}


def sort_with_sign(idx):
    """(sign, sorted tuple), or (0, None) when an index repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, None
    return sign, tuple(idx)


def cochain_dim(module, p):
    tuples, _ = tuple_basis(module.algebra.dim, p)
    return len(tuples) * module.dim


def _checked_degree(degree):
    if not 0 <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree {degree} outside 0..{MAX_DEGREE}")
    return degree


class Cochain:
    """Alternating p-cochain stored as one canonical scaled integer row.

    sparse_row is (s, ((q, a), ...)) in the form of Matrix.sparse_rows over
    the C(n, p) * module.dim coordinates: coordinate k * module.dim + r is
    component r of the value on the k-th increasing p-tuple. Cochain(module,
    degree, coords) coerces and checks dense input; Cochain._from_row takes
    a row the library built itself. coords is the dense Fraction view,
    derived on each access like Matrix.entries.
    """

    __slots__ = ("module", "degree", "sparse_row")

    def __init__(self, module, degree, coords):
        _checked_degree(degree)
        coords = vector(coords)
        if len(coords) != cochain_dim(module, degree):
            raise ValueError("coordinate length mismatch")
        _fill(self, module, degree, _sparse(coords))

    @classmethod
    def _from_row(cls, module, degree, row):
        """Trusted constructor: `row` must be a canonical scaled row of the
        right length and degree within 0..MAX_DEGREE."""
        c = object.__new__(cls)
        _fill(c, module, degree, row)
        return c

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @property
    def coords(self):
        """Dense coordinates of Fractions, derived from the stored row."""
        return _dense(self.sparse_row, cochain_dim(self.module, self.degree))

    @classmethod
    def zero(cls, module, degree):
        return cls._from_row(module, _checked_degree(degree), _ZERO_ROW)

    @classmethod
    def from_values(cls, module, degree, fn):
        """Build from a callable on increasing tuples."""
        tuples, _ = tuple_basis(module.algebra.dim, degree)
        coords = []
        for t in tuples:
            coords.extend(vector(fn(*t)))
        return cls(module, degree, coords)

    @classmethod
    def from_dict(cls, module, degree, entries):
        """Build from {index tuple: value vector}; tuples may be unordered.

        Every key must have `degree` indices and every value module.dim
        entries."""
        m = module.dim
        _, index = tuple_basis(module.algebra.dim, degree)
        terms = []
        for t, val in entries.items():
            if len(t) != degree:
                raise ValueError(f"index tuple {t} does not have {degree} indices")
            val = vector(val)
            if len(val) != m:
                raise ValueError(f"value at {t} does not have {m} entries")
            sign, key = sort_with_sign(t)
            if sign == 0:
                if any(val):
                    raise ValueError(f"repeated indices {t} with nonzero value")
                continue
            s, pairs = _sparse(val)
            base = index[key] * m
            terms.append((sign, (s, tuple((base + j, a) for j, a in pairs))))
        return cls._from_row(module, _checked_degree(degree), sparse_lincomb(terms))

    def _value_row(self, k):
        """Scaled row of the value on the k-th increasing tuple."""
        m = self.module.dim
        s, pairs = self.sparse_row
        lo = bisect_left(pairs, (k * m,))
        hi = bisect_left(pairs, ((k + 1) * m,), lo)
        return _canon(s, [(q - k * m, a) for q, a in pairs[lo:hi]])

    def value(self, *idx):
        """Value on basis elements, any index order; zero on repeats."""
        if len(idx) != self.degree:
            raise ValueError("wrong number of indices")
        n = self.module.algebra.dim
        if not all(0 <= i < n for i in idx):
            raise ValueError(f"basis index outside 0..{n - 1}")
        sign, key = sort_with_sign(idx)
        if sign == 0:
            return zero_vector(self.module.dim)
        _, index = tuple_basis(n, self.degree)
        row = self._value_row(index[key])
        return _dense(row if sign == 1 else _neg(row), self.module.dim)

    def is_zero(self):
        return not self.sparse_row[1]

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        self._compatible(other)
        row = sparse_lincomb(((1, self.sparse_row), (sign, other.sparse_row)))
        return Cochain._from_row(self.module, self.degree, row)

    def __neg__(self):
        return Cochain._from_row(self.module, self.degree, _neg(self.sparse_row))

    def __rmul__(self, c):
        c = rat(c)
        row = _times(self.sparse_row, c) if c else _ZERO_ROW
        return Cochain._from_row(self.module, self.degree, row)

    def _compatible(self, other):
        if self.module is not other.module and self.module != other.module:
            raise ValueError("cochains over different modules")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.sparse_row == other.sparse_row
            and self.module == other.module
        )

    def __hash__(self):
        return hash((self.degree, self.sparse_row))

    def __repr__(self):
        return f"Cochain(degree {self.degree}, {cochain_dim(self.module, self.degree)} coords)"


def _fill(c, module, degree, row):
    object.__setattr__(c, "module", module)
    object.__setattr__(c, "degree", degree)
    object.__setattr__(c, "sparse_row", row)


@lru_cache(maxsize=None)
def _faces(n, p):
    """Per increasing p-tuple t, ((t_r, (-1)^r, k), ...) over its positions
    r, t without t_r being the k-th increasing (p - 1)-tuple."""
    tuples, _ = tuple_basis(n, p)
    _, index = tuple_basis(n, max(p - 1, 0))  # read only when t has a face
    return tuple(
        tuple((x, -1 if r % 2 else 1, index[t[:r] + t[r + 1 :]]) for r, x in enumerate(t))
        for t in tuples
    )


@lru_cache(maxsize=None)
def _cofaces(n, p):
    """Per increasing p-tuple t, {x: ((-1)^i, k)} over the x not in t, t with
    x inserted at position i being the k-th increasing (p + 1)-tuple."""
    tuples, _ = tuple_basis(n, p)
    _, index = tuple_basis(n, p + 1)
    out = []
    for t in tuples:
        cofaces, i = {}, 0  # i entries of t are below x
        for x in range(n):
            if i < p and t[i] == x:
                i += 1
            else:
                cofaces[x] = (-1 if i % 2 else 1, index[t[:i] + (x,) + t[i:]])
        out.append(cofaces)
    return tuple(out)


def _bracket_terms(module, p):
    """Per increasing p-tuple t, the terms (k, c, s) of d_p that come from
    brackets: column (t, b) has c / s at component b of the k-th increasing
    (p + 1)-tuple u. They depend on the algebra alone and are cached per
    module and degree.

    With t = z inserted into rest at position r, and u = x < y inserted into
    rest at positions i < j, c / s is (-1)^(i + j + r) times the z-component
    of [e_x, e_y]: the term c([u_i, u_j], rest) of (d c)(u) reads c(e_z, rest)
    = (-1)^r c(t).
    """
    key = ("dbrackets", p)
    cache = module._cache
    if key not in cache:
        alg = module.algebra
        n = alg.dim
        # (x, y, c, s) for x < y, listed under each z with [e_x, e_y]_z = c / s
        along = [[] for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                s, pairs = alg._sparse[x][y]
                for z, c in pairs:
                    along[z].append((x, y, c, s))
        lower = _cofaces(n, p - 1) if p else ()
        upper = _cofaces(n, p)
        table = []
        for faces in _faces(n, p):
            terms = []
            for z, sign, rest in faces:
                below = lower[rest]
                for x, y, c, s in along[z]:
                    if x in below:
                        sx, k = below[x]
                        above = upper[k]
                        if y in above:
                            sy, u = above[y]
                            terms.append((u, sign * sx * sy * c, s))
            table.append(tuple(terms))
        cache[key] = tuple(table)
    return cache[key]


def _scatter(module, p, pairs):
    """(terms, den) for the columns of d_p weighted by the (q, a) in pairs:
    a term (q, r, x, s) adds x / s, from a times column q = (tuple t,
    component b), at coordinate r of C^(p+1), and den is the lcm of the
    scales s of the terms. Each s is the scale of the action or structure
    constant that the term carries.

        (d c)(u) = sum_i (-1)^i u_i . c(u without u_i)
                 + sum_{i<j} (-1)^(i+j) c([u_i, u_j], u without u_i, u_j)
    """
    n, m = module.algebra.dim, module.dim
    cofaces, brackets = _cofaces(n, p), _bracket_terms(module, p)
    columns = module._action_columns()
    terms = []
    add = terms.append
    for q, a in pairs:
        k, b = divmod(q, m)
        # (-1)^i rho(e_x) e_b on the block of t with x inserted at position i
        for x, (sign, u) in cofaces[k].items():
            col = columns[x].get(b)
            if col:
                s, entries = col
                base, w = u * m, sign * a
                for j, v in entries:
                    add((q, base + j, w * v, s))
        # a multiple of e_b on the block of u, per bracket term
        for u, c, s in brackets[k]:
            add((q, u * m + b, c * a, s))
    return terms, lcm(*{t[3] for t in terms})


def _differential_row(module, p, row):
    """Scaled row of d_p applied to the p-cochain of the scaled row `row`:
    the columns of its nonzeros, summed over the lcm of their own scales,
    with the scale of `row` applied once."""
    terms, den = _scatter(module, p, row[1])
    acc = {}
    for _, r, x, s in terms:
        acc[r] = acc.get(r, 0) + x * (den // s)
    return _canon(row[0] * den, [(r, x) for r, x in sorted(acc.items()) if x])


def differential_matrix(module, p):
    """Matrix of d: C^p -> C^(p+1) in tuple coordinates (cached per module),
    for the complexes that are eliminated; `differential` applies d to one
    cochain without it."""
    if not 0 <= p <= MAX_DEGREE - 1:
        raise UnsupportedDegree(f"differential undefined in degree {p}")
    cache = module._cache
    key = ("dmat", p)
    if key not in cache:
        ncols = cochain_dim(module, p)
        terms, den = _scatter(module, p, [(q, 1) for q in range(ncols)])
        # the terms come in increasing q, so each row's dict is in column order
        rows = [{} for _ in range(cochain_dim(module, p + 1))]
        for q, r, x, s in terms:
            row = rows[r]
            row[q] = row.get(q, 0) + x * (den // s)
        cache[key] = Matrix._from_sparse(
            [_canon(den, [(q, x) for q, x in row.items() if x]) for row in rows], ncols
        )
    return cache[key]


def differential(c):
    """d c as a Cochain one degree up."""
    if c.degree >= MAX_DEGREE:
        raise UnsupportedDegree(f"cannot differentiate degree {c.degree}")
    return Cochain._from_row(
        c.module, c.degree + 1, _differential_row(c.module, c.degree, c.sparse_row)
    )


def contract(xi, c):
    """i_xi c: plug the coordinate vector xi into the first slot."""
    if c.degree == 0:
        raise DegreeZero("cannot contract a degree-0 cochain")
    xi = vector(xi)
    n = c.module.algebra.dim
    if len(xi) != n:
        raise ValueError(f"xi must have {n} entries")
    sx, xs = _sparse(xi)
    ints, acc = dict(xs), {}
    for q, i, x in _contraction_terms(c):
        if i in ints:
            acc[q] = acc.get(q, 0) + x * ints[i]
    row = _canon(c.sparse_row[0] * sx, [(q, a) for q, a in sorted(acc.items()) if a])
    return Cochain._from_row(c.module, c.degree - 1, row)


def _contraction_terms(c):
    """(coordinate q of C^(p-1), index i, integer x) for each term of the
    contractions i_{e_i} c, over the scale of c: c(e_i, s)_a = (-1)^k c(t)_a,
    t the increasing tuple with t_k = i and s the rest of t."""
    m = c.module.dim
    faces = _faces(c.module.algebra.dim, c.degree)
    for q, x in c.sparse_row[1]:
        pos, a = divmod(q, m)
        for i, sign, rest in faces[pos]:
            yield rest * m + a, i, sign * x


def contraction_matrix(c):
    """Columns i_{e_i} c for degree >= 1, read off the stored row."""
    rows = [[] for _ in range(cochain_dim(c.module, c.degree - 1))]
    for q, i, x in _contraction_terms(c):
        rows[q].append((i, x))
    s = c.sparse_row[0]
    return Matrix._from_sparse((_canon(s, sorted(r)) for r in rows), c.module.algebra.dim)


def lie_derivative(xi, c):
    """L_xi c = xi . c(...) minus the sum over slots of c(..., [xi, slot], ...)."""
    xi = vector(xi)
    mod = c.module
    alg = mod.algebra
    if c.degree == 0:
        return Cochain(mod, 0, mod.act(xi, c.coords))

    def term(*t):
        # [xi, e_{t_pos}] = sum_k w e_k replaces slot pos with weight -w
        out = mod.act(xi, c.value(*t))
        for pos in range(len(t)):
            for k, w in enumerate(alg.bracket_with_basis(xi, t[pos])):
                if w:
                    out = vec_sub(out, vec_scale(w, c.value(*t[:pos], k, *t[pos + 1 :])))
        return out

    return Cochain.from_values(mod, c.degree, term)


class CohomologySpace:
    """Z^p, B^p and the induced quotient coordinates for one degree."""

    def __init__(self, module, degree):
        if not 0 <= degree <= 2:
            raise UnsupportedDegree(f"cohomology implemented for degrees 0..2, not {degree}")
        self.module = module
        self.degree = degree
        self.cocycles = kernel_basis(differential_matrix(module, degree))
        if degree == 0:
            self.coboundaries = Subspace.zero(cochain_dim(module, 0))
        else:
            self.coboundaries = Subspace.from_columns(
                differential_matrix(module, degree - 1)
            )
        coords_in_z = [
            self.cocycles.coords_of(b) for b in self.coboundaries.basis.columns()
        ]
        self._b_in_z = Subspace.from_vectors(self.cocycles.dim, coords_in_z)
        self._quot = quotient_map(self.cocycles.dim, self._b_in_z)

    @property
    def dim(self):
        return self.cocycles.dim - self.coboundaries.dim

    def class_of(self, c):
        """Coordinates of [c] in the canonical basis of Z^p / B^p.

        Raises Unsolvable when c is not a cocycle.
        """
        if c.degree != self.degree:
            raise ValueError("degree mismatch")
        return self._quot.apply(self.cocycles.coords_of(c.coords))


def cohomology(module, degree):
    """CohomologySpace in degree 0, 1 or 2 (cached per module)."""
    cache = module._cache
    key = ("cohomology", degree)
    if key not in cache:
        cache[key] = CohomologySpace(module, degree)
    return cache[key]


def invariant_vectors(module):
    """V^h = {v : x.v = 0 for all x}, the kernel of d in degree 0."""
    cache = module._cache
    if "invariants" not in cache:
        cache["invariants"] = kernel_basis(differential_matrix(module, 0))
    return cache["invariants"]

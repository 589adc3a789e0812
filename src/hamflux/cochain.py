"""Alternating cochains on a Lie algebra with module coefficients.

Degrees 0..3 are stored, each cochain as one canonical scaled integer row
per strictly increasing index tuple: its value on that tuple, over a scale
of its own. The differential is implemented for degrees 0..2 via the usual
alternating sum

    (d v)(x)        = x . v
    (d a)(x, y)     = x . a(y) - y . a(x) - a([x, y])
    (d w)(x, y, z)  = x.w(y,z) - y.w(x,z) + z.w(x,y)
                      - w([x,y], z) + w([x,z], y) - w([y,z], x)

written as one kernel that scatters entry b of the value on an increasing
tuple t: through the action onto the tuples that add one index to t, and
through the brackets onto the tuples they reach. d c sums, per tuple one
degree up, the terms of the nonzeros of c, each over the scale of its row
times that of the action or structure constant it carries.
differential_matrix scatters every unit entry into a matrix, cached per
module, for the complexes whose kernels and images are eliminated; those
matrices act on coords, the values listed tuple by tuple. Contraction and
the Lie derivative follow the standard conventions (i_xi c)(...) =
c(xi, ...) and (L_xi c)(y_1..y_p) = xi.c(y_1..y_p) - sum_i c(y_1, ..,
[xi, y_i], .., y_p).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm

from hamflux.errors import DegreeZero, UnsupportedDegree
from hamflux.linalg import (
    _ZERO,
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
    return comb(module.algebra.dim, p) * module.dim


def _checked_degree(degree):
    if not 0 <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree {degree} outside 0..{MAX_DEGREE}")
    return degree


class Cochain:
    """Alternating p-cochain stored as one canonical scaled integer row per
    increasing p-tuple.

    rows[k] is the value on the k-th increasing p-tuple, module.dim entries
    in the form of Matrix.sparse_rows. Cochain(module, degree, coords)
    coerces and checks dense input; Cochain._from_rows takes rows the
    library built itself. coords is the dense Fraction view, the values
    listed tuple by tuple, derived on each access like Matrix.entries.
    """

    __slots__ = ("module", "degree", "rows")

    def __init__(self, module, degree, coords):
        _checked_degree(degree)
        coords = vector(coords)
        if len(coords) != cochain_dim(module, degree):
            raise ValueError("coordinate length mismatch")
        m = module.dim
        count = comb(module.algebra.dim, degree)
        rows = tuple(_sparse(coords[k * m : k * m + m]) for k in range(count))
        _fill(self, module, degree, rows)

    @classmethod
    def _from_rows(cls, module, degree, rows):
        """Trusted constructor: `rows` must be a tuple of one canonical
        scaled row of length module.dim per increasing tuple, and degree
        within 0..MAX_DEGREE."""
        c = object.__new__(cls)
        _fill(c, module, degree, rows)
        return c

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @property
    def coords(self):
        """Dense coordinates of Fractions, derived from the stored rows."""
        m = self.module.dim
        out = [_ZERO] * (m * len(self.rows))
        for k, (s, pairs) in enumerate(self.rows):
            for j, a in pairs:
                out[k * m + j] = Fraction(a, s)
        return tuple(out)

    @classmethod
    def zero(cls, module, degree):
        count = comb(module.algebra.dim, _checked_degree(degree))
        return cls._from_rows(module, degree, (_ZERO_ROW,) * count)

    @classmethod
    def from_values(cls, module, degree, fn):
        """Build from a callable on increasing tuples; every value must have
        module.dim entries."""
        m = module.dim
        rows = []
        for t in tuple_basis(module.algebra.dim, _checked_degree(degree))[0]:
            val = vector(fn(*t))
            if len(val) != m:
                raise ValueError(f"value at {t} does not have {m} entries")
            rows.append(_sparse(val))
        return cls._from_rows(module, degree, tuple(rows))

    @classmethod
    def from_dict(cls, module, degree, entries):
        """Build from {index tuple: value vector}; tuples may be unordered.

        Every key must have `degree` indices and every value module.dim
        entries."""
        m = module.dim
        _, index = tuple_basis(module.algebra.dim, _checked_degree(degree))
        terms = [[] for _ in index]  # (sign, value row) per increasing tuple
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
            terms[index[key]].append((sign, _sparse(val)))
        return cls._from_rows(module, degree, tuple(map(sparse_lincomb, terms)))

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
        row = self.rows[index[key]]
        return _dense(row if sign == 1 else _neg(row), self.module.dim)

    def is_zero(self):
        return not any(pairs for _, pairs in self.rows)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        self._compatible(other)
        rows = [sparse_lincomb(((1, a), (sign, b))) for a, b in zip(self.rows, other.rows)]
        return Cochain._from_rows(self.module, self.degree, tuple(rows))

    def __neg__(self):
        return Cochain._from_rows(self.module, self.degree, tuple(map(_neg, self.rows)))

    def __rmul__(self, c):
        c = rat(c)
        rows = tuple(_times(r, c) if c else _ZERO_ROW for r in self.rows)
        return Cochain._from_rows(self.module, self.degree, rows)

    def _compatible(self, other):
        if self.module is not other.module and self.module != other.module:
            raise ValueError("cochains over different modules")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.rows == other.rows
            and self.module == other.module
        )

    def __hash__(self):
        return hash((self.degree, self.rows))

    def __repr__(self):
        return f"Cochain(degree {self.degree}, {cochain_dim(self.module, self.degree)} coords)"


def _fill(c, module, degree, rows):
    object.__setattr__(c, "module", module)
    object.__setattr__(c, "degree", degree)
    object.__setattr__(c, "rows", rows)


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
    """Per increasing p-tuple t, {x: ((-1)^i, k)} over the x not in t, in
    increasing order, t with x inserted at position i being the k-th
    increasing (p + 1)-tuple."""
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
    brackets: entry b of the value on t adds c / s times itself at entry b
    of the value on the k-th increasing (p + 1)-tuple u. They depend on the
    algebra alone and are cached per module and degree.

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


def _scatter(module, p, nonzeros):
    """Terms (q, u, j, x, s) of d_p applied to the entries a / s over the
    (q, a, s) in nonzeros, q a coordinate of coords, entry b of the value on
    the k-th increasing p-tuple t for (k, b) = divmod(q, module.dim): a term
    adds x / s at entry j of the value on the u-th increasing (p + 1)-tuple,
    s being the scale of the entry times that of the action or structure
    constant the term carries.

        (d c)(u) = sum_i (-1)^i u_i . c(u without u_i)
                 + sum_{i<j} (-1)^(i+j) c([u_i, u_j], u without u_i, u_j)
    """
    n, m = module.algebra.dim, module.dim
    cofaces, brackets = _cofaces(n, p), _bracket_terms(module, p)
    columns = module._action_columns()
    terms = []
    add = terms.append
    for q, a, s in nonzeros:
        k, b = divmod(q, m)
        # (-1)^i rho(e_x) e_b on the value on t with x inserted at position i
        for x, (sign, u) in cofaces[k].items():
            col = columns[x].get(b)
            if col:
                t, entries = col
                w, st = sign * a, s * t
                for j, v in entries:
                    add((q, u, j, w * v, st))
        # a multiple of e_b on the value on u, per bracket term
        for u, c, t in brackets[k]:
            add((q, u, b, c * a, s * t))
    return terms


def _summed(entries, nrows, ncols):
    """Canonical rows of the sums of the x / s over (row, column, x, s)
    entries, in any order and with positions repeating, each row over the
    lcm of the scales of its own entries."""
    dens = [1] * nrows
    for i, _, _, s in entries:
        if dens[i] % s:
            dens[i] = lcm(dens[i], s)
    acc = {}
    for i, j, x, s in entries:
        key = i * ncols + j
        acc[key] = acc.get(key, 0) + x * (dens[i] // s)
    rows = [[] for _ in range(nrows)]
    for key, x in sorted(acc.items()):
        if x:
            i, j = divmod(key, ncols)
            rows[i].append((j, x))
    return [_canon(d, r) for d, r in zip(dens, rows)]


def differential_matrix(module, p):
    """Matrix of d: C^p -> C^(p+1) on coords (cached per module), for the
    complexes that are eliminated; `differential` applies d to one cochain
    without it."""
    if not 0 <= p <= MAX_DEGREE - 1:
        raise UnsupportedDegree(f"differential undefined in degree {p}")
    cache = module._cache
    key = ("dmat", p)
    if key not in cache:
        m, ncols = module.dim, cochain_dim(module, p)
        terms = _scatter(module, p, [(q, 1, 1) for q in range(ncols)])
        entries = [(u * m + j, q, x, s) for q, u, j, x, s in terms]
        cache[key] = Matrix._from_sparse(_summed(entries, cochain_dim(module, p + 1), ncols), ncols)
    return cache[key]


def differential(c):
    """d c as a Cochain one degree up: per (p + 1)-tuple, the terms that
    land on it, over the lcm of the scales they carry from their rows."""
    if c.degree >= MAX_DEGREE:
        raise UnsupportedDegree(f"cannot differentiate degree {c.degree}")
    module, p, m = c.module, c.degree, c.module.dim
    nonzeros = ((k * m + b, a, s) for k, (s, pairs) in enumerate(c.rows) for b, a in pairs)
    entries = [(u, j, x, s) for _, u, j, x, s in _scatter(module, p, nonzeros)]
    rows = _summed(entries, comb(module.algebra.dim, p + 1), m)
    return Cochain._from_rows(module, p + 1, tuple(rows))


def _differential_coords(module, p, row):
    """d_p applied to the p-cochain whose coords are the scaled row `row`,
    as a scaled row of coords: a column of the matrix that
    HamiltonianAnalysis.symplectic eliminates."""
    m, (s, pairs) = module.dim, row
    terms = _scatter(module, p, ((q, a, s) for q, a in pairs))
    entries = [(0, u * m + j, x, t) for _, u, j, x, t in terms]
    return _summed(entries, 1, cochain_dim(module, p + 1))[0]


def contract(xi, c):
    """i_xi c: plug the coordinate vector xi into the first slot."""
    if c.degree == 0:
        raise DegreeZero("cannot contract a degree-0 cochain")
    xi = vector(xi)
    n = c.module.algebra.dim
    if len(xi) != n:
        raise ValueError(f"xi must have {n} entries")
    sx, xs = _sparse(xi)
    # c(e_i, rest) = (-1)^r c(t), t the tuple rest with i inserted at position r
    out = tuple(
        sparse_lincomb(((co[i][0] * x, c.rows[co[i][1]]) for i, x in xs if i in co), sx)
        for co in _cofaces(n, c.degree - 1)
    )
    return Cochain._from_rows(c.module, c.degree - 1, out)


def contraction_matrix(c):
    """Columns i_{e_i} c on coords for degree >= 1, each entry over the
    scale of the row of c it came from."""
    n, m = c.module.algebra.dim, c.module.dim
    entries = []
    for rest, cofaces in enumerate(_cofaces(n, c.degree - 1)):
        for i, (sign, k) in cofaces.items():
            s, pairs = c.rows[k]
            entries += [(rest * m + a, i, sign * x, s) for a, x in pairs]
    return Matrix._from_sparse(_summed(entries, cochain_dim(c.module, c.degree - 1), n), n)


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
        if c.module is not self.module and c.module != self.module:
            raise ValueError("cochains over different modules")
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

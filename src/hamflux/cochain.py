"""Alternating cochains on a Lie algebra with module coefficients.

Degrees 0..3 are stored (coordinates on strictly increasing index tuples);
the differential is implemented for degrees 0..2 via the usual alternating
sum

    (d v)(x)        = x . v
    (d a)(x, y)     = x . a(y) - y . a(x) - a([x, y])
    (d w)(x, y, z)  = x.w(y,z) - y.w(x,z) + z.w(x,y)
                      - w([x,y], z) + w([x,z], y) - w([y,z], x)

assembled directly as a matrix in the tuple coordinates, so kernels and
images of d are ordinary exact linear algebra. Contraction and the Lie
derivative follow the standard conventions (i_xi c)(...) = c(xi, ...) and
(L_xi c)(y_1..y_p) = xi.c(y_1..y_p) - sum_i c(y_1, .., [xi, y_i], .., y_p).
"""

from functools import lru_cache
from itertools import chain, combinations

from fractions import Fraction

from hamflux.errors import DegreeZero, UnsupportedDegree
from hamflux.linalg import (
    Matrix,
    Subspace,
    kernel_basis,
    lincomb,
    quotient_map,
    vec_add,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)

MAX_DEGREE = 3

_ZERO = Fraction(0)


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


class Cochain:
    """Alternating p-cochain, coordinates stored per increasing tuple."""

    __slots__ = ("module", "degree", "coords")

    def __init__(self, module, degree, coords):
        if not 0 <= degree <= MAX_DEGREE:
            raise UnsupportedDegree(f"degree {degree} outside 0..{MAX_DEGREE}")
        coords = vector(coords)
        if len(coords) != cochain_dim(module, degree):
            raise ValueError("coordinate length mismatch")
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @classmethod
    def zero(cls, module, degree):
        return cls(module, degree, zero_vector(cochain_dim(module, degree)))

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
        coords = [_ZERO] * cochain_dim(module, degree)
        _, index = tuple_basis(module.algebra.dim, degree)
        for t, val in entries.items():
            if len(t) != degree:
                raise ValueError(f"index tuple {t} does not have {degree} indices")
            val = vector(val)
            if len(val) != m:
                raise ValueError(f"value at {t} does not have {m} entries")
            sign, key = sort_with_sign(t)
            if sign == 0:
                if not all(x == 0 for x in val):
                    raise ValueError(f"repeated indices {t} with nonzero value")
                continue
            base = index[key] * m
            for j, x in enumerate(val):
                coords[base + j] += sign * x
        return cls(module, degree, coords)

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
        base = index[key] * self.module.dim
        chunk = self.coords[base : base + self.module.dim]
        return chunk if sign == 1 else tuple(-x for x in chunk)

    def evaluate(self, *vectors):
        """Multilinear evaluation on coordinate vectors."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of arguments")
        c = self
        for v in vectors:
            c = contract(v, c)
        return c.coords

    def is_zero(self):
        return all(x == 0 for x in self.coords)

    def __add__(self, other):
        self._compatible(other)
        return Cochain(self.module, self.degree, vec_add(self.coords, other.coords))

    def __sub__(self, other):
        self._compatible(other)
        return Cochain(
            self.module, self.degree, vec_sub(self.coords, other.coords)
        )

    def __neg__(self):
        return Cochain(self.module, self.degree, vec_scale(-1, self.coords))

    def __rmul__(self, c):
        return Cochain(self.module, self.degree, vec_scale(Fraction(c), self.coords))

    def _compatible(self, other):
        if self.module is not other.module and self.module != other.module:
            raise ValueError("cochains over different modules")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.module == other.module
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.degree, self.coords))

    def __repr__(self):
        return f"Cochain(degree {self.degree}, {len(self.coords)} coords)"


def differential_matrix(module, p):
    """Matrix of d: C^p -> C^(p+1) in tuple coordinates (cached per module)."""
    if not 0 <= p <= MAX_DEGREE - 1:
        raise UnsupportedDegree(f"differential undefined in degree {p}")
    cache = module._cache
    key = ("dmat", p)
    if key not in cache:
        cache[key] = _assemble_differential(module, p)
    return cache[key]


def _assemble_differential(module, p):
    n = module.algebra.dim
    m = module.dim
    out_tuples, _ = tuple_basis(n, p + 1)
    in_tuples, in_index = tuple_basis(n, p)
    # one {column: value} dict per output row; entries that cancel are dropped
    # when the rows are sorted into the matrix
    rows = [{} for _ in range(len(out_tuples) * m)]

    _oi = {t: i for i, t in enumerate(out_tuples)}

    def add(row, col, v):
        row[col] = row[col] + v if col in row else v

    def add_action(out_t, x, in_t, sign):
        # sign * rho(e_x) applied to the block of in_t; sign is 1 or -1
        ob = _oi[out_t] * m
        ib = in_index[in_t] * m
        for a, action_row in enumerate(module.action[x].sparse_rows):
            row = rows[ob + a]
            for b, v in action_row:
                add(row, ib + b, v if sign > 0 else -v)

    def add_identity(out_t, in_idx, coef):
        # coef * Id applied to the block of the (possibly unordered) tuple
        sign, key = sort_with_sign(in_idx)
        if sign == 0:
            return
        ob = _oi[out_t] * m
        ib = in_index[key] * m
        c = coef * sign
        for a in range(m):
            add(rows[ob + a], ib + a, c)

    struct = module.algebra._sparse
    # (d c)(t) = sum_i (-1)^i t_i . c(t without t_i)
    #          + sum_{i<j} (-1)^(i+j) c([t_i, t_j], t without t_i, t_j)
    for t in out_tuples:
        for i, x in enumerate(t):
            add_action(t, x, t[:i] + t[i + 1 :], (-1) ** i)
            for j in range(i + 1, p + 1):
                rest = t[:i] + t[i + 1 : j] + t[j + 1 :]
                for k, coef in struct[x][t[j]]:
                    add_identity(t, (k,) + rest, (-1) ** (i + j) * coef)
    return Matrix._from_sparse(
        (tuple((j, x) for j, x in sorted(row.items()) if x) for row in rows),
        len(in_tuples) * m,
    )


def differential(c):
    """d c as a Cochain one degree up."""
    if c.degree >= MAX_DEGREE:
        raise UnsupportedDegree(f"cannot differentiate degree {c.degree}")
    mat = differential_matrix(c.module, c.degree)
    return Cochain(c.module, c.degree + 1, mat.apply(c.coords))


def contract(xi, c):
    """i_xi c: plug the coordinate vector xi into the first slot."""
    if c.degree == 0:
        raise DegreeZero("cannot contract a degree-0 cochain")
    xi = vector(xi)
    n = c.module.algebra.dim
    if len(xi) != n:
        raise ValueError(f"xi must have {n} entries")
    m = c.module.dim
    out_tuples, _ = tuple_basis(n, c.degree - 1)
    coords = []
    for s in out_tuples:
        coords.extend(lincomb(((x, c.value(i, *s)) for i, x in enumerate(xi) if x), m))
    return Cochain(c.module, c.degree - 1, coords)


def contraction_matrix(c):
    """Columns i_{e_i} c for degree >= 1: row (s, a) of column i is
    c(e_i, s)_a = (-1)^k c(t)_a, t the increasing tuple with t_k = i."""
    n, m = c.module.algebra.dim, c.module.dim
    tuples, _ = tuple_basis(n, c.degree)
    _, out_index = tuple_basis(n, c.degree - 1)
    rows = [[] for _ in range(cochain_dim(c.module, c.degree - 1))]
    for pos, t in enumerate(tuples):
        for k, i in enumerate(t):
            base = out_index[t[:k] + t[k + 1 :]] * m
            for a, x in enumerate(c.coords[pos * m : (pos + 1) * m]):
                if x:
                    rows[base + a].append((i, -x if k % 2 else x))
    return Matrix._from_sparse(map(tuple, map(sorted, rows)), n)


def lie_derivative(xi, c):
    """L_xi c = xi . c(...) minus the sum over slots of c(..., [xi, slot], ...)."""
    xi = vector(xi)
    mod = c.module
    alg = mod.algebra
    if c.degree == 0:
        return Cochain(mod, 0, mod.act(xi, c.coords))

    def term(*t):
        # [xi, e_{t_pos}] = sum_k w e_k replaces slot pos with weight -w
        slots = (
            (-w, c.value(*t[:pos], k, *t[pos + 1 :]))
            for pos in range(len(t))
            for k, w in enumerate(alg.bracket_with_basis(xi, t[pos]))
            if w
        )
        return lincomb(chain([(1, mod.act(xi, c.value(*t)))], slots), mod.dim)

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

    def is_trivial_class(self, c):
        return all(x == 0 for x in self.class_of(c))


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

"""Worked instances and randomized generators.

Three structured families: reading a central extension backwards into an
action-with-cocycle instance, matrix algebras acting on themselves, and
associative algebras acting by inner derivations on their underlying space.
Plus a seeded generator of small nilpotent instances for property suites.

Each derived algebra has one builder: subalgebras come from
liealg.spanned_subalgebra, and quotients by a central ideal, with their
action on the ambient algebra, from _central_quotient.
"""

import random
from fractions import Fraction

from hamflux._record import Record
from hamflux.cochain import Cochain, cochain_dim, differential, differential_matrix, tuple_basis
from hamflux.errors import (
    GenerationFailed,
    HamfluxError,
    JacobiViolation,
    HomViolation,
    NotAssociative,
    NotCentral,
)
from hamflux.hamiltonian import analyze
from hamflux.liealg import (
    AlgebraHom,
    LieAlgebra,
    LieModule,
    _Rows,
    center,
    spanned_subalgebra,
    subalgebra,
)
from hamflux.linalg import (
    _ZERO_ROW,
    LinearSolver,
    Matrix,
    _neg,
    _sparse,
    kernel_basis,
    quotient_map,
    sparse_lincomb,
    vector,
)


class InstanceBundle(Record):
    """label, module, omega (a 2-cochain over module), zeta (an AlgebraHom
    into the algebra, when an action is bundled) and the expected dict,
    empty when not given."""

    __slots__ = ("label", "module", "omega", "zeta", "expected")
    _defaults = {"zeta": None, "expected": None}

    def __post_init__(self):
        if self.expected is None:
            object.__setattr__(self, "expected", {})
        if self.omega.module != self.module or self.omega.degree != 2:
            raise ValueError("omega must be a 2-cochain over the bundled module")
        if self.zeta is not None and self.zeta.target != self.module.algebra:
            raise ValueError("zeta must land in the bundled algebra")


def _central_quotient(hat, z):
    """hat / z for a central subspace z of hat, acting on hat through the
    factored adjoint action, and the canonical section S of the quotient.

    Returns (module, S), S as the scaled rows of the S e_i: the bracket of
    h = hat / z is q [S x, S y] with q the canonical quotient map, and x in h
    acts on hat as ad(S x).
    """
    q = quotient_map(hat.dim, z)
    solver = LinearSolver(q)
    S = [solver._solve_row((1, ((i, 1),))) for i in range(q.nrows)]
    h = LieAlgebra(_Rows([q._apply_row(hat._sparse_bracket(x, y)) for y in S] for x in S))
    return LieModule(h, hat.dim, [hat._ad(x) for x in S]), S


def _commutator_algebra(p, m):
    """Lie algebra of an associative multiplication on m basis vectors, given
    as the scaled rows p[a * m + b] = e_a e_b: [e_a, e_b] = e_a e_b - e_b e_a."""

    def bracket(a, b):
        return sparse_lincomb(((1, p[a * m + b]), (-1, p[b * m + a])))

    return LieAlgebra(_Rows([bracket(a, b) for b in range(m)] for a in range(m)))


def _two_cochain(module, value):
    """The 2-cochain whose value on (e_i, e_j), i < j, is the row value(i, j)."""
    pairs, _ = tuple_basis(module.algebra.dim, 2)
    return Cochain._from_rows(module, 2, tuple(value(i, j) for i, j in pairs))


def from_central_extension(hat_h, z):
    """Turn a central subspace z of hat_h into an action instance.

    h = hat_h / z acts on V = hat_h through the factored adjoint action and
    carries omega(q x, q y) = -[x, y]. The analysis then recovers hat_h: the
    poisson bracket of two vectors of V is their hat_h bracket, every vector
    is admissible, and the pair algebra is hat_h enlarged by q(z(hat_h)).
    """
    n = hat_h.dim
    if z.ambient != n:
        raise ValueError("z must be a subspace of hat_h")
    for j, col in enumerate(z._basis_rows()):
        for i in range(n):
            if hat_h._sparse_bracket((1, ((i, 1),)), col)[1]:
                raise NotCentral(f"z basis vector {j} does not commute with e_{i}")
    module, S = _central_quotient(hat_h, z)
    h = module.algebra
    omega = _two_cochain(module, lambda i, j: _neg(hat_h._sparse_bracket(S[i], S[j])))
    zhat = center(hat_h).dim
    expected = {
        "symplectic": h.dim,
        "hamiltonian": h.dim,
        "radical": zhat - z.dim,
        "invariants": zhat,
        "admissible": n,
        "differential_image": n - zhat,
        "pairs": n + zhat - z.dim,
        "poisson_structure": hat_h.structure,
    }
    zeta = AlgebraHom.identity(h)
    return InstanceBundle("central_extension", module, omega, zeta, expected)


def _sl_basis(n):
    """Off-diagonal units E_ij row-major, then H_k = E_kk - E_(k+1)(k+1), as
    scaled rows of the row-major coordinates of n x n matrices."""
    basis = [(1, ((i * n + j, 1),)) for i in range(n) for j in range(n) if i != j]
    basis += [(1, ((k * (n + 1), 1), ((k + 1) * (n + 1), -1))) for k in range(n - 1)]
    return basis


def matrix_algebra_example(n):
    """Traceless n x n matrices acting on all n x n matrices by commutator,
    with omega(x, y) = -[x, y]; then the poisson bracket is the commutator
    and the inclusion is an equivariant momentum map.

    gl_n is the commutator algebra of full_matrix_table(n), and sl_n its
    subalgebra on _sl_basis(n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    gl = _commutator_algebra([_sparse(v) for row in full_matrix_table(n) for v in row], n * n)
    basis = _sl_basis(n)
    h, inclusion = spanned_subalgebra(gl, Matrix._from_sparse(basis, n * n).transpose())
    h_dim = h.dim
    module = LieModule(h, n * n, [gl._ad(b) for b in basis])
    omega = _two_cochain(module, lambda i, j: _neg(gl._sparse_bracket(basis[i], basis[j])))
    expected = {
        "symplectic": h_dim,
        "hamiltonian": h_dim,
        "radical": 0,
        "invariants": 1,
        "admissible": n * n,
        "differential_image": h_dim,
        "pairs": n * n,
        "momentum_inclusion": inclusion.matrix,
    }
    zeta = AlgebraHom.identity(h)
    return InstanceBundle(f"matrix_algebra_{n}", module, omega, zeta, expected)


def associative_algebra_example(mult_table):
    """A/z(A) acting on A by inner derivations with omega([a],[b]) = [a,b].

    mult_table[i][j] gives the coordinates of e_i e_j. Associativity is
    validated exactly. z(A) is the center of the commutator algebra of A,
    which for an associative algebra is its center. Also verifies the
    section-shifted cocycle omega - d(sigma) takes values in the center,
    where sigma is the canonical linear section of the quotient.
    """
    m = len(mult_table)
    table = [[vector(v) for v in row] for row in mult_table]
    if any(len(row) != m for row in table):
        raise ValueError("multiplication table must be square")

    # row i * m + j is e_i e_j
    products = Matrix.from_columns([v for row in table for v in row], m).transpose().sparse_rows
    for i in range(m):
        for j in range(m):
            for k in range(m):
                # (e_i e_j) e_k and e_i (e_j e_k), expanded over the units
                s, ij = products[i * m + j]
                lhs = sparse_lincomb(((a, products[l * m + k]) for l, a in ij), s)
                s, jk = products[j * m + k]
                rhs = sparse_lincomb(((a, products[i * m + l]) for l, a in jk), s)
                if lhs != rhs:
                    raise NotAssociative(i, j, k)

    lie = _commutator_algebra(products, m)
    z = center(lie)
    module, S = _central_quotient(lie, z)
    h = module.algebra
    omega = _two_cochain(module, lambda i, j: lie._sparse_bracket(S[i], S[j]))
    # shifted cocycle: values must drop into the center
    shifted = omega - differential(Cochain._from_rows(module, 1, tuple(S)))
    if not all(z._contains_row(value) for value in shifted.rows):
        raise HamfluxError("shifted cocycle escaped the center")
    zeta = AlgebraHom.identity(h)
    expected = {
        "center_dim": z.dim,
        "h_dim": h.dim,
        "shifted_cocycle": shifted,
        "center": z,
    }
    return InstanceBundle("associative_algebra", module, omega, zeta, expected)


def _matrix_unit_table(pairs):
    """Multiplication table of the matrix units E_ij, (i, j) in pairs, on that
    basis: E_ij E_kl = E_il when j == k and 0 otherwise."""
    index = {p: a for a, p in enumerate(pairs)}
    dim = len(pairs)
    table = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            v = [0] * dim
            if j == k:
                v[index[(i, l)]] = 1
            row.append(tuple(v))
        table.append(row)
    return table


def upper_triangular_table(n):
    """Multiplication table of upper-triangular n x n matrices, basis E_ij
    (i <= j) ordered row-major."""
    return _matrix_unit_table([(i, j) for i in range(n) for j in range(i, n)])


def full_matrix_table(n):
    """Multiplication table of all n x n matrices, basis E_ij row-major."""
    return _matrix_unit_table([(i, j) for i in range(n) for j in range(n)])


_SMALL = [Fraction(x) for x in (-2, -1, -1, 1, 1, 2, 3)] + [Fraction(1, 2)]


def random_instance(dims, seed, attempts=100):
    """Deterministic small instance: nilpotent algebra from strictly
    triangular structure data (searched until Jacobi holds), a compatible
    module, and omega drawn from the kernel of the degree-2 differential.
    Ships with zeta = inclusion of the hamiltonian subalgebra."""
    n, m = dims
    if not (0 <= n <= 6 and 0 <= m <= 6):
        raise ValueError("dims must be small (at most 6)")
    # string seeds hash deterministically across processes, unlike tuples
    rng = random.Random(f"{seed}:{n}:{m}")
    for attempt in range(attempts):
        try:
            algebra = _random_algebra(rng, n, attempt)
            module = _random_module(rng, algebra, m, attempt)
        except (JacobiViolation, HomViolation):
            continue
        omega = _random_cocycle(rng, module)
        analysis = analyze(module, omega)
        try:
            g, inclusion = subalgebra(algebra, analysis.hamiltonian)
        except HamfluxError:
            continue
        expected = {"seed": seed, "dims": dims, "attempt": attempt}
        return InstanceBundle(
            f"random_{n}x{m}_seed{seed}", module, omega, inclusion, expected
        )
    raise GenerationFailed(f"no valid instance within {attempts} attempts")


def _random_algebra(rng, n, attempt):
    # density decays as attempts accumulate; zero density is abelian and
    # always satisfies Jacobi, so the search terminates
    density = max(0.0, 0.55 - 0.08 * (attempt // 5))
    table = [[_ZERO_ROW] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lo = j + 1
            if lo >= n or rng.random() >= density:
                continue
            k = rng.randrange(lo, n)
            c = rng.choice(_SMALL)
            table[i][j] = (c.denominator, ((k, c.numerator),))
            table[j][i] = _neg(table[i][j])
    return LieAlgebra(_Rows(table))


def _random_module(rng, algebra, m, attempt):
    n = algebra.dim
    kind = rng.choice(["trivial", "adjoint", "shift"])
    if kind == "adjoint" and n == m:
        return LieModule(algebra, m, [algebra._ad((1, ((i, 1),))) for i in range(n)])
    if kind == "shift" and m >= 2:
        # commuting polynomials in one shift operator; generators appearing
        # in a bracket image act by zero so the hom property is automatic
        # e_c -> e_(c + 1), the last basis vector to zero
        shift = Matrix._from_sparse([_ZERO_ROW] + [(1, ((c, 1),)) for c in range(m - 1)], m)
        image_indices = {k for row in algebra._sparse for _, v in row for k, _ in v}
        mats = []
        for i in range(n):
            if i in image_indices:
                mats.append(Matrix.zeros(m, m))
                continue
            acc = Matrix.zeros(m, m)
            power = shift
            for _ in range(min(m - 1, 2)):
                if rng.random() < 0.5:
                    acc = acc + rng.choice(_SMALL) * power
                power = power * shift
            mats.append(acc)
        return LieModule(algebra, m, mats)
    return LieModule.trivial(algebra, m)


def _random_cocycle(rng, module):
    dim2 = cochain_dim(module, 2)
    if dim2 == 0:
        return Cochain.zero(module, 2)
    closed = kernel_basis(differential_matrix(module, 2))
    if closed.dim == 0:
        return Cochain.zero(module, 2)
    coeffs = [rng.choice(_SMALL) if rng.random() < 0.7 else 0 for _ in range(closed.dim)]
    # the value on pair k is block k of m rows of the basis on the coefficients
    m, rows, coeffs = module.dim, closed.basis.sparse_rows, _sparse(coeffs)
    blocks = (Matrix._from_sparse(rows[q : q + m], closed.dim) for q in range(0, dim2, m))
    return Cochain._from_rows(module, 2, tuple(b._apply_row(coeffs) for b in blocks))

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
from hamflux.cochain import Cochain, cochain_dim, differential, differential_matrix
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
    center,
    spanned_subalgebra,
    subalgebra,
)
from hamflux.linalg import (
    LinearSolver,
    Matrix,
    kernel_basis,
    quotient_map,
    unit_vector,
    vec_neg,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
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

    Returns (module, S), S as the list of the S e_i: the bracket of
    h = hat / z is q [S x, S y] with q the canonical quotient map, and x in h
    acts on hat as ad(S x).
    """
    q = quotient_map(hat.dim, z)
    solver = LinearSolver(q)
    S = [solver.solve(unit_vector(q.nrows, i)) for i in range(q.nrows)]
    h = LieAlgebra([[q.apply(hat.bracket(x, y)) for y in S] for x in S])
    return LieModule(h, hat.dim, [hat.ad_matrix(x) for x in S]), S


def _commutator_algebra(table):
    """Lie algebra of an associative multiplication table t on the same
    basis: [e_a, e_b] = t[a][b] - t[b][a]."""
    m = len(table)
    return LieAlgebra([[vec_sub(table[a][b], table[b][a]) for b in range(m)] for a in range(m)])


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
    for j in range(z.dim):
        col = z.basis.column(j)
        for i in range(n):
            if any(x != 0 for x in hat_h.bracket(unit_vector(n, i), col)):
                raise NotCentral(f"z basis vector {j} does not commute with e_{i}")
    module, S = _central_quotient(hat_h, z)
    h = module.algebra
    omega = Cochain.from_values(module, 2, lambda i, j: vec_neg(hat_h.bracket(S[i], S[j])))
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
    row-major coordinates of n x n matrices."""
    nn = n * n
    basis = [unit_vector(nn, i * n + j) for i in range(n) for j in range(n) if i != j]
    for k in range(n - 1):
        basis.append(vec_sub(unit_vector(nn, k * (n + 1)), unit_vector(nn, (k + 1) * (n + 1))))
    return basis


def matrix_algebra_example(n):
    """Traceless n x n matrices acting on all n x n matrices by commutator,
    with omega(x, y) = -[x, y]; then the poisson bracket is the commutator
    and the inclusion is an equivariant momentum map.

    gl_n is the commutator algebra of full_matrix_table(n), and sl_n its
    subalgebra on _sl_basis(n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    gl = _commutator_algebra(full_matrix_table(n))
    basis = _sl_basis(n)
    h, inclusion = spanned_subalgebra(gl, Matrix.from_columns(basis, n * n))
    h_dim = h.dim
    module = LieModule(h, n * n, [gl.ad_matrix(b) for b in basis])
    omega = Cochain.from_values(
        module, 2, lambda i, j: vec_neg(gl.bracket(basis[i], basis[j]))
    )
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


def _assoc_multiply(mult, a, b):
    # mult is the m x m^2 matrix whose column i*m + j is e_i e_j
    return mult.apply(tuple(x * y for x in a for y in b))


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

    mult = Matrix.from_columns([v for row in table for v in row], m)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                lhs = _assoc_multiply(mult, table[i][j], unit_vector(m, k))
                rhs = _assoc_multiply(mult, unit_vector(m, i), table[j][k])
                if lhs != rhs:
                    raise NotAssociative(i, j, k)

    lie = _commutator_algebra(table)
    z = center(lie)
    module, S = _central_quotient(lie, z)
    h = module.algebra
    omega = Cochain.from_values(module, 2, lambda i, j: lie.bracket(S[i], S[j]))
    # shifted cocycle: values must drop into the center
    sigma = Cochain(module, 1, tuple(x for c in S for x in c))
    shifted = omega - differential(sigma)
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            if not z.contains(shifted.value(i, j)):
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
    table = [[zero_vector(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lo = j + 1
            if lo >= n or rng.random() >= density:
                continue
            v = [Fraction(0)] * n
            k = rng.randrange(lo, n)
            v[k] = rng.choice(_SMALL)
            table[i][j] = vector(v)
            table[j][i] = vec_scale(-1, table[i][j])
    return LieAlgebra(table)


def _random_module(rng, algebra, m, attempt):
    n = algebra.dim
    kind = rng.choice(["trivial", "adjoint", "shift"])
    if kind == "adjoint" and n == m:
        return LieModule(
            algebra, m, [algebra.ad_matrix(unit_vector(n, i)) for i in range(n)]
        )
    if kind == "shift" and m >= 2:
        # commuting polynomials in one shift operator; generators appearing
        # in a bracket image act by zero so the hom property is automatic
        shift = Matrix.from_columns(
            [unit_vector(m, c + 1) for c in range(m - 1)] + [zero_vector(m)], m
        )
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
    return Cochain(module, 2, closed.basis.apply(coeffs))

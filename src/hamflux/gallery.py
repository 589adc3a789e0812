"""Worked instances and randomized generators.

Three structured families: reading a central extension backwards into an
action-with-cocycle instance, matrix algebras acting on themselves, and
associative algebras acting by inner derivations on their underlying space.
Plus a seeded generator of small nilpotent instances for property suites.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

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
from hamflux.liealg import AlgebraHom, LieAlgebra, LieModule, center, subalgebra
from hamflux.linalg import (
    LinearSolver,
    Matrix,
    Subspace,
    kernel_basis,
    quotient_map,
    unit_vector,
    vec_scale,
    vec_sub,
    vector,
    vstack,
    zero_vector,
)


@dataclass(frozen=True)
class InstanceBundle:
    label: str
    module: LieModule
    omega: Cochain
    zeta: object = None  # AlgebraHom into the algebra, when an action is bundled
    expected: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.omega.module != self.module or self.omega.degree != 2:
            raise ValueError("omega must be a 2-cochain over the bundled module")
        if self.zeta is not None and self.zeta.target != self.module.algebra:
            raise ValueError("zeta must land in the bundled algebra")


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
    q = quotient_map(n, z)
    h_dim = q.nrows
    solver = LinearSolver(q)
    section_cols = [solver.solve(unit_vector(h_dim, i)) for i in range(h_dim)]
    S = Matrix.from_columns(section_cols, n)
    table = [
        [q.apply(hat_h.bracket(S.column(i), S.column(j))) for j in range(h_dim)]
        for i in range(h_dim)
    ]
    h = LieAlgebra(table)
    action = [hat_h.ad_matrix(S.column(i)) for i in range(h_dim)]
    module = LieModule(h, n, action)
    omega = Cochain.from_values(
        module,
        2,
        lambda i, j: tuple(-x for x in hat_h.bracket(S.column(i), S.column(j))),
    )
    zhat = center(hat_h).dim
    expected = {
        "symplectic": h_dim,
        "hamiltonian": h_dim,
        "radical": zhat - z.dim,
        "invariants": zhat,
        "admissible": n,
        "differential_image": n - zhat,
        "pairs": n + zhat - z.dim,
        "poisson_structure": hat_h.structure,
    }
    zeta = AlgebraHom.identity(h)
    return InstanceBundle("central_extension", module, omega, zeta, expected)


def _matrix_unit_index(n, i, j):
    return i * n + j


def _matrix_multiply_coords(n, a, b):
    """Coordinates of the product of two n x n matrices given row-major coords."""
    def square(coords):
        return Matrix([coords[i * n : (i + 1) * n] for i in range(n)], n)

    return sum((square(a) * square(b)).entries, ())


def _commutator_coords(n, a, b):
    return vec_sub(
        _matrix_multiply_coords(n, a, b), _matrix_multiply_coords(n, b, a)
    )


def _sl_basis(n):
    """Off-diagonal units row-major, then H_k = E_kk - E_(k+1)(k+1)."""
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = [0] * (n * n)
                v[_matrix_unit_index(n, i, j)] = 1
                basis.append(vector(v))
    for k in range(n - 1):
        v = [0] * (n * n)
        v[_matrix_unit_index(n, k, k)] = 1
        v[_matrix_unit_index(n, k + 1, k + 1)] = -1
        basis.append(vector(v))
    return basis


def _sl_coords(n, mat_coords):
    """Coordinates of a traceless matrix in the _sl_basis ordering."""
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                out.append(mat_coords[_matrix_unit_index(n, i, j)])
    prefix = Fraction(0)
    for k in range(n - 1):
        prefix += mat_coords[_matrix_unit_index(n, k, k)]
        out.append(prefix)
    return tuple(out)


def matrix_algebra_example(n):
    """Traceless n x n matrices acting on all n x n matrices by commutator,
    with omega(x, y) = -[x, y]; then the poisson bracket is the commutator
    and the inclusion is an equivariant momentum map."""
    if n < 2:
        raise ValueError("need n >= 2")
    basis = _sl_basis(n)
    h_dim = n * n - 1
    table = [
        [_sl_coords(n, _commutator_coords(n, basis[i], basis[j])) for j in range(h_dim)]
        for i in range(h_dim)
    ]
    h = LieAlgebra(table)
    action = []
    for i in range(h_dim):
        cols = []
        for a in range(n * n):
            cols.append(_commutator_coords(n, basis[i], unit_vector(n * n, a)))
        action.append(Matrix.from_columns(cols, n * n))
    module = LieModule(h, n * n, action)
    omega = Cochain.from_values(
        module,
        2,
        lambda i, j: tuple(-x for x in _commutator_coords(n, basis[i], basis[j])),
    )
    inclusion = Matrix.from_columns(basis, n * n)
    expected = {
        "symplectic": h_dim,
        "hamiltonian": h_dim,
        "radical": 0,
        "invariants": 1,
        "admissible": n * n,
        "differential_image": h_dim,
        "pairs": n * n,
        "momentum_inclusion": inclusion,
    }
    zeta = AlgebraHom.identity(h)
    return InstanceBundle(f"matrix_algebra_{n}", module, omega, zeta, expected)


def _assoc_multiply(mult, a, b):
    # mult is the m x m^2 matrix whose column i*m + j is e_i e_j
    return mult.apply(tuple(x * y for x in a for y in b))


def associative_algebra_example(mult_table):
    """A/z(A) acting on A by inner derivations with omega([a],[b]) = [a,b].

    mult_table[i][j] gives the coordinates of e_i e_j. Associativity is
    validated exactly. Also verifies the section-shifted cocycle
    omega - d(sigma) takes values in the center, where sigma is the
    canonical linear section of the quotient.
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

    def commutator(a, b):
        return vec_sub(_assoc_multiply(mult, a, b), _assoc_multiply(mult, b, a))

    # center of the associative algebra: kernel of all L_b - R_b
    blocks = []
    for b in range(m):
        cols = [commutator(unit_vector(m, b), unit_vector(m, j)) for j in range(m)]
        blocks.append(Matrix.from_columns(cols, m))
    z = kernel_basis(reduce(vstack, blocks)) if blocks else Subspace.full(m)
    q = quotient_map(m, z)
    h_dim = q.nrows
    solver = LinearSolver(q)
    S = Matrix.from_columns([solver.solve(unit_vector(h_dim, i)) for i in range(h_dim)], m)
    h_table = [
        [q.apply(commutator(S.column(i), S.column(j))) for j in range(h_dim)]
        for i in range(h_dim)
    ]
    h = LieAlgebra(h_table)
    action = []
    for i in range(h_dim):
        cols = [commutator(S.column(i), unit_vector(m, a)) for a in range(m)]
        action.append(Matrix.from_columns(cols, m))
    module = LieModule(h, m, action)
    omega = Cochain.from_values(
        module, 2, lambda i, j: commutator(S.column(i), S.column(j))
    )
    # shifted cocycle: values must drop into the center
    sigma = Cochain(module, 1, tuple(x for i in range(h_dim) for x in S.column(i)))
    shifted = omega - differential(sigma)
    for i in range(h_dim):
        for j in range(i + 1, h_dim):
            if not z.contains(shifted.value(i, j)):
                raise HamfluxError("shifted cocycle escaped the center")
    zeta = AlgebraHom.identity(h)
    expected = {
        "center_dim": z.dim,
        "h_dim": h_dim,
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
    coords = zero_vector(dim2)
    for i in range(closed.dim):
        if rng.random() < 0.7:
            c = rng.choice(_SMALL)
            coords = tuple(
                a + c * b for a, b in zip(coords, closed.basis.column(i))
            )
    return Cochain(module, 2, coords)

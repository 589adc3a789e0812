"""Instance builders: recovery laws, worked multiplication tables, generators."""

from fractions import Fraction as F

import pytest

from hamflux.cochain import differential
from hamflux.errors import GenerationFailed, NotAssociative, NotCentral
from hamflux.gallery import (
    InstanceBundle,
    associative_algebra_example,
    from_central_extension,
    full_matrix_table,
    matrix_algebra_example,
    random_instance,
    upper_triangular_table,
)
from hamflux.hamiltonian import analyze
from hamflux.liealg import LieAlgebra
from hamflux.linalg import Matrix, Subspace
from hamflux.momentum import MomentumMap, equivariant_pair_check, solve_momentum

from util import heis3, heis3_plus_line, solvable2


def unit(n, i):
    return tuple(1 if q == i else 0 for q in range(n))


def test_heis3_recovery():
    hat = heis3()
    bundle = from_central_extension(hat, Subspace.from_vectors(3, [(0, 0, 1)]))
    analysis = analyze(bundle.module, bundle.omega)
    dims = analysis.exactness_report()["dims"]
    for key, value in bundle.expected.items():
        if key in dims:
            assert dims[key] == value, key
    # the poisson bracket of plain vectors is the original bracket
    for i in range(3):
        for j in range(3):
            got = analysis.poisson_bracket(unit(3, i), unit(3, j))
            assert got == hat.structure[i][j]
    # pair space dimension: hat recovered exactly since z = z(hat)
    assert bundle.expected["pairs"] == 3
    assert dims["hamiltonian"] + dims["invariants"] == bundle.expected["pairs"]


def test_heis3_plus_line_recovery():
    hat = heis3_plus_line()
    bundle = from_central_extension(hat, Subspace.from_vectors(4, [(0, 0, 1, 0)]))
    analysis = analyze(bundle.module, bundle.omega)
    dims = analysis.exactness_report()["dims"]
    assert bundle.expected["radical"] == 1  # q(z(hat)) is one-dimensional
    assert dims["radical"] == 1
    assert dims["hamiltonian"] == 3
    assert dims["invariants"] == 2
    assert bundle.expected["pairs"] == 5
    assert dims["hamiltonian"] + dims["invariants"] == 5
    for i in range(4):
        for j in range(4):
            got = analysis.poisson_bracket(unit(4, i), unit(4, j))
            assert got == hat.structure[i][j]


def test_central_extension_degenerate_zero():
    bundle = from_central_extension(LieAlgebra.abelian(2), Subspace.zero(2))
    assert bundle.omega.is_zero()
    analysis = analyze(bundle.module, bundle.omega)
    assert analysis.radical.dim == 2


def test_not_central():
    with pytest.raises(NotCentral):
        from_central_extension(heis3(), Subspace.from_vectors(3, [(1, 0, 0)]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_algebra_dims(n):
    bundle = matrix_algebra_example(n)
    assert bundle.module.algebra.dim == n * n - 1
    assert bundle.module.dim == n * n
    analysis = analyze(bundle.module, bundle.omega)
    dims = analysis.exactness_report()["dims"]
    for key in ("symplectic", "hamiltonian", "radical", "invariants", "admissible",
                "differential_image"):
        assert dims[key] == bundle.expected[key], key


def matrix_commutator(n, a, b):
    """ab - ba for n x n matrices in row-major coordinates, by Matrix products."""

    def square(coords):
        return Matrix([coords[i * n : (i + 1) * n] for i in range(n)], n)

    x, y = square(a), square(b)
    return sum((x * y - y * x).entries, ())


def test_matrix_algebra_poisson_is_commutator():
    bundle = matrix_algebra_example(2)
    analysis = analyze(bundle.module, bundle.omega)
    for a in range(4):
        for b in range(4):
            got = analysis.poisson_bracket(unit(4, a), unit(4, b))
            assert got == matrix_commutator(2, unit(4, a), unit(4, b))


def test_matrix_algebra_inclusion_momentum():
    bundle = matrix_algebra_example(2)
    analysis = analyze(bundle.module, bundle.omega)
    momentum = MomentumMap(
        analysis, bundle.zeta, bundle.expected["momentum_inclusion"]
    )
    report = equivariant_pair_check(momentum)
    assert report["agree"] and report["poisson_map"]


def test_matrix_algebra_basis_order():
    # n = 2 gives the standard (e, f, h) presentation
    from util import sl2

    bundle = matrix_algebra_example(2)
    assert bundle.module.algebra == sl2()


def test_associative_upper_triangular():
    bundle = associative_algebra_example(upper_triangular_table(2))
    assert bundle.expected["center_dim"] == 1
    assert bundle.expected["h_dim"] == 2
    assert bundle.module.algebra == solvable2()
    shifted = bundle.expected["shifted_cocycle"]
    z = bundle.expected["center"]
    for i in range(2):
        for j in range(2):
            assert z.contains(shifted.value(i, j))


def test_associative_full_matrices_reduces():
    bundle = associative_algebra_example(full_matrix_table(2))
    assert bundle.expected["center_dim"] == 1
    assert bundle.expected["h_dim"] == 3
    expected_structure = LieAlgebra(
        [
            [(0, 0, 0), (0, 1, 0), (0, 0, -1)],
            [(0, -1, 0), (0, 0, 0), (2, 0, 0)],
            [(0, 0, 1), (-2, 0, 0), (0, 0, 0)],
        ]
    )
    assert bundle.module.algebra == expected_structure
    matrix_dims = analyze(
        matrix_algebra_example(2).module, matrix_algebra_example(2).omega
    ).exactness_report()["dims"]
    assoc_dims = analyze(bundle.module, bundle.omega).exactness_report()["dims"]
    assert matrix_dims == assoc_dims


def test_associative_commutative_degenerate():
    # Q[t]/(t^2): basis (1, t)
    table = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    bundle = associative_algebra_example(table)
    assert bundle.expected["h_dim"] == 0
    assert bundle.module.dim == 2
    assert bundle.omega.coords == ()


def test_not_associative():
    table = [[(0, 1), (0, 0)], [(1, 0), (0, 0)]]
    with pytest.raises(NotAssociative) as exc:
        associative_algebra_example(table)
    assert exc.value.indices == (0, 0, 0)


def test_random_deterministic():
    a = random_instance((3, 2), 1)
    b = random_instance((3, 2), 1)
    assert a.module == b.module
    assert a.omega == b.omega
    assert a.zeta.matrix == b.zeta.matrix


def test_random_golden_seed0():
    bundle = random_instance((2, 2), 0)
    assert bundle.module.algebra == LieAlgebra.abelian(2)
    assert all(m.is_zero() for m in bundle.module.action)
    assert bundle.omega.coords == (F(1), F(0))
    assert bundle.zeta.matrix == Matrix.zeros(2, 0)


def test_random_min_dims():
    bundle = random_instance((1, 1), 5)
    assert bundle.omega.is_zero()  # no room for an alternating 2-form


def test_random_outputs_are_valid():
    for dims in [(2, 3), (3, 3), (4, 2), (5, 2)]:
        for seed in (0, 7):
            bundle = random_instance(dims, seed)
            assert differential(bundle.omega).is_zero()
            analysis = analyze(bundle.module, bundle.omega)
            z = bundle.zeta
            for i in range(z.source.dim):
                assert analysis.hamiltonian.contains(z.matrix.column(i))


def test_random_bounds():
    with pytest.raises(ValueError):
        random_instance((7, 2), 0)
    with pytest.raises(GenerationFailed):
        random_instance((3, 3), 0, attempts=0)


def test_bundle_validation():
    b1 = random_instance((2, 2), 0)
    b2 = random_instance((3, 2), 0)
    with pytest.raises(ValueError):
        InstanceBundle("bad", b1.module, b2.omega)

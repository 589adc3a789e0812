"""Cochain calculus: the differential, applied to a cochain and assembled as
a matrix, is checked against a naive evaluator written straight from the
alternating-sum formula, and the operator identities (d^2 = 0, Cartan,
commutation relations) are exercised on several modules.
"""

import random
from fractions import Fraction as F

import pytest

from hamflux.cochain import (
    Cochain,
    CohomologySpace,
    cochain_dim,
    cohomology,
    contract,
    contraction_matrix,
    differential,
    differential_matrix,
    invariant_vectors,
    lie_derivative,
    sort_with_sign,
    tuple_basis,
)
from hamflux.errors import DegreeZero, UnsupportedDegree
from hamflux.gallery import random_instance
from hamflux.hamiltonian import analyze
from hamflux.liealg import LieAlgebra, LieModule, adjoint_module
from hamflux.linalg import Matrix, Subspace
from util import heis3, heis_pair_instance, rescaled, sl2, solvable2, unit_vector, zero_vector


def naive_differential(c):
    """Direct transcription of the alternating-sum formula, as an oracle."""
    mod = c.module
    alg = mod.algebra

    def basis(i):
        v = [0] * alg.dim
        v[i] = 1
        return tuple(v)

    def term(*t):
        p1 = len(t)
        out = zero_vector(mod.dim)
        for pos in range(p1):
            rest = t[:pos] + t[pos + 1 :]
            acted = mod.act(basis(t[pos]), c.value(*rest))
            out = tuple(o + F(-1) ** pos * x for o, x in zip(out, acted))
        for a in range(p1):
            for b in range(a + 1, p1):
                rest = tuple(x for q, x in enumerate(t) if q not in (a, b))
                for k, w in enumerate(alg.structure[t[a]][t[b]]):
                    if w:
                        value = c.value(k, *rest)
                        out = tuple(o + F(-1) ** (a + b) * w * x for o, x in zip(out, value))
        return out

    return Cochain.from_values(mod, c.degree + 1, term)


def sample_modules():
    mods = [
        adjoint_module(heis3()),
        adjoint_module(sl2()),
        adjoint_module(solvable2()),
        heis_pair_instance()[0],
        LieModule.trivial(heis3(), 1),
    ]
    return mods


def sample_cochain(module, degree, salt=1):
    # deterministic non-symmetric coordinates
    dim = cochain_dim(module, degree)
    return Cochain(module, degree, [F((i * salt) % 7 - 3, 1 + (i % 3)) for i in range(dim)])


def differential_modules():
    """sample_modules, then two of them rescaled so that the action and
    structure constants have scales > 1, and three edge shapes: a 1-dim
    algebra, with no (p + 1)-tuples for p = 1, 2, a 0-dim module and a 0-dim
    algebra. (sample module 2 has n = 2, so it has no triples either.)"""
    lam, mu = (F(2), F(3, 5), F(7, 4)), (F(1, 3), F(5), F(-2, 7))
    return sample_modules() + [
        rescaled(adjoint_module(sl2()), lam, mu),
        rescaled(heis_pair_instance()[0], lam[:2], mu),
        LieModule(LieAlgebra.abelian(1), 2, [[[F(1, 2), 2], [0, 3]]]),
        LieModule.trivial(heis3(), 0),
        LieModule(LieAlgebra.abelian(0), 2, []),
    ]


@pytest.mark.parametrize("mod_idx", range(10))
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_differential_matches_naive_formula(mod_idx, degree):
    # d of the i-th basis cochain is column i of the matrix, so comparing every
    # column catches a wrong sign on any single term of the alternating sum.
    # differential(c) applies d without the matrix, so it is compared with
    # the oracle on its own, on a dense and on a sparse c
    mod = differential_modules()[mod_idx]
    dense = sample_cochain(mod, degree)
    sparse = Cochain(mod, degree, [x if i % 3 == 1 else 0 for i, x in enumerate(dense.coords)])
    for c in (dense, sparse):
        assert differential(c) == naive_differential(c)
    dim = cochain_dim(mod, degree)
    cols = [
        naive_differential(Cochain(mod, degree, unit_vector(dim, i))).coords
        for i in range(dim)
    ]
    expected = Matrix.from_columns(cols, cochain_dim(mod, degree + 1))
    assert differential_matrix(mod, degree) == expected


@pytest.mark.parametrize("mod_idx", range(5))
@pytest.mark.parametrize("degree", [0, 1])
def test_d_squared_is_zero(mod_idx, degree):
    mod = sample_modules()[mod_idx]
    d1 = differential_matrix(mod, degree + 1)
    d0 = differential_matrix(mod, degree)
    assert (d1 * d0).is_zero()


def test_differential_degree_cap():
    mod = adjoint_module(heis3())
    top = Cochain.zero(mod, 3)
    with pytest.raises(UnsupportedDegree):
        differential(top)
    with pytest.raises(UnsupportedDegree):
        differential_matrix(mod, 3)
    with pytest.raises(UnsupportedDegree):
        Cochain.zero(mod, 4)


def test_contract_degree_zero_rejected():
    mod = adjoint_module(heis3())
    with pytest.raises(DegreeZero):
        contract((1, 0, 0), Cochain.zero(mod, 0))


def test_value_antisymmetry_and_repeats():
    mod, omega = heis_pair_instance()
    assert omega.value(0, 1) == (F(0), F(0), F(-1))
    assert omega.value(1, 0) == (F(0), F(0), F(1))
    assert omega.value(0, 0) == (F(0), F(0), F(0))


@pytest.mark.parametrize("idx", [(0, 5), (5, 0), (-1, 1), (2, 2)])
def test_value_rejects_out_of_range_indices(idx):
    mod, omega = heis_pair_instance()
    with pytest.raises(ValueError):
        omega.value(*idx)


@pytest.mark.parametrize("xi", [(1,), (1, 0, 0), (0, 1, 1)])
def test_contract_rejects_wrong_length(xi):
    mod, omega = heis_pair_instance()
    with pytest.raises(ValueError):
        contract(xi, omega)


def test_lie_derivative_checks_xi_without_index_tuples():
    # a degree-3 cochain over a 2-dim algebra has no increasing tuples
    mod = LieModule.trivial(LieAlgebra.abelian(2), 1)
    c = Cochain.zero(mod, 3)
    assert c.rows == ()
    assert lie_derivative((1, 2), c) == c
    with pytest.raises(ValueError, match="vector length mismatch"):
        lie_derivative((1, 2, 3, 4, 5), c)
    with pytest.raises(TypeError):
        lie_derivative((0.5, 1), c)


def test_from_dict_sign_normalization():
    mod, _ = heis_pair_instance()
    a = Cochain.from_dict(mod, 2, {(0, 1): (0, 0, -1)})
    b = Cochain.from_dict(mod, 2, {(1, 0): (0, 0, 1)})
    assert a == b
    with pytest.raises(ValueError):
        Cochain.from_dict(mod, 2, {(1, 1): (0, 0, 1)})


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 1): (1, 2, 3)},  # would spill its 3 into the block of (0, 2)
        {(0, 1): (5,)},  # would be read as (5, 0)
        {(1, 2): (1, 2, 3)},  # over-long on the last tuple
        {(0, 1, 2): (1, 2)},  # a 3-index key for a 2-cochain
    ],
)
def test_from_dict_rejects_wrong_lengths(entries):
    mod = LieModule.trivial(heis3(), 2)
    with pytest.raises(ValueError):
        Cochain.from_dict(mod, 2, entries)


def test_from_values_rejects_a_value_of_the_wrong_length():
    # lengths 4, 2 and 3 add up to the 9 coordinates of C^2(sl2, sl2); read
    # as one flat list, the value on (0, 2) would be (4, 5, 6)
    mod = adjoint_module(sl2())
    values = {(0, 1): (1, 2, 3, 4), (0, 2): (5, 6), (1, 2): (7, 8, 9)}
    with pytest.raises(ValueError, match=r"value at \(0, 1\) does not have 3 entries"):
        Cochain.from_values(mod, 2, lambda i, j: values[i, j])
    values[0, 1] = (1, 2, 3)
    with pytest.raises(ValueError, match=r"value at \(0, 2\) does not have 3 entries"):
        Cochain.from_values(mod, 2, lambda i, j: values[i, j])


def test_contract_heis_pair_omega():
    mod, omega = heis_pair_instance()
    # i_x omega = omega(x, .): sends y to -Z
    ix = contract((1, 0), omega)
    assert ix.value(1) == (F(0), F(0), F(-1))
    assert ix.value(0) == (F(0), F(0), F(0))


@pytest.mark.parametrize("dims", [(3, 3), (4, 4), (5, 3), (3, 5)])
@pytest.mark.parametrize("seed", range(4))
def test_contraction_matrix_columns_are_contractions(dims, seed):
    bundle = random_instance(dims, seed)
    mod = bundle.module
    n = mod.algebra.dim
    rng = random.Random(seed)
    values = (0, 0, 1, -2, F(3, 4))
    # the gallery omega is closed, so degree 3 also gets an arbitrary cochain
    arbitrary = [
        Cochain(mod, p, [rng.choice(values) for _ in range(cochain_dim(mod, p))])
        for p in (1, 2, 3)
    ]
    for c in arbitrary + [bundle.omega, differential(arbitrary[1])]:
        built = contraction_matrix(c)
        assert built.ncols == n and built.nrows == cochain_dim(mod, c.degree - 1)
        rests, _ = tuple_basis(n, c.degree - 1)
        for i in range(n):
            # (i_{e_i} c)(s) = c(e_i, s), read off the values
            expected = tuple(x for s in rests for x in c.value(i, *s))
            assert built.column(i) == contract(unit_vector(n, i), c).coords == expected


def test_double_contraction_antisymmetry():
    mod = adjoint_module(sl2())
    c = sample_cochain(mod, 2)
    xi, eta = (1, 2, 0), (0, 1, -1)
    assert contract(eta, contract(xi, c)).coords == tuple(
        -x for x in contract(xi, contract(eta, c)).coords
    )


@pytest.mark.parametrize("mod_idx", range(5))
@pytest.mark.parametrize("degree", [1, 2])
def test_cartan_homotopy_formula(mod_idx, degree):
    mod = sample_modules()[mod_idx]
    c = sample_cochain(mod, degree)
    xi = tuple(F(i + 1, 2) for i in range(mod.algebra.dim))
    lhs = lie_derivative(xi, c)
    rhs = contract(xi, differential(c)) + differential(contract(xi, c))
    assert lhs == rhs


def test_cartan_in_degree_zero():
    mod, _ = heis_pair_instance()
    v = Cochain(mod, 0, (1, 2, 3))
    xi = (F(1), F(-2))
    assert lie_derivative(xi, v).coords == contract(xi, differential(v)).coords


@pytest.mark.parametrize("mod_idx", range(5))
def test_contraction_commutator_is_bracket_contraction(mod_idx):
    # [L_xi, i_eta] = i_[xi, eta]
    mod = sample_modules()[mod_idx]
    alg = mod.algebra
    c = sample_cochain(mod, 2, salt=5)
    xi = tuple(F(i + 1) for i in range(alg.dim))
    eta = tuple(F(2 - i, 3) for i in range(alg.dim))
    lhs = lie_derivative(xi, contract(eta, c)) - contract(eta, lie_derivative(xi, c))
    rhs = contract(alg.bracket(xi, eta), c)
    assert lhs == rhs


@pytest.mark.parametrize("mod_idx", range(5))
def test_lie_derivative_commutator(mod_idx):
    # [L_xi, L_eta] = L_[xi, eta]
    mod = sample_modules()[mod_idx]
    alg = mod.algebra
    c = sample_cochain(mod, 1, salt=3)
    xi = tuple(F((i * 2 + 1) % 5) for i in range(alg.dim))
    eta = tuple(F(1 - i) for i in range(alg.dim))
    lhs = lie_derivative(xi, lie_derivative(eta, c)) - lie_derivative(
        eta, lie_derivative(xi, c)
    )
    assert lhs == lie_derivative(alg.bracket(xi, eta), c)


# -- cohomology oracles --------------------------------------------------------

def test_heis3_trivial_coefficients_betti_numbers():
    mod = LieModule.trivial(heis3(), 1)
    assert cohomology(mod, 0).dim == 1
    assert cohomology(mod, 1).dim == 2
    assert cohomology(mod, 2).dim == 2


def test_sl2_adjoint_cohomology_vanishes():
    mod = adjoint_module(sl2())
    assert cohomology(mod, 0).dim == 0
    assert cohomology(mod, 1).dim == 0
    assert cohomology(mod, 2).dim == 0


def test_abelian_trivial_cohomology_is_full_cochain_space():
    mod = LieModule.trivial(LieAlgebra.abelian(2), 1)
    assert [cohomology(mod, p).dim for p in (0, 1, 2)] == [1, 2, 1]


def test_invariant_vectors_of_adjoint_is_center():
    mod = adjoint_module(heis3())
    assert invariant_vectors(mod) == Subspace.from_vectors(3, [(0, 0, 1)])


def test_v_h_is_derived_once_per_module():
    mod, omega = heis_pair_instance()
    assert analyze(mod, omega).invariants is invariant_vectors(mod)
    assert cohomology(mod, 0).cocycles is invariant_vectors(mod)


def test_cohomology_class_computation_on_heis3():
    mod = LieModule.trivial(heis3(), 1)
    h2 = cohomology(mod, 2)
    # omega(X,Y) = 1 is a coboundary (d of alpha with alpha(Z) = -1)
    exact = Cochain.from_dict(mod, 2, {(0, 1): (1,)})
    assert not any(h2.class_of(exact))
    # omega(X,Z) = 1 is closed but not exact
    other = Cochain.from_dict(mod, 2, {(0, 2): (1,)})
    assert any(h2.class_of(other))
    assert cohomology(mod, 2) is h2  # cached


@pytest.mark.parametrize("degree", [1, 2])
def test_class_of_rejects_a_cochain_over_another_module(degree):
    mod, _ = heis_pair_instance()
    h = cohomology(mod, degree)
    # closed, and of the right degree and size, but over Q^3 with h acting trivially
    other = LieModule.trivial(LieAlgebra.abelian(2), 3)
    c = Cochain(other, degree, [1] * cochain_dim(other, degree))
    with pytest.raises(ValueError, match="cochains over different modules"):
        h.class_of(c)
    # an equal module built anew is the same module
    same = LieModule(mod.algebra, mod.dim, mod.action)
    zero = Cochain.zero(same, degree)
    assert not any(h.class_of(zero))


def test_cohomology_degree_cap():
    mod = LieModule.trivial(heis3(), 1)
    with pytest.raises(UnsupportedDegree):
        CohomologySpace(mod, 3)


def test_sort_with_sign():
    assert sort_with_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_with_sign((1, 0)) == (-1, (0, 1))
    assert sort_with_sign((1, 1)) == (0, None)


def test_tuple_basis_layout():
    tuples, index = tuple_basis(3, 2)
    assert tuples == ((0, 1), (0, 2), (1, 2))
    assert index[(0, 2)] == 1


def test_scalar_multiple_is_exact_and_rejects_floats():
    mod, omega = heis_pair_instance()
    c = Cochain.from_dict(mod, 2, {(0, 1): (F(1, 2), 0, -3)})
    expected = (F(3, 4), F(0), F(-9, 2))
    for scalar in (F(3, 2), "3/2", 3):
        got = (scalar * c).coords
        assert all(type(x) is F for x in got)
        assert got == tuple(F(scalar) * x for x in c.coords)
    assert (F(3, 2) * c).coords == ("3/2" * c).coords == expected
    with pytest.raises(TypeError):
        0.1 * omega

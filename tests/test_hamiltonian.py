"""Hamiltonian analysis on hand-derived instances.

Instances frozen here (all values derived by hand from the definitions):

1. heis pair: abelian h = Q^2 on V = heis3 coords, omega(x,y) = -Z.
   sp = ham = h, rad = 0, V^h = span Z, V_omega = V, {X,Y} = Z.
2. point symplectic: abelian h = Q^2, trivial V = Q, omega(e1,e2) = 1.
   sp = h, ham = rad = 0, flux injective.
3. heis3 with trivial coefficients, omega(X,Y) = 1.
   rad = ham = span Z proper in sp = h: flux kernel = ham.
4. sl2 with trivial coefficients, omega(e,f) = 1.
   rad = sp = ham = span h; normalizer = span h is proper in sl2.
"""

from fractions import Fraction as F

import pytest

from hamflux.cochain import Cochain, contract, differential, lie_derivative
from hamflux.errors import (
    InvariantViolation,
    NotAdmissible,
    NotInImage,
    NotSymplectic,
)
from hamflux.hamiltonian import (
    HamiltonianPair,
    abelian_bracket,
    analyze,
    hamiltonian_pair,
    oneform_bracket,
    pair_bracket,
)
from hamflux.liealg import LieAlgebra, LieModule
from hamflux.linalg import Subspace, vector
from util import heis3, heis_pair_instance, sl2, sl2_adjoint_instance


def point_symplectic():
    h = LieAlgebra.abelian(2)
    mod = LieModule.trivial(h, 1)
    return mod, Cochain.from_dict(mod, 2, {(0, 1): (1,)})


def heis3_trivial():
    mod = LieModule.trivial(heis3(), 1)
    return mod, Cochain.from_dict(mod, 2, {(0, 1): (1,)})


def sl2_trivial():
    mod = LieModule.trivial(sl2(), 1)
    return mod, Cochain.from_dict(mod, 2, {(0, 1): (1,)})


def rank_deficient_line():
    # one-dimensional h acting on Q^2 by a Jordan block, omega forced zero
    h = LieAlgebra.abelian(1)
    mod = LieModule(h, 2, [[[0, 1], [0, 0]]])
    return mod, Cochain.zero(mod, 2)


# -- instance 1: heis pair ----------------------------------------------------

def test_heis_pair_subspace_dims():
    an = analyze(*heis_pair_instance())
    assert an.symplectic.dim == 2
    assert an.hamiltonian.dim == 2
    assert an.radical.dim == 0
    assert an.normalizer.dim == 2
    assert an.invariants == Subspace.from_vectors(3, [(0, 0, 1)])
    assert an.admissible.dim == 3


def test_heis_pair_lifts_are_canonical():
    an = analyze(*heis_pair_instance())
    assert an.hamiltonian_lift((1, 0, 0)) == (F(1), F(0))
    assert an.hamiltonian_lift((0, 1, 0)) == (F(0), F(1))
    assert an.hamiltonian_lift((0, 0, 1)) == (F(0), F(0))


def test_heis_pair_poisson_recovers_heisenberg_bracket():
    an = analyze(*heis_pair_instance())
    X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert an.poisson_bracket(X, Y) == vector(Z)
    assert an.poisson_bracket(Y, X) == vector((0, 0, -1))
    assert an.poisson_bracket(X, Z) == vector((0, 0, 0))


def test_heis_pair_poisson_three_expressions_agree():
    an = analyze(*heis_pair_instance())
    mod = an.module
    v1, v2 = (1, 2, -1), (3, 0, 5)
    x1 = an.hamiltonian_lift(v1)
    x2 = an.hamiltonian_lift(v2)
    p = an.poisson_bracket(v1, v2)
    assert p == mod.act(x1, vector(v2))
    assert p == tuple(-c for c in mod.act(x2, vector(v1)))
    assert p == tuple(-c for c in an.omega_value(x1, x2))


def test_heis_pair_exactness_report():
    rep = analyze(*heis_pair_instance()).exactness_report()
    assert rep["dims"] == {
        "symplectic": 2,
        "hamiltonian": 2,
        "radical": 0,
        "normalizer": 2,
        "invariants": 1,
        "admissible": 3,
        "differential_image": 2,
    }
    assert rep["hamiltonian_sequence_exact"]
    assert rep["admissible_sequence_exact"]


def test_heis_pair_flux_trivial_since_ham_equals_sp():
    an = analyze(*heis_pair_instance())
    assert all(c == 0 for c in an.flux_class((1, 0)))
    assert all(c == 0 for c in an.flux_class((0, 1)))


def test_heis_pair_pairs_and_brackets():
    an = analyze(*heis_pair_instance())
    pX = hamiltonian_pair(an, (1, 0, 0), (1, 0))
    pY = hamiltonian_pair(an, (0, 1, 0), (0, 1))
    out = pair_bracket(an, pX, pY)
    assert out == HamiltonianPair(vector((0, 0, 1)), vector((0, 0)))
    # -omega(x,y) = Z while [x,y] = 0 in the abelian algebra
    with pytest.raises(InvariantViolation):
        hamiltonian_pair(an, (1, 0, 0), (0, 1))


def test_heis_pair_abelian_bracket_agrees_on_valid_pairs():
    an = analyze(*heis_pair_instance())
    pX = hamiltonian_pair(an, (1, 0, 0), (1, 0))
    pY = hamiltonian_pair(an, (0, 1, 0), (0, 1))
    w, x = abelian_bracket(an, (pX.v, pX.xi), (pY.v, pY.xi))
    hat = pair_bracket(an, pX, pY)
    assert (w, x) == (hat.v, hat.xi)


def test_heis_pair_oneform_bracket():
    an = analyze(*heis_pair_instance())
    a1 = contract((1, 0), an.omega)
    a2 = contract((0, 1), an.omega)
    out = oneform_bracket(an, a1, a2)
    assert out.is_zero()  # [x, y] = 0 here
    # displayed identity: [a1,a2] = L_x a2 - i_y L_x omega
    rhs = lie_derivative((1, 0), a2) - contract((0, 1), lie_derivative((1, 0), an.omega))
    assert out == rhs
    bad = Cochain.from_dict(an.module, 1, {(0,): (1, 0, 0)})
    with pytest.raises(NotInImage):
        oneform_bracket(an, bad, a1)


def test_heis_pair_symplectic_characterization_via_lie_derivative():
    # xi is symplectic iff L_xi omega = 0 and i_xi d omega = 0 (Cartan)
    an = analyze(*heis_pair_instance())
    for xi in [(1, 0), (0, 1), (2, -3)]:
        assert lie_derivative(xi, an.omega).is_zero()


# -- instance 2: point symplectic ----------------------------------------------

def test_point_symplectic_dims_and_flux():
    an = analyze(*point_symplectic())
    assert an.symplectic.dim == 2
    assert an.hamiltonian.dim == 0
    assert an.radical.dim == 0
    assert an.admissible.dim == 1  # V_omega = V^h = V
    assert an.invariants.dim == 1
    # flux is injective here: nonzero classes on a basis
    assert an.flux_class((1, 0)) != an.flux_class((0, 0))
    assert any(c != 0 for c in an.flux_class((1, 0)))
    assert any(c != 0 for c in an.flux_class((0, 1)))


def test_point_symplectic_lift_of_invariant_vector_is_zero():
    an = analyze(*point_symplectic())
    assert an.hamiltonian_lift((1,)) == (F(0), F(0))


# -- instance 3: heis3, trivial coefficients ------------------------------------

def test_heis3_trivial_flux_kernel_is_ham():
    an = analyze(*heis3_trivial())
    assert an.symplectic.dim == 3
    assert an.hamiltonian == Subspace.from_vectors(3, [(0, 0, 1)])
    assert an.radical == an.hamiltonian
    # flux vanishes exactly on ham
    assert all(c == 0 for c in an.flux_class((0, 0, 1)))
    assert any(c != 0 for c in an.flux_class((1, 0, 0)))
    assert any(c != 0 for c in an.flux_class((0, 1, 0)))


def test_heis3_trivial_exactness_with_degenerate_image():
    rep = analyze(*heis3_trivial()).exactness_report()
    assert rep["dims"]["differential_image"] == 0
    assert rep["hamiltonian_sequence_exact"]
    assert rep["admissible_sequence_exact"]


# -- instance 4: sl2, trivial coefficients ---------------------------------------

def test_sl2_trivial_proper_normalizer():
    an = analyze(*sl2_trivial())
    line_h = Subspace.from_vectors(3, [(0, 0, 1)])
    assert an.radical == line_h
    assert an.symplectic == line_h
    assert an.hamiltonian == line_h
    assert an.normalizer == line_h  # [e,h], [f,h] escape the radical
    assert an.invariants.dim == 1
    assert an.admissible.dim == 1


def test_sl2_trivial_not_symplectic_flux_rejected():
    an = analyze(*sl2_trivial())
    with pytest.raises(NotSymplectic):
        an.flux_class((1, 0, 0))


def test_sl2_trivial_abelian_bracket_guards():
    an = analyze(*sl2_trivial())
    with pytest.raises(NotSymplectic):
        abelian_bracket(an, ((1,), (1, 0, 0)), ((1,), (0, 0, 1)))


# -- instance 5: rank-deficient line ---------------------------------------------

def test_rank_deficient_lift_failure():
    an = analyze(*rank_deficient_line())
    assert an.admissible == Subspace.from_vectors(2, [(1, 0)])
    assert an.hamiltonian_lift((1, 0)) == (F(0),)
    with pytest.raises(NotAdmissible):
        an.hamiltonian_lift((0, 1))


def test_zero_omega_report_shape():
    an = analyze(*rank_deficient_line())
    rep = an.exactness_report()
    # omega = 0: rad = ham = h, admissible = invariants, image = 0
    assert rep["dims"]["radical"] == 1
    assert rep["dims"]["hamiltonian"] == 1
    assert rep["dims"]["differential_image"] == 0
    assert rep["dims"]["admissible"] == rep["dims"]["invariants"] == 1


def test_potential_of_round_trip():
    an = analyze(*heis_pair_instance())
    v = an.potential_of((1, 0))
    dv = differential(Cochain(an.module, 0, v))
    assert dv == contract((1, 0), an.omega)


@pytest.mark.parametrize("xi", [(1,), (1, 0), (1, 0, 0, 0), (0, 0, 0, 1)])
def test_queries_reject_wrong_length_vectors(xi):
    an = analyze(*sl2_adjoint_instance())
    with pytest.raises(ValueError):
        an.potential_of(xi)
    with pytest.raises(ValueError):
        an.omega_value(xi, (0, 1, 0))
    with pytest.raises(ValueError):
        an.omega_value((0, 1, 0), xi)

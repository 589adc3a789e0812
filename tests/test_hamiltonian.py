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
from functools import partial

import pytest

import hamflux.hamiltonian
from hamflux.cochain import (
    Cochain,
    cochain_dim,
    contract,
    differential,
    differential_matrix,
    lie_derivative,
)
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
from hamflux.gallery import matrix_algebra_example, random_instance
from hamflux.liealg import AlgebraHom, LieAlgebra, LieModule
from hamflux.linalg import (
    LinearSolver,
    Matrix,
    Subspace,
    hstack,
    kernel_basis,
    quotient_map,
    unit_vector,
    vector,
    vstack,
)
from hamflux.momentum import (
    abelian_extension,
    baer_product,
    central_extension,
    equivariantize,
    solve_momentum,
)
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


# -- the lattice is derived on first access --------------------------------------

def eager_contraction(c):
    n = c.module.algebra.dim
    cols = [contract(unit_vector(n, i), c).coords for i in range(n)]
    return Matrix.from_columns(cols, cochain_dim(c.module, c.degree - 1))


def eager_lattice(module, omega):
    """Every subspace by the formulas the analysis once evaluated up front."""
    n, m = module.algebra.dim, module.dim
    c2, c3 = eager_contraction(omega), eager_contraction(differential(omega))
    d0, d1 = differential_matrix(module, 0), differential_matrix(module, 1)
    radical = kernel_basis(vstack(c2, c3))
    top = hstack(c2, -1 * d0)
    bottom = hstack(c3, Matrix.zeros(c3.nrows, m))
    pairs = kernel_basis(vstack(top, bottom)).basis.columns()
    blocks = [c3]
    if radical.dim:
        q = quotient_map(n, radical)
        for r in radical.basis.columns():
            cols = [module.algebra.bracket(unit_vector(n, i), r) for i in range(n)]
            blocks.append(q * Matrix.from_columns(cols, n))
    stacked = blocks[0]
    for b in blocks[1:]:
        stacked = vstack(stacked, b)
    return {
        "_contraction": c2,
        "_contraction3": c3,
        "symplectic": kernel_basis(vstack(d1 * c2, c3)),
        "radical": radical,
        "invariants": kernel_basis(d0),
        "hamiltonian": Subspace.from_vectors(n, [p[:n] for p in pairs]),
        "admissible": Subspace.from_vectors(m, [p[n:] for p in pairs]),
        "normalizer": kernel_basis(stacked),
    }


def random_pair(dims, seed):
    bundle = random_instance(dims, seed)
    return bundle.module, bundle.omega


LATTICE_INSTANCES = {
    "heis_pair": heis_pair_instance,
    "point_symplectic": point_symplectic,
    "heis3_trivial": heis3_trivial,
    "sl2_trivial": sl2_trivial,
    "rank_deficient": rank_deficient_line,
    "sl2_adjoint": sl2_adjoint_instance,
    **{
        f"random_{dims[0]}x{dims[1]}_s{seed}": partial(random_pair, dims, seed)
        for dims in [(3, 3), (4, 4), (5, 3), (3, 5)]
        for seed in range(3)
    },
}


@pytest.mark.parametrize("name", sorted(LATTICE_INSTANCES))
def test_lazy_attributes_equal_the_eager_formulas(name):
    module, omega = LATTICE_INSTANCES[name]()
    an = analyze(module, omega)
    expected = eager_lattice(module, omega)
    for attr, value in expected.items():
        assert getattr(an, attr) == value, attr
        assert getattr(an, attr) is getattr(an, attr), attr
    lift_matrix = vstack(expected["_contraction"], expected["_contraction3"])
    assert an._lift_solver.matrix == lift_matrix
    assert an._potential_solver.matrix == differential_matrix(module, 0)


def action_instance(name):
    if name == "sl3":
        bundle = matrix_algebra_example(3)
        return bundle.module, bundle.omega, bundle.zeta
    module, omega = heis_pair_instance()
    return module, omega, AlgebraHom.identity(module.algebra)


@pytest.mark.parametrize("name", ["sl3", "heis"])
def test_momentum_and_extensions_leave_the_rest_of_the_lattice_unbuilt(name):
    module, omega, zeta = action_instance(name)
    an = analyze(module, omega)
    momentum, _ = solve_momentum(an, zeta)
    central_extension(momentum)
    abelian_extension(an, zeta)
    baer_product(an, zeta, momentum=momentum)
    equivariantize(momentum)
    built = set(vars(an))
    assert not built & {"symplectic", "radical", "normalizer", "_lift_solver"}
    assert {"hamiltonian", "admissible", "invariants", "_potential_solver"} <= built


ONEFORM_INSTANCES = [heis_pair_instance, sl2_adjoint_instance, sl2_trivial]


@pytest.mark.parametrize("instance", ONEFORM_INSTANCES)
def test_oneform_bracket_builds_its_solver_once(instance, monkeypatch):
    an = analyze(*instance())
    basis = an.normalizer.basis
    xis = basis.columns() + [basis.apply((2,) * basis.ncols)]
    forms = [contract(xi, an.omega) for xi in xis]

    # one solver per call, as oneform_bracket built it before
    def reference(a1, a2):
        solver = LinearSolver(an._contraction * basis)
        x1, x2 = (basis.apply(solver.solve(a.coords)) for a in (a1, a2))
        return contract(an.module.algebra.bracket(x1, x2), an.omega)

    pairs = [(i, j) for i in range(len(forms)) for j in range(len(forms))]
    expected = {(i, j): reference(forms[i], forms[j]) for i, j in pairs}
    built = []

    def counting(m):
        built.append(m)
        return LinearSolver(m)

    monkeypatch.setattr(hamflux.hamiltonian, "LinearSolver", counting)
    for (i, j), value in expected.items():
        assert oneform_bracket(an, forms[i], forms[j]) == value
    assert len(built) == 1
    assert vars(an)["_oneform_solver"] is an._oneform_solver

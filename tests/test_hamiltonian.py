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

import random
from fractions import Fraction as F
from functools import partial
from pathlib import Path

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
    Unsolvable,
)
from hamflux.hamiltonian import (
    HamiltonianPair,
    abelian_bracket,
    analyze,
    hamiltonian_pair,
    oneform_bracket,
    pair_bracket,
)
from hamflux.gallery import from_central_extension, matrix_algebra_example, random_instance
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
    zero_vector,
)
from hamflux.momentum import (
    abelian_extension,
    baer_product,
    central_extension,
    equivariantize,
    solve_momentum,
)
from hamflux.problemfile import parse_problem
from util import heis3, heis3_plus_line, heis_pair_instance, sl2, sl2_adjoint_instance

DATA = Path(__file__).parent / "data"


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
    with pytest.raises(ValueError):
        an.hamiltonian_lift(xi)
    with pytest.raises(ValueError):
        an.poisson_bracket(xi, (0, 1, 0))
    with pytest.raises(ValueError):
        an.poisson_bracket((0, 1, 0), xi)
    with pytest.raises(ValueError):
        an.module.act(xi, (0, 1, 0))
    with pytest.raises(ValueError):
        an.module.act((0, 1, 0), xi)
    with pytest.raises(ValueError):
        an.admissible.coords_of(xi)


def test_queries_reject_inexact_entries():
    an = analyze(*sl2_adjoint_instance())
    inexact, exact = (0, 0.5, 0), (0, 1, 0)
    queries = [
        partial(an.hamiltonian_lift, inexact),
        partial(an.poisson_bracket, inexact, exact),
        partial(an.poisson_bracket, exact, inexact),
        partial(an.module.act, inexact, exact),
        partial(an.module.act, exact, inexact),
        partial(an.admissible.coords_of, inexact),
    ]
    for query in queries:
        with pytest.raises(TypeError):
            query()


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
    assert not built & {"symplectic", "radical", "normalizer", "_lift_solver", "_lift_matrix"}
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


# -- the lift matrix and the row kernels against solver references ---------------

def heis_pair_plus_jordan():
    """The heis pair with a summand Q^2 on which e_0 acts by a Jordan block.
    omega has no values in the summand, so its non-invariant vector is not
    admissible: V_omega is proper, and the lifts on the heis part are not 0."""
    h = LieAlgebra.abelian(2)
    rho_x = [[0] * 5 for _ in range(5)]
    rho_y = [[0] * 5 for _ in range(5)]
    rho_x[2][1], rho_x[3][4], rho_y[2][0] = 1, 1, -1
    module = LieModule(h, 5, [rho_x, rho_y])
    return module, Cochain.from_dict(module, 2, {(0, 1): (0, 0, -1, 0, 0)})


def fixture_pair(name):
    pf = parse_problem((DATA / f"{name}.json").read_text())
    return pf.module, pf.omega


def bundle_pair(bundle):
    return bundle.module, bundle.omega


# instances whose ham is nontrivial, so lifts and brackets are not all zero
LIFT_INSTANCES = {
    "heis_pair": heis_pair_instance,
    "heis_pair_plus_jordan": heis_pair_plus_jordan,
    "sl2_adjoint": sl2_adjoint_instance,
    "heis3_fixture": partial(fixture_pair, "heis3"),
    "sl2_m2_fixture": partial(fixture_pair, "sl2_m2"),
    "gl2": lambda: bundle_pair(matrix_algebra_example(2)),
    "central_heis3": lambda: bundle_pair(
        from_central_extension(heis3(), Subspace.from_vectors(3, [(0, 0, 1)]))
    ),
    # the radical is a line here, so the canonical lift is a choice
    "central_heis3_plus_line": lambda: bundle_pair(
        from_central_extension(heis3_plus_line(), Subspace.from_vectors(4, [(0, 0, 1, 0)]))
    ),
}

SAMPLE_COEFFS = [F(x) for x in (-2, -1, 0, 1, 3)] + [F(1, 2), F(-2, 3)]


def sample_vectors(rng, sub, count=6):
    """Unit vectors and zero in the ambient of sub, members of sub and
    random vectors."""
    n = sub.ambient
    draw = partial(rng.choice, SAMPLE_COEFFS)
    members = [sub.basis.apply([draw() for _ in range(sub.dim)]) for _ in range(count)]
    others = [tuple(draw() for _ in range(n)) for _ in range(count)]
    return [unit_vector(n, i) for i in range(n)] + [zero_vector(n)] + members + others


def reference_coords(sub, v):
    """Dense pivot read and a residual check through basis.apply."""
    pivots = [next(i for i, x in enumerate(col) if x) for col in sub.basis.columns()]
    coords = tuple(F(v[p]) for p in pivots)
    if sub.basis.apply(coords) != vector(v):
        raise Unsolvable("outside")
    return coords


@pytest.mark.parametrize("name", sorted(LIFT_INSTANCES))
def test_lifts_and_brackets_equal_the_solver_references(name):
    module, omega = LIFT_INSTANCES[name]()
    an = analyze(module, omega)
    c3 = eager_contraction(differential(omega))
    solver = LinearSolver(vstack(eager_contraction(omega), c3))
    d0 = differential_matrix(module, 0)
    vectors = sample_vectors(random.Random(name), an.admissible)
    lifted = rejected = 0
    for v in vectors:
        try:
            expected = solver.solve(d0.apply(v) + zero_vector(c3.nrows))
        except Unsolvable:
            with pytest.raises(NotAdmissible, match="^vector has no hamiltonian lift$"):
                an.hamiltonian_lift(v)
            with pytest.raises(NotAdmissible):
                an.poisson_bracket(v, vectors[0])
            assert not an.admissible.contains(v)
            rejected += 1
            continue
        assert an.hamiltonian_lift(v) == expected
        lifted += any(expected)
        for w in vectors:
            assert an.poisson_bracket(v, w) == module.act(expected, w)
            assert module.act(expected, w) == module.action_of(expected).apply(w)
    assert lifted
    # every unit vector is a sample, so a proper V_omega leaves some out
    assert bool(rejected) == (an.admissible.dim < module.dim)


@pytest.mark.parametrize("name", sorted(LIFT_INSTANCES))
def test_coordinates_equal_the_dense_reference(name):
    an = analyze(*LIFT_INSTANCES[name]())
    rng = random.Random(name)
    for attr in ("admissible", "invariants", "radical", "hamiltonian", "symplectic"):
        sub = getattr(an, attr)
        for v in sample_vectors(rng, sub):
            try:
                expected = reference_coords(sub, v)
            except Unsolvable:
                with pytest.raises(Unsolvable):
                    sub.coords_of(v)
                continue
            assert sub.coords_of(v) == expected, attr

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

import json
import random
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamflux.hamiltonian
import hamflux.linalg
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
from hamflux.liealg import AlgebraHom, LieAlgebra, LieModule, adjoint_module
from hamflux.linalg import (
    LinearSolver,
    Matrix,
    Subspace,
    hstack,
    kernel_basis,
    quotient_map,
    rref,
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
from hamflux.problemfile import parse_problem
from util import (
    heis3,
    heis3_plus_line,
    heis_pair_instance,
    rational_limit_document,
    rescaled,
    sl2,
    sl2_adjoint_instance,
    unit_vector,
    zero_vector,
)

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


def solver_lift_matrix(module, omega, admissible):
    """Rows: the canonical lifts of the admissible basis vectors, each
    solved, free variables zero, by one solver of [C; C3]."""
    c2, c3 = eager_contraction(omega), eager_contraction(differential(omega))
    solver = LinearSolver(vstack(c2, c3))
    d0 = differential_matrix(module, 0)
    zero = zero_vector(c3.nrows)
    lifts = [solver.solve(d0.apply(b) + zero) for b in admissible.basis.columns()]
    return Matrix(lifts, module.algebra.dim)


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
    assert an._lift_matrix == solver_lift_matrix(module, omega, an.admissible)
    assert an._potential_solver.matrix == differential_matrix(module, 0)


def test_limit_document_sends_the_rows_of_i_xi_d_omega_to_one_elimination(monkeypatch):
    """On rational_limit_document(2), K = 0: one elimination of the 1,920
    rows of i_xi d(omega) decides the lattice, and no other elimination has
    that many nonzero rows or columns."""
    pf = parse_problem(json.dumps(rational_limit_document(2)))
    an = analyze(pf.module, pf.omega)
    c3 = eager_contraction(an.d_omega)
    assert c3.nrows == 1920
    calls = []
    int_rref = hamflux.linalg._int_rref

    def counting(rows, ncols):
        calls.append((list(rows), ncols))
        return int_rref(rows, ncols)

    monkeypatch.setattr(hamflux.linalg, "_int_rref", counting)
    report = an.exactness_report()
    assert set(report["dims"].values()) == {0}
    large = [
        rows for rows, ncols in calls if ncols >= c3.nrows or sum(bool(p) for _, p in rows) >= c3.nrows
    ]
    assert large == [list(c3.sparse_rows)]


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
    # the same with the radical spanned by (1, 0, -1/2): its first and last
    # nonzero columns differ, and only the last is free in RREF([C; C3])
    "central_heis3_plus_line_sheared": lambda: sheared(
        LIFT_INSTANCES["central_heis3_plus_line"](), 0, 2, F(2)
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


NONZERO_ENTRY = st.sampled_from([F(x) for x in (1, -1, 2)] + [F(1, 2), F(-3, 5)])
SCALE = st.sampled_from([F(x) for x in (1, -1, 2, 3)] + [F(1, 2), F(-5, 3), F(7, 4)])
CLOSED_PAIRS = [
    heis3_trivial,
    sl2_trivial,
    rank_deficient_line,
    point_symplectic,
    *LIFT_INSTANCES.values(),
]
# summands on which a moved omega is rarely closed: over an algebra of dim
# 2, or heis3 with trivial coefficients, every 2-cochain is closed
SUMMANDS = [
    sl2_adjoint_instance,
    sl2_trivial,
    lambda: (adjoint_module(heis3()), Cochain.zero(adjoint_module(heis3()), 2)),
]


def rescaled_pair(module, omega, lam, mu):
    """The module and omega in the bases e'_i = lam_i e_i, v'_a = mu_a v_a,
    as in util.rescaled: omega(e'_i, e'_j) = lam_i lam_j omega(e_i, e_j)."""
    new = rescaled(module, lam, mu)

    def value(i, j):
        return [lam[i] * lam[j] * x / mu[a] for a, x in enumerate(omega.value(i, j))]

    return new, Cochain.from_values(new, 2, value)


def direct_sum(first, second):
    """(h1 + h2, V1 + V2, omega1 + omega2): each algebra acts on its own
    summand and brackets trivially with the other, and omega vanishes on
    mixed pairs, so d omega = d omega1 + d omega2."""
    (mod1, omega1), (mod2, omega2) = first, second
    n1, n = mod1.algebra.dim, mod1.algebra.dim + mod2.algebra.dim
    m1, m = mod1.dim, mod1.dim + mod2.dim
    c1, c2 = mod1.algebra.structure, mod2.algebra.structure

    def bracket(i, j):
        if i < n1 and j < n1:
            return c1[i][j] + (0,) * (n - n1)
        if i >= n1 and j >= n1:
            return (0,) * n1 + c2[i - n1][j - n1]
        return (0,) * n

    def action(i):
        out = [[0] * m for _ in range(m)]
        rho, off = (mod1.action[i], 0) if i < n1 else (mod2.action[i - n1], m1)
        for a, row in enumerate(rho.entries):
            out[off + a][off : off + len(row)] = row
        return out

    alg = LieAlgebra([[bracket(i, j) for j in range(n)] for i in range(n)])
    module = LieModule(alg, m, [action(i) for i in range(n)])

    def value(i, j):
        if i < n1 and j < n1:
            return omega1.value(i, j) + (0,) * (m - m1)
        if i >= n1 and j >= n1:
            return (0,) * m1 + omega2.value(i - n1, j - n1)
        return (0,) * m

    return module, Cochain.from_values(module, 2, value)


def sheared(pair, i, j, t):
    """The module and omega in the basis e'_j = e_j + t e_i of the algebra,
    the other e'_k = e_k, which moves subspaces off the coordinate axes."""
    module, omega = pair
    alg, n = module.algebra, module.algebra.dim
    basis = [unit_vector(n, k) for k in range(n)]
    basis[j] = tuple(x + t * y for x, y in zip(basis[j], basis[i]))

    def coords(w):
        # w = sum_k c_k e'_k has c_k = w_k except c_i = w_i - t w_j
        return tuple(x - t * w[j] if k == i else x for k, x in enumerate(w))

    table = [[coords(alg.bracket(x, y)) for y in basis] for x in basis]
    new = LieModule(LieAlgebra(table), module.dim, [module.action_of(x) for x in basis])

    def value(a, b):
        return contract(basis[b], contract(basis[a], omega)).coords

    return new, Cochain.from_values(new, 2, value)


@st.composite
def moved(draw, pair):
    """omega with one or two coordinates moved, which usually leaves it
    not closed."""
    module, omega = pair
    coords = list(omega.coords)
    if not coords:  # an algebra of dim 1 has no 2-cochains
        return pair
    moves = st.dictionaries(st.integers(0, len(coords) - 1), NONZERO_ENTRY, min_size=1, max_size=2)
    for q, x in draw(moves).items():
        coords[q] += x
    return module, Cochain(module, 2, coords)


@st.composite
def lattice_cases(draw):
    """A random_instance or a rescaled instance, with its closed omega or
    with omega moved; or the direct sum of one of these, closed, and a
    small instance with omega moved, in either order; then possibly
    sheared. K = {xi : i_xi d omega = 0} is h for a closed omega, and often
    proper otherwise; in a direct sum it holds the hamiltonian elements of
    the closed summand."""
    kind = draw(st.sampled_from(["sum", "moved", "sum", "closed"]))
    if draw(st.booleans()):
        dims = draw(st.sampled_from([(3, 3), (4, 4), (5, 3), (3, 5)]))
        bundle = random_instance(dims, draw(st.integers(0, 30)))
        pair = bundle.module, bundle.omega
    else:
        module, omega = draw(st.sampled_from(CLOSED_PAIRS))()
        lam = draw(st.lists(SCALE, min_size=module.algebra.dim, max_size=module.algebra.dim))
        mu = draw(st.lists(SCALE, min_size=module.dim, max_size=module.dim))
        pair = rescaled_pair(module, omega, lam, mu)
    if kind == "moved":
        pair = draw(moved(pair))
    elif kind == "sum":
        summand = draw(moved(draw(st.sampled_from(SUMMANDS))()))
        pair = direct_sum(*((summand, pair) if draw(st.booleans()) else (pair, summand)))
    n = pair[0].algebra.dim
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        pair = sheared(pair, i, j, draw(SCALE))
    return pair


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lattice_cases())
def test_lattice_and_lifts_equal_the_eager_formulas(case):
    module, omega = case
    an = analyze(module, omega)
    expected = eager_lattice(module, omega)
    for attr, value in expected.items():
        assert getattr(an, attr) == value, attr
    admissible = expected["admissible"]
    assert an._lift_matrix == solver_lift_matrix(module, omega, admissible)
    d0 = differential_matrix(module, 0)
    image = Subspace.from_vectors(
        cochain_dim(module, 1), [d0.apply(b) for b in admissible.basis.columns()]
    )
    dims = {attr: value.dim for attr, value in expected.items() if not attr.startswith("_")}
    assert an.exactness_report()["dims"] == {**dims, "differential_image": image.dim}


# -- pair, semidirect and one-form brackets against dense formulas ---------------

def dense_bracket(alg, x, y):
    n, c = alg.dim, alg.structure
    return tuple(
        sum((x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)), F(0))
        for k in range(n)
    )


def dense_act(module, x, v):
    rho, m = [a.entries for a in module.action], module.dim
    return tuple(
        sum((x[l] * rho[l][a][b] * v[b] for l in range(len(x)) for b in range(m)), F(0))
        for a in range(m)
    )


def dense_omega(omega, x, y):
    """omega(x, y) = sum over i, j of x_i y_j omega(e_i, e_j)."""
    n, m = omega.module.algebra.dim, omega.module.dim
    return tuple(
        sum((x[i] * y[j] * omega.value(i, j)[a] for i in range(n) for j in range(n)), F(0))
        for a in range(m)
    )


def dense_i_omega(omega, x):
    """The coords of i_x omega: the value on e_b is omega(x, e_b)."""
    n = omega.module.algebra.dim
    return tuple(a for b in range(n) for a in dense_omega(omega, x, unit_vector(n, b)))


# instances whose ham is not abelian, each rescaled before use
NONABELIAN_HAM = [sl2_adjoint_instance, lambda: bundle_pair(matrix_algebra_example(2))]
COEFF = st.one_of(st.just(F(0)), SCALE)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_pair_semidirect_and_oneform_brackets_equal_the_dense_formulas(data):
    module, omega = data.draw(st.sampled_from(NONABELIAN_HAM))()
    lam = data.draw(st.lists(SCALE, min_size=module.algebra.dim, max_size=module.algebra.dim))
    mu = data.draw(st.lists(SCALE, min_size=module.dim, max_size=module.dim))
    module, omega = rescaled_pair(module, omega, lam, mu)
    alg, an = module.algebra, analyze(module, omega)

    def member(sub):
        return sub.basis.apply(data.draw(st.lists(COEFF, min_size=sub.dim, max_size=sub.dim)))

    x1, x2 = member(an.hamiltonian), member(an.hamiltonian)
    assert an.omega_value(x1, x2) == dense_omega(omega, x1, x2)
    # the potential solves d v = i_xi omega with every free column of d zero
    d0 = differential_matrix(module, 0)
    pivots = {next(j for j, x in enumerate(row) if x) for row in rref(d0).entries if any(row)}
    v1, v2 = an.potential_of(x1), an.potential_of(x2)
    for x, v in ((x1, v1), (x2, v2)):
        assert tuple(sum(a * b for a, b in zip(row, v)) for row in d0.entries) == dense_i_omega(
            omega, x
        )
        assert all(v[j] == 0 for j in range(module.dim) if j not in pivots)
    p1, p2 = hamiltonian_pair(an, v1, x1), hamiltonian_pair(an, v2, x2)
    w = tuple(-a for a in dense_omega(omega, x1, x2))
    assert pair_bracket(an, p1, p2) == HamiltonianPair(w, dense_bracket(alg, x1, x2))

    s1, s2 = member(an.symplectic), member(an.symplectic)
    u1, u2 = member(an.admissible), member(an.admissible)
    parts = zip(dense_act(module, s1, u2), dense_act(module, s2, u1), dense_omega(omega, s1, s2))
    expected = tuple(a - b + c for a, b, c in parts)
    assert abelian_bracket(an, (u1, s1), (u2, s2)) == (expected, dense_bracket(alg, s1, s2))

    n1, n2 = member(an.normalizer), member(an.normalizer)
    got = oneform_bracket(an, contract(n1, omega), contract(n2, omega))
    assert got.coords == dense_i_omega(omega, dense_bracket(alg, n1, n2))

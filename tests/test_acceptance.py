"""Whole-surface checks, one test per shipped guarantee.

Every assertion is exact rational equality; there are no tolerances
anywhere. The randomized corpora use string seeds, so a failure reproduces
bit for bit. Each test prints one [acceptance] line on success (visible
with -s); under -v the test names themselves give the pass/fail roster.
"""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from hamflux.cli import main
from hamflux.cochain import (
    Cochain,
    cochain_dim,
    cohomology,
    contract,
    differential,
    differential_matrix,
    lie_derivative,
)
from hamflux.errors import HypothesisViolation
from hamflux.gallery import (
    associative_algebra_example,
    from_central_extension,
    full_matrix_table,
    matrix_algebra_example,
    random_instance,
    upper_triangular_table,
)
from hamflux.groupelem import (
    adjoint_on_extension,
    affine_action,
    compose,
    exp_nilpotent,
    group_cocycle,
    group_cocycle_check,
    group_element,
    inverse,
)
from hamflux.hamiltonian import analyze
from hamflux.liealg import AlgebraHom, LieAlgebra, LieModule, center, subalgebra
from hamflux.linalg import Matrix, Subspace, kernel_basis
from hamflux.momentum import (
    MomentumMap,
    abelian_extension,
    baer_product,
    central_extension,
    equivariant_pair_check,
    equivariantize,
    obstruction_cocycle,
    pullback_cocycle,
    pullback_module,
    solve_momentum,
)
from hamflux.noether import commuting_actions_check, invariant_flow_check
from hamflux.problemfile import parse_problem, problem_to_text

from util import heis3, heis_pair_instance, sl2_adjoint_instance

DATA = Path(__file__).parent / "data"

SMALL = [F(-2), F(-1), F(1), F(2), F(1, 2), F(-1, 3), F(3)]

CORPUS_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4)]


def report(label):
    print(f"[acceptance] {label}: PASS")


def basis_vec(n, i):
    return tuple(F(1) if q == i else F(0) for q in range(n))


def rand_vector(rng, n):
    return tuple(rng.choice(SMALL) if rng.random() < 0.7 else F(0) for _ in range(n))


def rand_combination(rng, subspace):
    v = [F(0)] * subspace.ambient
    for j in range(subspace.dim):
        c = rng.choice(SMALL) if rng.random() < 0.7 else F(0)
        if c:
            col = subspace.basis.column(j)
            v = [a + c * b for a, b in zip(v, col)]
    return tuple(v)


def rand_cochain(rng, module, degree):
    return Cochain(module, degree, rand_vector(rng, cochain_dim(module, degree)))


@pytest.fixture(scope="module")
def corpus():
    out = []
    for dims in CORPUS_DIMS:
        for k in range(17):
            bundle = random_instance(dims, seed=f"acceptance-b{k}")
            out.append((bundle, analyze(bundle.module, bundle.omega)))
    return out


@pytest.fixture(scope="module")
def heis():
    module, omega = heis_pair_instance()
    analysis = analyze(module, omega)
    zeta = AlgebraHom.identity(module.algebra)
    momentum, _ = solve_momentum(analysis, zeta)
    return analysis, zeta, momentum


@pytest.fixture(scope="module")
def sl2_inst():
    module, omega = sl2_adjoint_instance()
    analysis = analyze(module, omega)
    zeta = AlgebraHom.identity(module.algebra)
    momentum, _ = solve_momentum(analysis, zeta)
    return analysis, zeta, momentum


# -- matrix algebras acting on themselves -----------------------------------------

def commutator_coords(n, a, b):
    A = Matrix([a[i * n : (i + 1) * n] for i in range(n)])
    B = Matrix([b[i * n : (i + 1) * n] for i in range(n)])
    C = A * B - B * A
    return tuple(x for row in C.entries for x in row)


def test_matrix_algebra_commutator_suite():
    for n in (2, 3):
        bundle = matrix_algebra_example(n)
        analysis = analyze(bundle.module, bundle.omega)
        dims = analysis.exactness_report()["dims"]
        assert dims["symplectic"] == dims["hamiltonian"] == n * n - 1
        assert dims["radical"] == 0
        identity = tuple(F(1) if i % (n + 1) == 0 else F(0) for i in range(n * n))
        assert analysis.invariants == Subspace.from_vectors(n * n, [identity])
        assert analysis.admissible == Subspace.full(n * n)
        assert cohomology(bundle.module, 1).dim == 0
        assert cohomology(bundle.module, 2).dim == 0
        rng = random.Random(f"acceptance-matrix:{n}")
        for _ in range(100):
            a = rand_vector(rng, n * n)
            b = rand_vector(rng, n * n)
            assert analysis.poisson_bracket(a, b) == commutator_coords(n, a, b)
    report("matrix algebras n = 2, 3: poisson = commutator, H^1 = H^2 = 0")


# -- reading a central extension backwards -----------------------------------------

def gl2_algebra():
    mult = full_matrix_table(2)
    structure = [
        [tuple(x - y for x, y in zip(mult[i][j], mult[j][i])) for j in range(4)]
        for i in range(4)
    ]
    return LieAlgebra(structure)


def heis_plus_line():
    table = [[(0,) * 4 for _ in range(4)] for _ in range(4)]
    table[0][1] = (0, 0, 1, 0)
    table[1][0] = (0, 0, -1, 0)
    return LieAlgebra(table)


def test_central_extension_recovery():
    cases = [
        (heis3(), [(0, 0, 1)]),
        (heis_plus_line(), [(0, 0, 0, 1)]),
        (gl2_algebra(), [(1, 0, 0, 1)]),
    ]
    for hat, z_vecs in cases:
        n = hat.dim
        z = Subspace.from_vectors(n, z_vecs)
        zhat = center(hat).dim
        bundle = from_central_extension(hat, z)
        analysis = analyze(bundle.module, bundle.omega)
        # the poisson bracket of coordinate vectors is the original bracket
        for i in range(n):
            for j in range(n):
                got = analysis.poisson_bracket(basis_vec(n, i), basis_vec(n, j))
                assert got == hat.structure[i][j]
        dims = analysis.exactness_report()["dims"]
        assert dims["symplectic"] == dims["hamiltonian"] == n - z.dim
        assert dims["radical"] == zhat - z.dim
        assert dims["invariants"] == zhat
        assert dims["admissible"] == n
        # pair algebra = the extension plus the projected remainder of its center
        assert dims["hamiltonian"] + dims["invariants"] == n + (zhat - z.dim)
    report("central-extension recovery on heis3, heis3 + line, gl2")


# -- differential, contraction, derivative identities ------------------------------

def test_complex_identities_randomized():
    count = 0
    for dims in CORPUS_DIMS:
        for k in range(34):
            bundle = random_instance(dims, seed=f"acceptance-a{k}")
            module = bundle.module
            rng = random.Random(f"acceptance-a:{bundle.label}:{k}")
            n = module.algebra.dim
            xi = rand_vector(rng, n)
            eta = rand_vector(rng, n)
            c0 = rand_cochain(rng, module, 0)
            c1 = rand_cochain(rng, module, 1)
            c2 = rand_cochain(rng, module, 2)
            c3 = differential(c2)
            assert differential(differential(c0)).is_zero()
            assert differential(differential(c1)).is_zero()
            for c in (c1, c2):
                cartan = contract(xi, differential(c)) + differential(contract(xi, c))
                assert lie_derivative(xi, c) == cartan
            bracket = module.algebra.bracket(xi, eta)
            for c in (c2, c3):
                lhs = lie_derivative(xi, contract(eta, c)) - contract(
                    eta, lie_derivative(xi, c)
                )
                assert lhs == contract(bracket, c)
            count += 1
    assert count >= 200
    report(f"complex identities (d^2, cartan, derivative-contraction) on {count} instances")


# -- the poisson structure on admissible vectors -----------------------------------

def test_poisson_structure_randomized(corpus):
    count = 0
    for bundle, analysis in corpus:
        module = bundle.module
        n = module.algebra.dim
        rng = random.Random(f"acceptance-p:{bundle.label}")
        assert differential(analysis.omega).is_zero()  # the corpus draws cocycles
        pb = analysis.poisson_bracket
        v1 = rand_combination(rng, analysis.admissible)
        v2 = rand_combination(rng, analysis.admissible)
        v3 = rand_combination(rng, analysis.admissible)
        jacobi = [
            a + b + c
            for a, b, c in zip(pb(v1, pb(v2, v3)), pb(v2, pb(v3, v1)), pb(v3, pb(v1, v2)))
        ]
        assert all(x == 0 for x in jacobi)
        # bracket values cannot depend on the choice of hamiltonian lift:
        # two lifts differ by the radical, which must kill admissible vectors
        for j in range(analysis.radical.dim):
            r = analysis.radical.basis.column(j)
            assert all(x == 0 for x in module.act(r, v1))
            assert all(x == 0 for x in module.act(r, v2))
        # invariant vectors are poisson-central
        for j in range(analysis.invariants.dim):
            w = analysis.invariants.basis.column(j)
            assert all(x == 0 for x in pb(w, v1))
            assert all(x == 0 for x in pb(v1, w))
        rep = analysis.exactness_report()
        assert rep["hamiltonian_sequence_exact"]
        assert rep["admissible_sequence_exact"]
        # the two descriptions of the symplectic subalgebra agree
        cols = [
            lie_derivative(basis_vec(n, i), analysis.omega).coords
            + contract(basis_vec(n, i), analysis.d_omega).coords
            for i in range(n)
        ]
        stacked = Matrix.from_columns(cols, 2 * cochain_dim(module, 2))
        assert kernel_basis(stacked) == analysis.symplectic
        count += 1
    assert count >= 100
    report(f"poisson structure (jacobi, lifts, centrality, exactness) on {count} instances")


# -- momentum maps, obstruction, equivariantization ---------------------------------

def tau_identity_holds(momentum):
    analysis, zeta = momentum.analysis, momentum.zeta
    tau = obstruction_cocycle(momentum)
    pb_module = pullback_module(analysis, zeta)
    flat = tuple(x for i in range(momentum.g.dim) for x in momentum.matrix.column(i))
    j_cochain = Cochain(pb_module, 1, flat)
    return tau == differential(j_cochain) + pullback_cocycle(analysis, zeta)


def momentum_freedom_is_invariant_homs(momentum):
    analysis, zeta = momentum.analysis, momentum.zeta
    module = analysis.module
    # homogeneous solutions per column are exactly the invariant vectors
    if kernel_basis(differential_matrix(module, 0)) != analysis.invariants:
        return False
    zero = (F(0),) * module.dim
    for l in range(momentum.g.dim):
        for j in range(analysis.invariants.dim):
            cols = [
                analysis.invariants.basis.column(j) if q == l else zero
                for q in range(momentum.g.dim)
            ]
            shifted = momentum.matrix + Matrix.from_columns(cols, module.dim)
            MomentumMap(analysis, zeta, shifted)  # validates the defining equation
    return True


def test_momentum_equivariance_suite(corpus, heis, sl2_inst):
    _, _, h_momentum = heis
    _, _, s_momentum = sl2_inst
    solved = [solve_momentum(analysis, bundle.zeta)[0] for bundle, analysis in corpus]
    solved += [h_momentum, s_momentum]
    all_true = all_false = 0
    for momentum in solved:
        rep = equivariant_pair_check(momentum)
        assert rep["agree"]  # the four conditions rise and fall together
        if rep["equivariant"]:
            all_true += 1
        else:
            all_false += 1
        assert tau_identity_holds(momentum)
        assert momentum_freedom_is_invariant_homs(momentum)
    assert all_true >= 1 and all_false >= 1  # both truth values exercised
    # heisenberg: obstructed, and the central extension is heis3 again
    rep = equivariant_pair_check(h_momentum)
    assert not any(
        rep[k]
        for k in ("poisson_map", "equivariant", "obstruction_vanishes", "pair_section_hom")
    )
    assert not obstruction_cocycle(h_momentum).is_zero()
    res = equivariantize(h_momentum)
    assert not res.success
    assert any(x != 0 for x in res.obstruction_class)
    assert res.cohomology_dim == 1
    cen = central_extension(h_momentum)
    perm = Matrix.from_columns([(0, 0, 1), (1, 0, 0), (0, 1, 0)], 3)
    AlgebraHom(cen.total, heis3(), perm)  # bracket-preserving
    assert perm.rank() == 3  # and invertible: an isomorphism
    # sl2 adjoint: the class vanishes and the corrected map is equivariant
    res2 = equivariantize(s_momentum)
    assert res2.success
    assert all(x == 0 for x in res2.obstruction_class)
    assert obstruction_cocycle(res2.momentum).is_zero()
    assert all(equivariant_pair_check(res2.momentum).values())
    report(f"momentum equivalences, tau = dJ + omega_g, freedom ({len(solved)} maps)")


# -- supplied group elements ---------------------------------------------------------

TS = [
    F(1), F(-1), F(2), F(-2), F(3),
    F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(1, 3),
    F(-2, 3), F(5, 2), F(-5, 2), F(1, 4), F(3, 4),
    F(-3, 4), F(7, 5), F(-7, 5), F(9, 4), F(-11, 6),
]


def test_group_element_family(heis):
    analysis, zeta, momentum = heis
    assert len(set(TS)) == 20
    cen = central_extension(momentum)
    alpha = Matrix([[0, 0], [0, 0], [1, 2]])
    elements = []
    for t in TS:
        rho_v = exp_nilpotent(analysis.module.action_of((1, 0)), t)
        g = group_element(analysis, zeta, Matrix.identity(2), rho_v, label=f"g_{t}")
        K = group_cocycle(g, momentum)
        for i in range(K.ncols):
            assert analysis.invariants.contains(K.column(i))
        assert K == Matrix([[0, 0], [0, 0], [0, t]])
        assert K * g.ad == -1 * group_cocycle(inverse(g), momentum)
        A = adjoint_on_extension(g, momentum)
        total = cen.total
        for i in range(total.dim):
            for j in range(i + 1, total.dim):
                assert A.apply(total.structure[i][j]) == total.bracket(
                    A.column(i), A.column(j)
                )
        assert A.rank() == total.dim
        elements.append(g)
    for g1, g2 in zip(elements, elements[1:]):
        assert group_cocycle_check(g1, g2, momentum)
        lhs = affine_action(compose(g1, g2), momentum, alpha)
        rhs = affine_action(g1, momentum, affine_action(g2, momentum, alpha))
        assert lhs == rhs
    report(f"group-element family over {len(TS)} rational parameters")


# -- the two extension constructions agree -------------------------------------------

def check_baer_equivalence(analysis, zeta):
    res = baer_product(analysis, zeta)
    assert res.extension.kind == "baer"
    assert res.abelian.kind == "abelian"
    psi = res.equivalence
    n = res.extension.total.dim
    assert psi * res.extension.injection == res.abelian.injection
    assert res.abelian.projection * psi == res.extension.projection
    AlgebraHom(res.extension.total, res.abelian.total, psi)  # bracket-preserving
    assert psi.rank() == n
    independent = abelian_extension(analysis, zeta)
    assert independent.total.structure == res.abelian.total.structure
    assert independent.injection == res.abelian.injection
    assert independent.projection == res.abelian.projection
    assert independent.section == res.abelian.section


def test_baer_equivalence_gallery(corpus):
    worked = [
        matrix_algebra_example(2),
        matrix_algebra_example(3),
        associative_algebra_example(upper_triangular_table(2)),
        associative_algebra_example(full_matrix_table(2)),
        from_central_extension(heis3(), Subspace.from_vectors(3, [(0, 0, 1)])),
        from_central_extension(heis_plus_line(), Subspace.from_vectors(4, [(0, 0, 0, 1)])),
        from_central_extension(gl2_algebra(), Subspace.from_vectors(4, [(1, 0, 0, 1)])),
    ]
    checked = 0
    for bundle in worked:
        check_baer_equivalence(analyze(bundle.module, bundle.omega), bundle.zeta)
        checked += 1
    for bundle, analysis in corpus:
        check_baer_equivalence(analysis, bundle.zeta)
        checked += 1
    report(f"baer product equivalent to the semidirect cocycle extension ({checked} instances)")


# -- conservation statements ----------------------------------------------------------

def direct_sum_instance(b1, b2):
    """Two bundles side by side: h1 + h2 on V1 + V2 with omega1 + omega2."""
    alg1, alg2 = b1.module.algebra, b2.module.algebra
    n1, n2 = alg1.dim, alg2.dim
    m1, m2 = b1.module.dim, b2.module.dim

    def pad1(v):
        return tuple(v) + (F(0),) * n2

    def pad2(v):
        return (F(0),) * n1 + tuple(v)

    zero_row = (F(0),) * (n1 + n2)
    structure = [
        [
            pad1(alg1.structure[i][j])
            if i < n1 and j < n1
            else pad2(alg2.structure[i - n1][j - n1])
            if i >= n1 and j >= n1
            else zero_row
            for j in range(n1 + n2)
        ]
        for i in range(n1 + n2)
    ]
    algebra = LieAlgebra(structure)

    def block(top, bottom):
        rows = [tuple(r) + (F(0),) * m2 for r in top.entries]
        rows += [(F(0),) * m1 + tuple(r) for r in bottom.entries]
        return Matrix(rows)

    action = [block(b1.module.action[i], Matrix.zeros(m2, m2)) for i in range(n1)]
    action += [block(Matrix.zeros(m1, m1), b2.module.action[i]) for i in range(n2)]
    module = LieModule(algebra, m1 + m2, action)

    def value(i, j):
        if i < n1 and j < n1:
            return tuple(b1.omega.value(i, j)) + (F(0),) * m2
        if i >= n1 and j >= n1:
            return (F(0),) * m1 + tuple(b2.omega.value(i - n1, j - n1))
        return (F(0),) * (m1 + m2)

    omega = Cochain.from_values(module, 2, value)
    return algebra, module, omega, (pad1, pad2)


def test_conservation_suite(corpus, heis):
    flow_checks = 0
    commuting_checks = 0
    for bundle, analysis in corpus:
        algebra = bundle.module.algebra
        momentum, _ = solve_momentum(analysis, bundle.zeta)
        rng = random.Random(f"acceptance-n:{bundle.label}")
        # invariant vector with a radical lift: the premises hold by construction
        v = rand_combination(rng, analysis.invariants)
        r = rand_combination(rng, analysis.radical)
        rep = invariant_flow_check(analysis, momentum, v, r)
        assert rep.hypothesis_ok and rep.conclusion_ok
        assert all(all(x == 0 for x in res) for res in rep.residuals())
        flow_checks += 1
        # single-generator action with its canonical potential
        if analysis.hamiltonian.dim:
            xi = analysis.hamiltonian.basis.column(0)
            _, inc = subalgebra(algebra, Subspace.from_vectors(algebra.dim, [xi]))
            m_small, _ = solve_momentum(analysis, inc)
            rep = invariant_flow_check(analysis, m_small, analysis.potential_of(xi), xi)
            assert rep.hypothesis_ok and rep.conclusion_ok
            flow_checks += 1
        if analysis.radical.dim:
            _, r_inc = subalgebra(algebra, analysis.radical)
            m_rad, _ = solve_momentum(analysis, r_inc)
            rep = commuting_actions_check(analysis, m_rad, momentum)
            assert rep.hypothesis_ok and rep.conclusion_ok
            commuting_checks += 1
    # block-diagonal double instances: the two actions commute by construction
    for (b1, a1), (b2, a2) in zip(corpus[0::2], corpus[1::2]):
        algebra, module, omega, (pad1, pad2) = direct_sum_instance(b1, b2)
        big = analyze(module, omega)
        ham1 = Subspace.from_vectors(
            algebra.dim, [pad1(c) for c in a1.hamiltonian.basis.columns()]
        )
        ham2 = Subspace.from_vectors(
            algebra.dim, [pad2(c) for c in a2.hamiltonian.basis.columns()]
        )
        _, inc1 = subalgebra(algebra, ham1)
        _, inc2 = subalgebra(algebra, ham2)
        m1, _ = solve_momentum(big, inc1)
        m2, _ = solve_momentum(big, inc2)
        rep = commuting_actions_check(big, m1, m2)
        assert rep.hypothesis_ok and rep.conclusion_ok
        assert all(all(x == 0 for x in res) for res in rep.residuals())
        commuting_checks += 1
    assert flow_checks >= 50 and commuting_checks >= 50

    # violated premises raise, naming the premise; no report is produced
    a_h, _, m_h = heis
    with pytest.raises(HypothesisViolation) as exc:
        x_coord = (F(1), F(0), F(0))
        invariant_flow_check(a_h, m_h, x_coord, a_h.hamiltonian_lift(x_coord))
    assert exc.value.premise == "v is g-invariant"
    with pytest.raises(HypothesisViolation) as exc:
        invariant_flow_check(a_h, m_h, (F(0), F(0), F(1)), (F(1), F(0)))
    assert exc.value.premise == "d v = i_xi omega"
    with pytest.raises(HypothesisViolation) as exc:
        commuting_actions_check(a_h, m_h, m_h)
    assert exc.value.premise == "J2 values are g1-invariant"
    # with omega not closed the pair equation can hold for a non-hamiltonian xi
    module, _ = sl2_adjoint_instance()
    omega_open = Cochain.from_dict(module, 2, {(0, 1): (F(1), F(0), F(0))})
    analysis_open = analyze(module, omega_open)
    assert not differential(omega_open).is_zero()
    h_elt = (F(0), F(0), F(1))
    assert not analysis_open.hamiltonian.contains(h_elt)
    zeta0 = AlgebraHom(LieAlgebra.abelian(1), module.algebra, Matrix.zeros(3, 1))
    m0, _ = solve_momentum(analysis_open, zeta0)
    with pytest.raises(HypothesisViolation) as exc:
        invariant_flow_check(analysis_open, m0, (F(0),) * 3, h_elt)
    assert exc.value.premise == "xi is hamiltonian"
    report(
        f"conservation checks ({flow_checks} flow, {commuting_checks} commuting, 4 violations)"
    )


# -- command line ---------------------------------------------------------------------

CANONICAL = ["sl2_m2.json", "heis3.json", "zeta_zero.json", "omega_zero.json"]


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_round_trips_and_exit_codes(capsys, tmp_path):
    for name in CANONICAL:
        text = (DATA / name).read_text()
        assert problem_to_text(parse_problem(text)) == text  # byte-exact
    # compactly formatted input canonicalizes to a stable fixed point
    compact = (DATA / "abelian_min.json").read_text()
    once = problem_to_text(parse_problem(compact))
    assert parse_problem(once) == parse_problem(compact)
    assert problem_to_text(parse_problem(once)) == once
    code, _, _ = run_cli(capsys, "validate", DATA / "heis3.json")
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["momentum"])  # missing file: usage error
    assert exc.value.code == 1
    capsys.readouterr()
    code, _, err = run_cli(capsys, "validate", DATA / "broken_jacobi.json")
    assert code == 2 and "JacobiViolation" in err
    code, _, err = run_cli(capsys, "momentum", DATA / "not_hamiltonian.json")
    assert code == 3 and "not hamiltonian" in err
    kinds = {"cen": "central", "ab": "abelian", "baer": "baer"}
    for kind, label in kinds.items():
        code, out, _ = run_cli(capsys, "extend", DATA / "heis3.json", "--kind", kind)
        assert code == 0
        assert parse_problem(out).extension["kind"] == label
        emitted = tmp_path / f"ext_{kind}.json"
        emitted.write_text(out)
        code, _, _ = run_cli(capsys, "analyze", emitted)
        assert code == 0
    report("cli round trips bit-exact, exit codes 0/1/2/3, extensions re-analyzable")

"""Momentum maps, the obstruction cocycle, extensions, and the Baer product.

Two worked instances carry most of the load. The Heisenberg pair (abelian
Q^2 on V = Q^3, omega(x,y) = -Z) has the canonical momentum J(x) = X,
J(y) = Y with obstruction tau(x,y) = Z, so its central extension is the
Heisenberg algebra and no equivariant momentum map exists. The sl2 adjoint
instance with omega = -bracket has J = identity, which is already
equivariant, so every obstruction-level object collapses.
"""

import importlib
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamflux.cochain
import hamflux.momentum
from hamflux.cochain import (
    Cochain,
    CohomologySpace,
    differential,
    differential_matrix,
    tuple_basis,
)
from hamflux.errors import (
    AntisymmetryViolation,
    HamfluxError,
    ImageNotHamiltonian,
    InvariantViolation,
    JacobiViolation,
    NotPrimitive,
    Unsolvable,
)
from hamflux.hamiltonian import analyze
from hamflux.gallery import from_central_extension, matrix_algebra_example, random_instance
from hamflux.liealg import AlgebraHom, LieAlgebra, LieModule, _Rows
from hamflux.linalg import (
    _ZERO_ROW,
    LinearSolver,
    Matrix,
    Subspace,
    _concat,
    _dense,
    _sparse,
    kernel_basis,
    unit_vector,
    vec_neg,
    vec_sub,
)
from hamflux.momentum import (
    ExtensionPresentation,
    MomentumMap,
    abelian_extension,
    baer_product,
    central_extension,
    coboundary_trivialization,
    equivariant_pair_check,
    equivariantize,
    extended_momentum,
    extension_embedding,
    obstruction_cocycle,
    pullback_cocycle,
    pullback_module,
    solve_momentum,
)

from util import (
    assert_scaled_row,
    heis3,
    heis_pair_instance,
    sl2,
    sl2_adjoint_instance,
    solvable2,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def heis():
    module, omega = heis_pair_instance()
    analysis = analyze(module, omega)
    zeta = AlgebraHom.identity(module.algebra)
    momentum, freedom = solve_momentum(analysis, zeta)
    return analysis, zeta, momentum, freedom


@pytest.fixture(scope="module")
def sl2adj():
    module, omega = sl2_adjoint_instance()
    analysis = analyze(module, omega)
    zeta = AlgebraHom.identity(module.algebra)
    momentum, freedom = solve_momentum(analysis, zeta)
    return analysis, zeta, momentum, freedom


def test_heis_momentum_values(heis):
    _, _, momentum, _ = heis
    assert momentum.matrix == Matrix([[1, 0], [0, 1], [0, 0]])
    assert momentum.value((1, 0)) == (1, 0, 0)
    assert momentum.value((0, 1)) == (0, 1, 0)


def test_heis_freedom_is_invariants(heis):
    analysis, zeta, momentum, freedom = heis
    assert freedom is analysis.invariants
    assert freedom.dim == 1
    # shifting a column by an invariant gives another valid momentum map
    shifted = momentum.matrix + Matrix([[0, 0], [0, 0], [5, 0]])
    MomentumMap(analysis, zeta, shifted)


def test_heis_obstruction_cocycle(heis):
    analysis, _, momentum, _ = heis
    tau = obstruction_cocycle(momentum)
    assert tau.value(0, 1) == (0, 0, 1)
    assert tau.value(1, 0) == (0, 0, -1)
    # one pair, (0, 1): the value Z and its V^h coordinate 1
    assert tau.rows == ((1, ((2, 1),)),)
    assert momentum._cache["tau_coords"] == ((1, ((0, 1),)),)


def test_heis_central_extension_is_heisenberg(heis):
    _, _, momentum, _ = heis
    ext = central_extension(momentum)
    assert ext.kind == "central"
    assert ext.kernel_dim == 1
    assert ext.total.dim == 3
    # basis (z, x, y) with [x, y] = z: the Heisenberg relations
    assert ext.total.structure[1][2] == (1, 0, 0)
    assert ext.total.structure[1][0] == (0, 0, 0)
    assert ext.projection * ext.section == Matrix.identity(2)


def test_heis_equivariantize_obstructed(heis):
    _, _, momentum, _ = heis
    result = equivariantize(momentum)
    assert not result.success
    assert result.shift is None
    assert result.momentum is None
    assert result.obstruction_class == (1,)
    assert result.cohomology_dim == 1


def test_heis_abelian_extension(heis):
    analysis, zeta, _, _ = heis
    ext = abelian_extension(analysis, zeta)
    assert ext.kind == "abelian"
    assert ext.total.dim == 5
    assert ext.kernel_dim == 3
    # [x, y] carries omega(x, y) = -Z in the kernel slot
    assert ext.total.structure[3][4] == (0, 0, -1, 0, 0)
    # action slots: x.Y = Z, y.X = -Z
    assert ext.total.structure[3][1] == (0, 0, 1, 0, 0)
    assert ext.total.structure[4][0] == (0, 0, -1, 0, 0)


def test_heis_embedding_of_central_in_abelian(heis):
    analysis, zeta, momentum, _ = heis
    phi = extension_embedding(momentum)
    assert phi.column(0) == (0, 0, 1, 0, 0)
    assert phi.column(1) == (1, 0, 0, 1, 0)
    assert phi.column(2) == (0, 1, 0, 0, 1)
    assert phi.rank() == 3


def test_heis_extended_momentum(heis):
    _, _, momentum, _ = heis
    hat = extended_momentum(momentum)
    assert hat.matrix == Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert obstruction_cocycle(hat).is_zero()
    report = equivariant_pair_check(hat)
    assert report["agree"] and report["equivariant"]


def test_heis_baer_product(heis):
    analysis, zeta, momentum, _ = heis
    result = baer_product(analysis, zeta, momentum)
    ext = result.extension
    assert ext.kernel_dim == 3
    assert ext.total.dim == 5
    # the kernel slot of [x, y] now carries tau(x, y) = +Z
    assert ext.total.structure[3][4] == (0, 0, 1, 0, 0)
    assert result.abelian == abelian_extension(analysis, zeta)
    psi = result.equivalence
    assert psi.column(3) == (1, 0, 0, 1, 0)
    assert psi.rank() == 5


def test_heis_pair_check_all_false(heis):
    _, _, momentum, _ = heis
    report = equivariant_pair_check(momentum)
    assert report["agree"]
    assert not report["poisson_map"]
    assert not report["equivariant"]
    assert not report["obstruction_vanishes"]
    assert not report["pair_section_hom"]


def test_pullback_cocycle_matches_omega(heis):
    analysis, zeta, _, _ = heis
    omega_g = pullback_cocycle(analysis, zeta)
    assert omega_g.coords == analysis.omega.coords


@pytest.mark.parametrize(
    "cols",
    [
        [[0, 1], [1, 0]],
        [[2, F(1, 2)], [-3, 1]],
        [[F(-2, 3), 5], [F(7, 4), 0]],
        [[1, 1], [1, 1]],
    ],
)
def test_pullback_cocycle_is_omega_on_the_images(heis, cols):
    # omega_g(e_i, e_j) = sum of zeta_ai zeta_bj omega(e_a, e_b) over all
    # a, b, for zeta(e_i) = cols[i] on an abelian g, where every map is a hom
    analysis = heis[0]
    g = LieAlgebra.abelian(2)
    zeta = AlgebraHom(g, analysis.module.algebra, Matrix([list(r) for r in zip(*cols)]))
    omega_g = pullback_cocycle(analysis, zeta)
    m = analysis.module.dim
    for (i, j), row in zip(tuple_basis(2, 2)[0], omega_g.rows):
        want = (0,) * m
        for a, x in enumerate(cols[i]):
            for b, y in enumerate(cols[j]):
                want = tuple(w + x * y * v for w, v in zip(want, analysis.omega.value(a, b)))
        assert omega_g.value(i, j) == want
        assert_scaled_row(row, m)
        assert row == _sparse(want)


def test_identity_pullback_is_the_analysis_module(heis):
    analysis, _, _, _ = heis
    module = analysis.module
    identity = AlgebraHom.identity(module.algebra)
    assert pullback_module(analysis, identity) is module
    # so omega_g and tau are checked closed with the analysis module's own
    # cached differentials
    assert pullback_cocycle(analysis, identity).module is module


def test_other_pullbacks_build_and_validate_their_own_module(monkeypatch):
    module, omega = heis_pair_instance()
    analysis = analyze(module, omega)
    validated = []
    check = LieModule._validate
    monkeypatch.setattr(LieModule, "_validate", lambda self: (validated.append(self), check(self)))
    # an automorphism of the module's algebra, and the inclusion of a line
    swap = AlgebraHom(module.algebra, module.algebra, Matrix([[0, 1], [1, 0]]))
    line = AlgebraHom(LieAlgebra.abelian(1), module.algebra, Matrix([[1], [0]]))
    for zeta, action in ((swap, module.action[::-1]), (line, module.action[:1])):
        pb = pullback_module(analysis, zeta)
        assert pb is not module and validated[-1] is pb
        assert pb.algebra is zeta.source and pb.action == action
    assert len(validated) == 2


def test_pullbacks_to_a_module_of_dim_0():
    g = heis3()
    module = LieModule(g, 0, [[]] * g.dim)
    analysis = analyze(module, Cochain(module, 2, []))
    line = AlgebraHom(LieAlgebra.abelian(1), g, Matrix([[1], [0], [0]]))
    plane = AlgebraHom(LieAlgebra.abelian(2), g, Matrix([[1, 0], [0, 0], [0, 1]]))
    for zeta in (AlgebraHom.identity(g), line, plane):
        momentum, _ = solve_momentum(analysis, zeta)
        assert pullback_cocycle(analysis, zeta).coords == ()
        assert obstruction_cocycle(momentum).coords == ()
        abelian = abelian_extension(analysis, zeta)
        assert abelian.kernel_dim == 0 and abelian.total == zeta.source


def test_sl3_pipeline_assembles_no_degree_1_or_2_differential(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    result = workloads.pipeline_op(workloads.pipeline_setup(1, tmp_path))
    # d omega, sp, omega_g and tau apply d to cochains; only the matrices
    # that are eliminated are assembled, and none of them is d_1 or d_2 of
    # the analysis module, on which omega_g and tau live for this zeta
    cache = result[1].analysis.module._cache
    assert result[2].module is result[1].analysis.module
    assert ("dmat", 1) not in cache and ("dmat", 2) not in cache


def test_sl2_adjoint_momentum_is_identity(sl2adj):
    _, _, momentum, freedom = sl2adj
    assert momentum.matrix == Matrix.identity(3)
    assert freedom.dim == 0


def test_sl2_adjoint_poisson_is_commutator(sl2adj):
    analysis, _, _, _ = sl2adj
    alg = analysis.module.algebra
    e, f, h = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    for a, b in [(e, f), (e, h), (f, h)]:
        assert analysis.poisson_bracket(a, b) == alg.bracket(a, b)


def test_sl2_adjoint_equivariant(sl2adj):
    _, _, momentum, _ = sl2adj
    assert obstruction_cocycle(momentum).is_zero()
    report = equivariant_pair_check(momentum)
    assert report["agree"] and report["poisson_map"]


def test_sl2_adjoint_equivariantize_noop(sl2adj):
    _, _, momentum, _ = sl2adj
    result = equivariantize(momentum)
    assert result.success
    assert result.shift.is_zero()
    assert result.momentum.matrix == momentum.matrix
    assert result.obstruction_class == ()


def test_sl2_adjoint_central_is_base(sl2adj):
    _, _, momentum, _ = sl2adj
    ext = central_extension(momentum)
    assert ext.kernel_dim == 0
    assert ext.total == momentum.g


def test_sl2_adjoint_baer(sl2adj):
    analysis, zeta, momentum, _ = sl2adj
    result = baer_product(analysis, zeta, momentum)
    ext = result.extension
    assert ext.total.dim == 6
    assert ext.kernel_dim == 3
    # tau = 0: the [e, f] slot carries only the base bracket h
    assert ext.total.structure[3][4] == (0, 0, 0, 0, 0, 1)
    # the abelian side carries omega_g(e, f) = -h in the kernel slot
    assert result.abelian.total.structure[3][4] == (0, 0, -1, 0, 0, 1)


def test_image_not_hamiltonian():
    from util import heis3

    module_alg = sl2()
    from hamflux.cochain import Cochain as C
    from hamflux.liealg import LieModule

    module = LieModule.trivial(module_alg, 1)
    omega = C.from_dict(module, 2, {(0, 1): (1,)})
    analysis = analyze(module, omega)
    zeta = AlgebraHom.identity(module_alg)
    with pytest.raises(ImageNotHamiltonian) as exc:
        solve_momentum(analysis, zeta)
    assert exc.value.index == 0


def test_momentum_matrix_validation(heis):
    analysis, zeta, _, _ = heis
    with pytest.raises(InvariantViolation):
        MomentumMap(analysis, zeta, Matrix.zeros(3, 2))
    with pytest.raises(ValueError):
        MomentumMap(analysis, zeta, Matrix.zeros(2, 2))


def test_baer_product_rejects_momentum_of_another_action(heis):
    analysis, zeta, momentum, _ = heis
    h = zeta.source
    swap = AlgebraHom(h, h, [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="different action"):
        baer_product(analysis, swap, momentum=momentum)
    other = analyze(*heis_pair_instance())
    with pytest.raises(ValueError, match="different action"):
        baer_product(other, zeta, momentum=momentum)


def test_coboundary_trivialization():
    from hamflux.liealg import LieAlgebra as LA

    module, omega = heis_pair_instance()
    analysis = analyze(module, omega)
    g = LA.abelian(1)
    zeta = AlgebraHom(g, module.algebra, Matrix([[1], [0]]))
    momentum, _ = solve_momentum(analysis, zeta)
    assert momentum.matrix == Matrix([[1], [0], [0]])
    # invariant primitive for the restricted action: alpha(x) = -X, alpha(y) = 0
    alpha = Cochain.from_dict(module, 1, {(0,): (-1, 0, 0)})
    f = coboundary_trivialization(momentum, alpha)
    assert f == Matrix.zeros(3, 1)
    # not a primitive at all
    with pytest.raises(NotPrimitive):
        coboundary_trivialization(momentum, Cochain.zero(module, 1))
    # a primitive that the action image does not preserve
    alpha_bad = Cochain.from_dict(module, 1, {(1,): (0, -1, 0)})
    with pytest.raises(NotPrimitive):
        coboundary_trivialization(momentum, alpha_bad)


def _reordered(alg, order):
    """alg on the basis e_order[0], e_order[1], ..."""
    s = alg.structure
    return LieAlgebra([[tuple(s[i][j][o] for o in order) for j in order] for i in order])


def test_extension_presentation_validation():
    # heis3 on (Z, X, Y) is a central extension of the abelian plane by span Z
    plane = LieAlgebra.abelian(2)
    ext = ExtensionPresentation("central", _reordered(heis3(), (2, 0, 1)), plane, 1)
    assert ext.injection == Matrix([[1], [0], [0]])
    assert ext.projection == Matrix([[0, 1, 0], [0, 0, 1]])
    assert ext.section == Matrix([[0, 0], [1, 0], [0, 1]])
    # span{h} is not an ideal of sl2, so the projection cannot be an algebra map
    with pytest.raises(HamfluxError, match="projection is not an algebra map"):
        ExtensionPresentation("central", _reordered(sl2(), (2, 0, 1)), plane, 1)
    # [x, y] = y on (y, x): span y is an ideal but not central
    yx = _reordered(solvable2(), (1, 0))
    ExtensionPresentation("abelian", yx, LieAlgebra.abelian(1), 1)
    with pytest.raises(HamfluxError, match="kernel is not central"):
        ExtensionPresentation("central", yx, LieAlgebra.abelian(1), 1)


@pytest.mark.parametrize(
    "total_dim, base_dim, kernel_dim", [(5, 2, 1), (3, 2, 2), (1, 2, -1)]
)
def test_extension_presentation_rejects_inexact_dimensions(
    total_dim, base_dim, kernel_dim
):
    total, base = LieAlgebra.abelian(total_dim), LieAlgebra.abelian(base_dim)
    with pytest.raises(ValueError, match="kernel_dim"):
        ExtensionPresentation("abelian", total, base, kernel_dim)


def test_extension_presentation_block_matrices(heis):
    analysis, zeta, _, _ = heis
    ext = abelian_extension(analysis, zeta)
    n, k = ext.total.dim, ext.kernel_dim
    assert k == 3
    # the kernel on the first k coordinates, the base on the rest
    tail = [unit_vector(n, k + i) for i in range(ext.base.dim)]
    assert ext.injection == Matrix.from_columns([unit_vector(n, i) for i in range(k)], n)
    assert ext.projection == Matrix(tail, n)
    assert ext.section == Matrix.from_columns(tail, n)


def test_derived_once_per_action(monkeypatch):
    builds = []
    build = hamflux.momentum.pullback_module

    def counting(analysis, zeta):
        builds.append(zeta)
        return build(analysis, zeta)

    monkeypatch.setattr(hamflux.momentum, "pullback_module", counting)
    module, omega = heis_pair_instance()
    analysis = analyze(module, omega)
    zeta = AlgebraHom.identity(module.algebra)
    momentum, _ = solve_momentum(analysis, zeta)
    equivariantize(momentum)
    central_extension(momentum)
    # the admissible action is derived once for the abelian table, W and the
    # tau check together: one run of the act kernel per (basis element of g,
    # admissible vector)
    acts = []
    act_row = type(module)._act_row

    def counting_act(self, xs, vs):
        acts.append(xs)
        return act_row(self, xs, vs)

    monkeypatch.setattr(type(module), "_act_row", counting_act)
    abelian_extension(analysis, zeta)
    baer_product(analysis, zeta, momentum=momentum)
    assert len(acts) == module.algebra.dim * analysis.admissible.dim
    # the store is keyed by value: an equal action reuses it
    abelian_extension(analysis, AlgebraHom(zeta.source, zeta.target, zeta.matrix))
    assert len(builds) == 1
    assert obstruction_cocycle(momentum) is obstruction_cocycle(momentum)
    assert central_extension(momentum) is central_extension(momentum)
    assert extended_momentum(momentum) is extended_momentum(momentum)
    assert abelian_extension(analysis, zeta) is abelian_extension(analysis, zeta)
    assert baer_product(analysis, zeta, momentum=momentum).abelian is abelian_extension(
        analysis, zeta
    )


def test_abelian_extension_rejects_values_outside_admissible(monkeypatch):
    module, omega = heis_pair_instance()
    analysis = analyze(module, omega)
    zeta = AlgebraHom.identity(module.algebra)
    # drop Z from the admissible vectors: x . Y = Z then escapes them
    kept = analysis.admissible.basis.columns()[:2]
    monkeypatch.setattr(analysis, "admissible", Subspace.from_vectors(module.dim, kept))
    with pytest.raises(HamfluxError) as err:
        abelian_extension(analysis, zeta)
    assert type(err.value) is HamfluxError
    assert str(err.value) == (
        "value escaped the admissible vectors; zeta image not hamiltonian"
    )


def test_baer_product_checks_the_tau_cocycle(monkeypatch):
    module, omega = heis_pair_instance()
    analysis = analyze(module, omega)
    zeta = AlgebraHom.identity(module.algebra)
    momentum, _ = solve_momentum(analysis, zeta)
    assert not obstruction_cocycle(momentum).is_zero()
    central_extension(momentum)
    # the quotient carries the true tau, the check now expects zero
    tau = momentum._cache["tau"]
    monkeypatch.setitem(momentum._cache, "tau", Cochain.zero(tau.module, 2))
    with pytest.raises(HamfluxError) as err:
        baer_product(analysis, zeta, momentum=momentum)
    assert type(err.value) is HamfluxError
    assert str(err.value) == "Baer product is not V_omega with the tau cocycle over g"


@pytest.mark.parametrize("name", ["heis", "sl3"])
def test_invariant_tau_reuses_the_coordinates_of_the_check(name, monkeypatch):
    if name == "sl3":
        bundle = matrix_algebra_example(3)
        module, omega, zeta = bundle.module, bundle.omega, bundle.zeta
    else:
        module, omega = heis_pair_instance()
        zeta = AlgebraHom.identity(module.algebra)
    analysis = analyze(module, omega)
    momentum, _ = solve_momentum(analysis, zeta)
    tau = obstruction_cocycle(momentum)
    inv = analysis.invariants
    # the V^h coordinates of tau, solved again from each value
    pairs, _ = tuple_basis(momentum.g.dim, 2)
    expected = tuple(_sparse(inv.coords_of(tau.value(i, j))) for i, j in pairs)
    assert momentum._cache["tau_coords"] == expected
    solves = []
    coords_row = Subspace._coords_row

    def counting(self, row):
        solves.append(row)
        return coords_row(self, row)

    monkeypatch.setattr(Subspace, "_coords_row", counting)
    # the central table reads its head off the stored coordinates
    central = central_extension(momentum).total
    assert solves == []
    k = inv.dim
    for (i, j), row in zip(pairs, expected):
        assert central._sparse[k + i][k + j] == _concat((row, momentum.g._sparse[i][j]), k)


def test_tau_values_outside_the_invariants_raise(monkeypatch):
    module, omega = heis_pair_instance()
    analysis = analyze(module, omega)
    momentum, _ = solve_momentum(analysis, AlgebraHom.identity(module.algebra))
    # tau(x, y) = Z, which leaves the zero subspace
    monkeypatch.setattr(analysis, "invariants", Subspace.zero(module.dim))
    with pytest.raises(HamfluxError) as err:
        obstruction_cocycle(momentum)
    assert type(err.value) is HamfluxError
    assert str(err.value) == "obstruction value escaped the invariants"


# -- each tau self-check, reached by breaking one derived object ----------------------

def exact_tau_instance():
    """A momentum map over heis3 whose obstruction is tau = d c != 0 in
    C^2(heis3, Q), c = e^2: tau(e_0, e_1) = -1, so equivariantize succeeds."""
    triv = LieModule.trivial(heis3(), 1)
    momentum = tau_instance(triv.algebra, differential(Cochain(triv, 1, (0, 0, 1))))
    assert not obstruction_cocycle(momentum).is_zero()
    return momentum


def fresh(momentum):
    """The same momentum map with nothing derived from it yet."""
    return MomentumMap(momentum.analysis, momentum.zeta, momentum.matrix)


def double_the_stored_tau_coords(momentum, monkeypatch):
    """Scale the stored V^h coordinates of tau by 2."""
    obstruction_cocycle(momentum)
    k = momentum.analysis.invariants.dim
    coords = momentum._cache["tau_coords"]
    doubled = tuple(_sparse(tuple(2 * x for x in _dense(r, k))) for r in coords)
    monkeypatch.setitem(momentum._cache, "tau_coords", doubled)


def assert_check_fails(fn, arg, message):
    with pytest.raises(HamfluxError) as err:
        fn(arg)
    assert type(err.value) is HamfluxError
    assert str(err.value) == message


def break_the_degree_2_differential(monkeypatch, c):
    """Plant, in the module of the 2-cochain c, bracket terms of d_2 under
    which d c != 0: the value on the first tuple where c is nonzero also
    goes, with coefficient 1, to the first increasing triple."""
    module = c.module
    k = next(k for k, (_, pairs) in enumerate(c.rows) if pairs)
    table = list(hamflux.cochain._bracket_terms(module, 2))
    table[k] += ((0, 1, 1),)
    monkeypatch.setitem(module._cache, ("dbrackets", 2), tuple(table))


def test_tau_closedness_is_checked(monkeypatch):
    momentum = exact_tau_instance()
    break_the_degree_2_differential(monkeypatch, obstruction_cocycle(momentum))
    assert_check_fails(obstruction_cocycle, fresh(momentum), "obstruction cocycle is not closed")


def test_omega_g_closedness_is_checked(monkeypatch):
    momentum = exact_tau_instance()
    analysis = analyze(momentum.analysis.module, momentum.analysis.omega)
    # zeta is the identity, so omega_g is omega, on the same module
    break_the_degree_2_differential(monkeypatch, analysis.omega)
    assert_check_fails(
        lambda zeta: pullback_cocycle(analysis, zeta),
        momentum.zeta,
        "pullback cocycle is not closed; zeta image not symplectic",
    )


def test_tau_is_checked_against_d_j_plus_omega_g(monkeypatch):
    momentum = exact_tau_instance()
    analysis = momentum.analysis
    store = hamflux.momentum._action_store(analysis, momentum.zeta)
    # the check reads the rows of the stored omega_g
    omega_g = store["omega_g"]
    doubled = Cochain(omega_g.module, 2, tuple(2 * x for x in omega_g.coords))
    monkeypatch.setitem(store, "omega_g", doubled)
    assert_check_fails(
        obstruction_cocycle, fresh(momentum), "tau != d J + omega_g; inconsistent data"
    )


def test_equivariantize_checks_the_corrected_map(monkeypatch):
    momentum = exact_tau_instance()
    assert equivariantize(fresh(momentum)).success
    # the shift solves d c = 2 tau, so the corrected map has obstruction -tau
    double_the_stored_tau_coords(momentum, monkeypatch)
    assert_check_fails(
        equivariantize, momentum, "equivariantization failed to kill the obstruction"
    )


def test_extended_momentum_checks_equivariance(monkeypatch):
    momentum = exact_tau_instance()
    extended_momentum(fresh(momentum))
    # the central extension carries 2 tau, so hat J has obstruction -tau
    double_the_stored_tau_coords(momentum, monkeypatch)
    assert_check_fails(
        extended_momentum, momentum, "extended momentum map failed equivariance"
    )


# -- equivariantize against the k-fold trivial complex ---------------------------

def reference_equivariantize(momentum):
    """(corrected matrix, shift, class, cohomology dim) of equivariantize,
    computed in the k-fold complex C^*(g, V^h) with the trivial action."""
    analysis, g = momentum.analysis, momentum.g
    inv = analysis.invariants
    k = inv.dim
    tau = obstruction_cocycle(momentum)
    pairs, _ = tuple_basis(g.dim, 2)
    coords = [x for i, j in pairs for x in inv.coords_of(tau.value(i, j))]
    triv = LieModule.trivial(g, k)
    h2 = CohomologySpace(triv, 2)
    cls = tuple(h2.class_of(Cochain(triv, 2, coords)))
    try:
        c = LinearSolver(differential_matrix(triv, 1)).solve(coords)
    except Unsolvable:
        return None, None, cls, h2.dim
    cols = [inv.basis.apply(c[l * k : (l + 1) * k]) for l in range(g.dim)]
    shift = Matrix.from_columns(cols, analysis.module.dim)
    return momentum.matrix - shift, shift, cls, h2.dim


def assert_tau_matches_the_dense_formula(momentum):
    """tau's values and its stored rows against X.J(Y) - J([X, Y]), and its
    stored V^h coordinates against invariants.coords_of of those values."""
    analysis, g, J = momentum.analysis, momentum.g, momentum.matrix
    tau = obstruction_cocycle(momentum)
    rows, coords = tau.rows, momentum._cache["tau_coords"]
    pairs, _ = tuple_basis(g.dim, 2)
    assert len(rows) == len(coords) == len(pairs)
    for p, (i, j) in enumerate(pairs):
        x_j = analysis.module.act(momentum.zeta.matrix.column(i), J.column(j))
        value = vec_sub(x_j, J.apply(g.structure[i][j]))
        assert tau.value(i, j) == value
        assert rows[p] == _sparse(value)
        assert coords[p] == _sparse(analysis.invariants.coords_of(value))


def result_fields(result):
    corrected = None if result.momentum is None else result.momentum.matrix
    return corrected, result.shift, result.obstruction_class, result.cohomology_dim


def tau_instance(g, tau):
    """A momentum map over g whose obstruction is tau in C^2(g, Q^k).

    g acts on V = Q^k + g by x.(z, y) = (tau(x, y), [x, y]), the adjoint
    action of Q^k x_tau g factored through g, with
    omega(x, y) = -(tau(x, y), [x, y]) and zeta the identity; then
    J(x) = (0, x) up to V^h, and V^h holds Q^k.
    """
    k, n, c = tau.module.dim, g.dim, g.structure

    def value(x, y):
        return tuple(tau.value(x, y)) + c[x][y]

    zero = (0,) * (k + n)
    mats = [
        Matrix.from_columns([zero] * k + [value(x, y) for y in range(n)], k + n)
        for x in range(n)
    ]
    module = LieModule(g, k + n, mats)
    omega = Cochain.from_values(module, 2, lambda x, y: vec_neg(value(x, y)))
    momentum, _ = solve_momentum(analyze(module, omega), AlgebraHom.identity(g))
    return momentum


@lru_cache(maxsize=None)
def equivariantize_algebra(i):
    if i < 2:
        return LieAlgebra.abelian(3 + i)
    dims, seed = [((3, 2), 0), ((4, 2), 1), ((4, 2), 2), ((5, 2), 1), ((5, 2), 4)][i - 2]
    return random_instance(dims, seed).module.algebra


# derandomized, so every run tries the same cases and a failure reproduces
@pytest.mark.parametrize("i", range(7))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(k=st.sampled_from([2, 3]), exact=st.booleans(), data=st.data())
def test_equivariantize_matches_the_k_fold_complex(i, k, exact, data):
    g = equivariantize_algebra(i)
    triv = LieModule.trivial(g, k)
    if exact:
        # a coboundary d c: the obstruction is solvable
        d1 = differential_matrix(triv, 1)
        c = data.draw(st.lists(st.integers(-2, 2), min_size=d1.ncols, max_size=d1.ncols))
        coords = d1.apply(c)
    else:
        # a random cocycle: usually obstructed
        closed = kernel_basis(differential_matrix(triv, 2)).basis
        a = data.draw(st.lists(st.integers(-2, 2), min_size=closed.ncols, max_size=closed.ncols))
        coords = closed.apply(a)
    momentum = tau_instance(g, Cochain(triv, 2, coords))
    assert_tau_matches_the_dense_formula(momentum)
    result = equivariantize(momentum)
    expected = reference_equivariantize(momentum)
    assert result_fields(result) == expected
    assert result.success == (expected[1] is not None)
    if exact:
        assert result.success


@pytest.mark.parametrize("name", ["heis_pair", "sl2_adjoint", "gl2", "heis3_central"])
def test_tau_rows_equal_the_dense_formula(name):
    momentum = extension_instance(name)[2]
    assert momentum.g.dim >= 2
    assert_tau_matches_the_dense_formula(momentum)


def test_equivariantize_lists_the_class_index_major():
    # abelian Q^3 with tau = (e^01, e^02): H^2(g, Q) is all of C^2, so the
    # class of component a is its coordinates on (01), (02), (12)
    g = LieAlgebra.abelian(3)
    triv = LieModule.trivial(g, 2)
    tau = Cochain.from_dict(triv, 2, {(0, 1): (1, 0), (0, 2): (0, 1)})
    momentum = tau_instance(g, tau)
    assert momentum.analysis.invariants.dim == 2
    result = equivariantize(momentum)
    # (class index, component): component 1 has class index 1, so a
    # component-major order would read (1, 0, 0, 0, 1, 0)
    assert result.obstruction_class == (1, 0, 0, 1, 0, 0)
    assert result_fields(result) == reference_equivariantize(momentum)
    assert not result.success and result.cohomology_dim == 6


def _heis3_plus_abelian(extra):
    """heis3 + Q^extra: [e_0, e_1] = e_2 on 3 + extra basis vectors."""
    n = 3 + extra
    table = [[(0,) * n for _ in range(n)] for _ in range(n)]
    table[0][1] = unit_vector(n, 2)
    table[1][0] = vec_neg(unit_vector(n, 2))
    return LieAlgebra(table)


@pytest.mark.parametrize(
    "extra, z, k, dim, success",
    [(1, [(0, 0, 1, 0)], 2, 6, False), (2, [], 3, 21, True)],
)
def test_equivariantize_central_extension_instances(extra, z, k, dim, success):
    hat = _heis3_plus_abelian(extra)
    bundle = from_central_extension(hat, Subspace.from_vectors(hat.dim, z))
    analysis = analyze(bundle.module, bundle.omega)
    momentum, _ = solve_momentum(analysis, bundle.zeta)
    assert analysis.invariants.dim == k
    result = equivariantize(momentum)
    assert result.success is success
    assert result.cohomology_dim == dim
    assert result_fields(result) == reference_equivariantize(momentum)


# -- extension tables built as rows against the dense formula ----------------------

def dense_extension_table(k, base, action, head):
    """The dense table of an extension of base by a k-dim abelian kernel:
    e_a sends kernel vector i to action[a][i] (none when action is None),
    and [e_a, e_b] = (head(a, b), [e_a, e_b]) (zero head when head is None)."""
    n = k + base.dim
    tail, c = (F(0),) * base.dim, base.structure
    table = [[(F(0),) * n] * n for _ in range(n)]
    for a in range(base.dim):
        for i, w in enumerate(() if action is None else action[a]):
            table[k + a][i] = tuple(w) + tail
            table[i][k + a] = vec_neg(w) + tail
        for b in range(base.dim):
            if a != b:
                h = (F(0),) * k if head is None else tuple(head(a, b))
                table[k + a][k + b] = h + c[a][b]
    return tuple(map(tuple, table))


def dense_tables(analysis, zeta, momentum):
    """{name: dense table} of the central, abelian, W and Baer algebras,
    each from its defining formula with Fraction vectors throughout."""
    g, adm, inv = zeta.source, analysis.admissible, analysis.invariants
    k, k2, ng = inv.dim, adm.dim, zeta.source.dim
    action = [
        [adm.coords_of(analysis.module.act(xi, v)) for v in adm.basis.columns()]
        for xi in zeta.matrix.columns()
    ]
    tau = obstruction_cocycle(momentum)
    omega_g = pullback_cocycle(analysis, zeta)
    out = {
        "central": dense_extension_table(k, g, None, lambda a, b: inv.coords_of(tau.value(a, b))),
        "abelian": dense_extension_table(
            k2, g, action, lambda a, b: adm.coords_of(omega_g.value(a, b))
        ),
    }
    idle = [[(F(0),) * k2] * k2] * k
    w = out["W"] = dense_extension_table(k2, LieAlgebra(out["central"]), idle + action, None)
    # the quotient of W onto V_omega + g, V^h slot j sent to its admissible
    # coordinates, as a dense matrix applied to each constant
    n = k2 + ng
    to_final = Matrix.from_columns(
        [unit_vector(n, a) for a in range(k2)]
        + [adm.coords_of(v) + (F(0),) * ng for v in inv.basis.columns()]
        + [unit_vector(n, k2 + l) for l in range(ng)],
        n,
    )
    slots = list(range(k2)) + [k2 + k + l for l in range(ng)]
    out["baer"] = tuple(tuple(to_final.apply(w[a][b]) for b in slots) for a in slots)
    return out


EXTENSION_INSTANCES = [
    "heis_pair",
    "sl2_adjoint",
    "gl2",
    "heis3_central",
    ("random", (5, 3), 11),
    ("random", (5, 3), 26),
    ("random", (3, 5), 15),
    ("random", (3, 5), 20),
]


@lru_cache(maxsize=None)
def extension_instance(name):
    """(analysis, zeta, momentum, row-built algebras by name) on an instance
    with a nontrivial ham."""
    if name in ("heis_pair", "sl2_adjoint"):
        module, omega = (heis_pair_instance if name == "heis_pair" else sl2_adjoint_instance)()
        zeta = AlgebraHom.identity(module.algebra)
    else:
        if name == "gl2":
            bundle = matrix_algebra_example(2)
        elif name == "heis3_central":
            bundle = from_central_extension(heis3(), Subspace.zero(3))
        else:
            bundle = random_instance(name[1], name[2])
        module, omega, zeta = bundle.module, bundle.omega, bundle.zeta
    assert zeta.source.dim > 0
    analysis = analyze(module, omega)
    momentum, _ = solve_momentum(analysis, zeta)
    cen = central_extension(momentum).total
    k2 = analysis.admissible.dim
    idle = ((_ZERO_ROW,) * k2,) * analysis.invariants.dim
    action = hamflux.momentum._admissible_action(analysis, zeta)
    rows = {
        "central": cen,
        "abelian": abelian_extension(analysis, zeta).total,
        "W": LieAlgebra(hamflux.momentum._extension_table(k2, cen, idle + action, None)),
        "baer": baer_product(analysis, zeta, momentum=momentum).extension.total,
    }
    return analysis, zeta, momentum, rows


@pytest.mark.parametrize("name", EXTENSION_INSTANCES)
def test_row_built_extension_tables_equal_the_dense_formula(name):
    analysis, zeta, momentum, rows = extension_instance(name)
    dense = dense_tables(analysis, zeta, momentum)
    for kind, algebra in rows.items():
        assert algebra.structure == dense[kind], kind
        assert algebra == LieAlgebra(dense[kind]), kind
        for row in algebra._sparse:
            for r in row:
                assert_scaled_row(r, algebra.dim)


def violation(table):
    """(class, indices, witness, message) of the check that rejects the
    table, or None when it is a Lie algebra."""
    try:
        LieAlgebra(table)
    except (AntisymmetryViolation, JacobiViolation) as exc:
        witness = exc.value if isinstance(exc, AntisymmetryViolation) else exc.residual
        return type(exc), exc.indices, witness, str(exc)
    return None


# derandomized, so every run tries the same corruptions
@pytest.mark.parametrize("name", EXTENSION_INSTANCES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupted_row_tables_fail_like_dense_tables(name, data):
    algebra = data.draw(st.sampled_from(sorted(extension_instance(name)[3].items())))[1]
    n = algebra.dim
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    nums = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    value = tuple(F(x, data.draw(st.integers(1, 3))) for x in nums)
    # one entry, or one pair kept antisymmetric so that Jacobi decides
    paired = i != j and data.draw(st.booleans())
    rows = [list(row) for row in algebra._sparse]
    dense = [list(row) for row in algebra.structure]
    rows[i][j], dense[i][j] = _sparse(value), value
    if paired:
        rows[j][i], dense[j][i] = _sparse(vec_neg(value)), vec_neg(value)
    got = violation(_Rows(map(tuple, rows)))
    assert got == violation(dense)
    if not paired and value != algebra.structure[i][j]:
        assert got[0] is AntisymmetryViolation


def test_corrupted_row_table_names_the_jacobi_triple():
    # the heis pair's central extension is heis3 on (z, x, y), [x, y] = z;
    # setting [x, z] = x breaks Jacobi on (x, y, z) with residual -z
    rows = [list(row) for row in extension_instance("heis_pair")[3]["central"]._sparse]
    rows[1][0], rows[0][1] = (1, ((1, 1),)), (1, ((1, -1),))
    got = violation(_Rows(map(tuple, rows)))
    dense = [[_dense(r, 3) for r in row] for row in rows]
    assert got == violation(dense)
    assert got[:3] == (JacobiViolation, (0, 1, 2), (-1, 0, 0))

"""Momentum maps for an action zeta: g -> ham(h, omega) and the extensions
they generate.

A momentum map assigns to every X in g a potential J(X) of i_{zeta X} omega.
Its failure to be equivariant is the obstruction cocycle

    tau(X, Y) = X.J(Y) - J([X, Y]),

whose values land in the invariants V^h and which is closed for the trivial
action, so it defines a central extension V^h x_tau g. The pullback cocycle
omega_g(X, Y) = omega(zeta X, zeta Y) similarly defines the semidirect
extension V_omega x_{omega_g} g, and tau = d(J) + omega_g ties the two
together: the Baer product of the central extension with the semidirect
product V_omega x g is equivalent to the omega_g-extension, with equivalence
(v, X) -> (v + J(X), X).
"""

from hamflux._record import Record
from hamflux.cochain import (
    Cochain,
    _contract,
    _lie_derivative,
    cohomology,
    differential,
    differential_matrix,
    tuple_basis,
)
from hamflux.errors import (
    BracketViolation,
    HamfluxError,
    ImageNotHamiltonian,
    InvariantViolation,
    NotPrimitive,
    Unsolvable,
)
from hamflux.hamiltonian import _check_pair, _pair_bracket_rows
from hamflux.liealg import AlgebraHom, LieAlgebra, LieModule, _Rows
from hamflux.linalg import (
    _ZERO_ROW,
    LinearSolver,
    Matrix,
    _canon,
    _concat,
    _dense,
    _neg,
    hstack,
    sparse_lincomb,
    vector,
    vstack,
)


def pullback_module(analysis, zeta):
    """g acting on V through zeta (X . v := zeta(X) . v).

    When zeta is the identity of the analysis module's algebra this is the
    analysis module itself, validated when it was built, so omega_g, tau and
    their closedness checks reuse its cached differentials instead of
    validating a copy and assembling them again.
    """
    g, module = zeta.source, analysis.module
    if g == module.algebra and zeta.matrix == Matrix.identity(g.dim):
        return module
    mats = [module._action_of_row(z) for z in zeta.matrix.transpose().sparse_rows]
    return LieModule(g, module.dim, mats)


def _action_store(analysis, zeta):
    """What this module derives from zeta on one analysis, keyed by value
    like module._cache; the image of zeta is checked hamiltonian once."""
    key = (zeta.source, zeta.matrix)
    store = analysis._actions.get(key)
    if store is None:
        for i, z in enumerate(zeta.matrix.transpose().sparse_rows):
            if not analysis.hamiltonian._contains_row(z):
                raise ImageNotHamiltonian(i)
        store = analysis._actions[key] = {}
    return store


def pullback_cocycle(analysis, zeta):
    """omega_g(X, Y) = omega(zeta X, zeta Y), closed over the pullback module.

    Built from the rows of omega and checked once per (analysis, zeta); its
    module is the one pullback module that every cochain derived from zeta
    lives on.
    """
    store = _action_store(analysis, zeta)
    if "omega_g" not in store:
        z = zeta.matrix.transpose().sparse_rows  # row i is zeta(e_i)
        pairs, _ = tuple_basis(zeta.source.dim, 2)
        rows = [analysis._omega_row(z[i], z[j]) for i, j in pairs]
        omega_g = Cochain._from_rows(pullback_module(analysis, zeta), 2, tuple(rows))
        if not differential(omega_g).is_zero():
            raise HamfluxError("pullback cocycle is not closed; zeta image not symplectic")
        store["omega_g"] = omega_g
    return store["omega_g"]


class MomentumMap:
    """A validated momentum map: d(J X) = i_{zeta X} omega for every basis X."""

    __slots__ = ("analysis", "zeta", "matrix", "_cache")

    def __init__(self, analysis, zeta, matrix):
        matrix = matrix if isinstance(matrix, Matrix) else Matrix(matrix)
        if matrix.nrows != analysis.module.dim or matrix.ncols != zeta.source.dim:
            raise ValueError("momentum matrix must be module.dim x g.dim")
        _action_store(analysis, zeta)  # checks the image of zeta is hamiltonian
        # column i of each side is d(J e_i) and i_(zeta e_i) omega
        lhs, rhs = analysis._d0 * matrix, analysis._contraction * zeta.matrix
        if lhs != rhs:
            pairs = zip(lhs.transpose().sparse_rows, rhs.transpose().sparse_rows)
            i = next(i for i, (a, b) in enumerate(pairs) if a != b)
            raise InvariantViolation(f"d(J e_{i}) != i_(zeta e_{i}) omega; not a momentum map")
        object.__setattr__(self, "analysis", analysis)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_cache", {})  # objects derived once from the map

    def __setattr__(self, name, value):
        raise AttributeError("MomentumMap is immutable")

    @property
    def g(self):
        return self.zeta.source

    def value(self, x):
        """J(x) for a coordinate vector x in g."""
        return self.matrix.apply(vector(x))

    def __repr__(self):
        return f"MomentumMap(g dim {self.g.dim} -> V dim {self.analysis.module.dim})"


def solve_momentum(analysis, zeta):
    """Canonical momentum map for zeta, plus its freedom.

    Returns (momentum, invariants): two momentum maps for the same zeta
    differ exactly by a linear map g -> V^h, so the freedom is
    Hom(g, invariants), dimension g.dim * invariants.dim.
    """
    _action_store(analysis, zeta)  # checks the image of zeta is hamiltonian
    cols = [analysis._potential_row(z) for z in zeta.matrix.transpose().sparse_rows]
    matrix = Matrix._from_sparse(cols, analysis.module.dim).transpose()
    return MomentumMap(analysis, zeta, matrix), analysis.invariants


def obstruction_cocycle(momentum):
    """tau(X,Y) = X.J(Y) - J([X,Y]) with its structural identities asserted.

    Values are invariant vectors; tau is closed; tau = d(J) + omega_g.
    Computed and checked once per momentum map.
    """
    cache = momentum._cache
    if "tau" not in cache:
        cache["tau"], cache["tau_coords"] = _derive_tau(momentum)
    return cache["tau"]


def _tau_coords(momentum):
    """The V^h coordinates of tau on increasing pairs, as scaled rows."""
    obstruction_cocycle(momentum)
    return momentum._cache["tau_coords"]


def _derive_tau(momentum):
    analysis, g, module = momentum.analysis, momentum.g, momentum.analysis.module
    omega_g = pullback_cocycle(analysis, momentum.zeta)
    z = momentum.zeta.matrix.transpose().sparse_rows  # row i is zeta(e_i)
    J = momentum.matrix.transpose().sparse_rows  # row j is J(e_j)
    pairs, _ = tuple_basis(g.dim, 2)
    rows, coords = [], []
    for i, j in pairs:
        # e_i . J(e_j) - J([e_i, e_j]), all over the scale of the bracket
        s, bracket = g._sparse[i][j]
        terms = [(s, module._act_row(z[i], J[j]))] + [(-c, J[l]) for l, c in bracket]
        rows.append(sparse_lincomb(terms, s))
        try:
            coords.append(analysis.invariants._coords_row(rows[-1]))
        except Unsolvable:
            raise HamfluxError("obstruction value escaped the invariants") from None
    tau = Cochain._from_rows(omega_g.module, 2, tuple(rows))
    if not differential(tau).is_zero():
        raise HamfluxError("obstruction cocycle is not closed")
    # d J(e_i, e_j) = tau(e_i, e_j) - e_j . J(e_i), so tau = d J + omega_g
    # exactly when e_j . J(e_i) = omega_g(e_i, e_j)
    for (i, j), w in zip(pairs, omega_g.rows):
        if module._act_row(z[j], J[i]) != w:
            raise HamfluxError("tau != d J + omega_g; inconsistent data")
    return tau, tuple(coords)


# -- extensions ----------------------------------------------------------------

class ExtensionPresentation(Record):
    """A Lie algebra extension kernel -> total -> base in block form.

    Fields: kind (str), total and base (LieAlgebra) and kernel_dim. The
    kernel is the first kernel_dim coordinates of total and base the
    remaining ones, so injection, projection and its right inverse section
    are the coordinate inclusions and projection, derived on each access.
    """

    __slots__ = ("kind", "total", "base", "kernel_dim")

    def __post_init__(self):
        t, k = self.total, self.kernel_dim
        if k < 0 or t.dim != k + self.base.dim:
            raise ValueError("total.dim must be kernel_dim + base.dim")
        # With the sequence exact, ker(projection) is exactly the first k
        # coordinates. A projection that preserves brackets sends [e_i, e_z]
        # to [P e_i, 0] = 0 for z < k, so this check also proves the kernel
        # is an ideal.
        try:
            AlgebraHom(t, self.base, self.projection)
        except BracketViolation:
            raise HamfluxError("projection is not an algebra map") from None
        if self.kind == "central" and any(
            t._sparse[i][z][1] for i in range(t.dim) for z in range(k)
        ):
            raise HamfluxError("kernel is not central")

    @property
    def injection(self):
        k, b = self.kernel_dim, self.base.dim
        return vstack(Matrix.identity(k), Matrix.zeros(b, k))

    @property
    def projection(self):
        k, b = self.kernel_dim, self.base.dim
        return hstack(Matrix.zeros(b, k), Matrix.identity(b))

    @property
    def section(self):
        return self.projection.transpose()


def _extension_table(k, base, action, head):
    """Structure table of an extension of base by a k-dim abelian kernel, on
    kernel coordinates followed by base coordinates, built as the canonical
    scaled rows LieAlgebra stores: e_a sends kernel basis vector i to the row
    action[a][i] (zero when action is None), and
    [e_a, e_b] = (head(a, b), [e_a, e_b]), head(a, b) a row of length k
    (zero when head is None)."""
    n = k + base.dim
    c = base._sparse
    table = [[_ZERO_ROW] * n for _ in range(n)]
    for a in range(base.dim):
        for i, w in enumerate(() if action is None else action[a]):
            table[k + a][i], table[i][k + a] = w, _neg(w)
        for b in range(base.dim):
            if a != b:
                h = _ZERO_ROW if head is None else head(a, b)
                table[k + a][k + b] = _concat((h, c[a][b]), k)
    return _Rows(map(tuple, table))


def _pair_rows(rows, n):
    """The values of a 2-cochain on n basis vectors from its scaled rows on
    increasing pairs, for a != b."""
    _, index = tuple_basis(n, 2)
    return lambda a, b: rows[index[a, b]] if a < b else _neg(rows[index[b, a]])


def _in_admissible(analysis, f):
    """f with its values, scaled rows of V, as rows of admissible coordinates."""

    def coords(*args):
        try:
            return analysis.admissible._coords_row(f(*args))
        except Unsolvable:
            raise HamfluxError(
                "value escaped the admissible vectors; zeta image not hamiltonian"
            ) from None

    return coords


def _admissible_action(analysis, zeta):
    """g acting on V_omega through zeta in admissible coordinates:
    entry [a][i] is the row of zeta(e_a) applied to admissible basis vector
    i, derived once per (analysis, zeta)."""
    store = _action_store(analysis, zeta)
    if "admissible_action" not in store:
        act = _in_admissible(analysis, analysis.module._act_row)
        basis = analysis.admissible._basis_rows()
        store["admissible_action"] = tuple(
            tuple(act(xi, v) for v in basis) for xi in zeta.matrix.transpose().sparse_rows
        )
    return store["admissible_action"]


def central_extension(momentum):
    """V^h x_tau g with bracket ((z1,X1),(z2,X2)) -> (tau(X1,X2), [X1,X2]),
    built once per momentum map."""
    cache = momentum._cache
    if "central" not in cache:
        g = momentum.g
        k = momentum.analysis.invariants.dim
        table = _extension_table(k, g, None, _pair_rows(_tau_coords(momentum), g.dim))
        cache["central"] = ExtensionPresentation("central", LieAlgebra(table), g, k)
    return cache["central"]


def abelian_extension(analysis, zeta):
    """V_omega x_{omega_g} g: semidirect action through zeta plus the
    pullback cocycle in the V_omega slot, built once per (analysis, zeta)."""
    store = _action_store(analysis, zeta)
    if "abelian" not in store:
        g = zeta.source
        k = analysis.admissible.dim
        head = _in_admissible(analysis, _pair_rows(pullback_cocycle(analysis, zeta).rows, g.dim))
        table = _extension_table(k, g, _admissible_action(analysis, zeta), head)
        store["abelian"] = ExtensionPresentation("abelian", LieAlgebra(table), g, k)
    return store["abelian"]


def _equivalence_columns(momentum):
    """Base columns (J(e_l) in admissible coordinates, e_l) of the
    equivalence (v, X) -> (v + J(X), X), as scaled rows."""
    adm = momentum.analysis.admissible
    return [
        _concat((adm._coords_row(col), (1, ((l, 1),))), adm.dim)
        for l, col in enumerate(momentum.matrix.transpose().sparse_rows)
    ]


def extension_embedding(momentum):
    """The equivalence-compatible embedding V^h x_tau g -> V_omega x_{omega_g} g,
    (z, X) -> (z + J(X), X), verified to preserve brackets."""
    analysis = momentum.analysis
    central = central_extension(momentum)
    abelian = abelian_extension(analysis, momentum.zeta)
    adm = analysis.admissible
    cols = [adm._coords_row(r) for r in analysis.invariants._basis_rows()]
    phi = Matrix._from_sparse(
        cols + _equivalence_columns(momentum), abelian.kernel_dim + momentum.g.dim
    ).transpose()
    AlgebraHom(central.total, abelian.total, phi)  # raises if not bracket-preserving
    return phi


# -- equivariantization ----------------------------------------------------------

class EquivariantizationResult(Record):
    """momentum, the equivariant MomentumMap when successful, else None;
    shift, a Matrix with columns in V^h, J_eq = J - shift; the
    obstruction_class of tau in H^2(g, V^h), zero iff success; and
    cohomology_dim."""

    __slots__ = ("momentum", "shift", "obstruction_class", "cohomology_dim")

    @property
    def success(self):
        return self.shift is not None


def equivariantize(momentum):
    """Shift J by a map into V^h to kill tau, when the class [tau] vanishes.

    Solves d c = tau in C^*(g, V^h) with the trivial action; on success the
    corrected map J - c is a momentum map with tau = 0, and the remaining
    freedom is Hom(g, V^h) with c([g,g]) = 0. That differential is the
    scalar one of g on each V^h component, so the class in
    H^2(g, Q) (x) V^h and c are found one component at a time; the class
    lists (class index, component) pairs in that order.
    """
    analysis = momentum.analysis
    inv = analysis.invariants
    k = inv.dim
    # component a of tau is entry a of its V^h coordinates on every pair
    coords = _tau_coords(momentum)
    values = [[_ZERO_ROW] * len(coords) for _ in range(k)]
    for pos, (s, pairs) in enumerate(coords):
        for a, x in pairs:
            values[a][pos] = _canon(s, ((0, x),))
    scalar = LieModule.trivial(momentum.g, 1)
    h2 = cohomology(scalar, 2)
    parts = [Cochain._from_rows(scalar, 2, tuple(v)) for v in values]
    classes = [_dense(h2._class_row(part), h2.dim) for part in parts]
    cls = tuple(x for xs in zip(*classes) for x in xs)
    solver = LinearSolver(differential_matrix(scalar, 1))
    try:
        # row a of c is the particular solution of component a
        rows = [solver._solve_row(_concat(part.rows, 1)) for part in parts]
    except Unsolvable:
        return EquivariantizationResult(None, None, cls, k * h2.dim)
    shift = inv.basis * Matrix._from_sparse(rows, momentum.g.dim)
    corrected = MomentumMap(analysis, momentum.zeta, momentum.matrix - shift)
    if not obstruction_cocycle(corrected).is_zero():
        raise HamfluxError("equivariantization failed to kill the obstruction")
    return EquivariantizationResult(corrected, shift, cls, k * h2.dim)


def extended_momentum(momentum):
    """hat J on V^h x_tau g: (z, X) -> z + J(X), an equivariant momentum map
    for the extended action (z, X) -> zeta(X), built once per momentum map."""
    cache = momentum._cache
    if "extended" not in cache:
        analysis = momentum.analysis
        central = central_extension(momentum)
        zeta_hat_matrix = momentum.zeta.matrix * central.projection
        zeta_hat = AlgebraHom(central.total, analysis.module.algebra, zeta_hat_matrix)
        hat = hstack(analysis.invariants.basis, momentum.matrix)
        hat_momentum = MomentumMap(analysis, zeta_hat, hat)
        if not obstruction_cocycle(hat_momentum).is_zero():
            raise HamfluxError("extended momentum map failed equivariance")
        cache["extended"] = hat_momentum
    return cache["extended"]


def coboundary_trivialization(momentum, alpha):
    """Exact case omega = d(alpha) with alpha invariant: f(X) = J(X) + alpha(zeta X)
    lands in V^h and satisfies tau = d f, so [tau] = 0. NotPrimitive when alpha
    is not an invariant primitive of omega."""
    analysis = momentum.analysis
    if alpha.module != analysis.module or alpha.degree != 1:
        raise ValueError("alpha must be a 1-cochain over the module")
    if differential(alpha) != analysis.omega:
        raise NotPrimitive("d alpha != omega")
    g = momentum.g
    z = momentum.zeta.matrix.transpose().sparse_rows  # row i is zeta(e_i)
    J = momentum.matrix.transpose().sparse_rows  # row i is J(e_i)
    for xi in z:
        if not _lie_derivative(xi, alpha).is_zero():
            raise NotPrimitive("alpha is not invariant under the action image")
    # row i of f is f(e_i) = J(e_i) + alpha(zeta e_i)
    f = []
    for xi, j in zip(z, J):
        f.append(sparse_lincomb(((1, j), (1, _contract(xi, alpha).rows[0]))))
        if not analysis.invariants._contains_row(f[-1]):
            raise HamfluxError("trivializing values escaped the invariants")
    # tau = d f for the trivial action: tau(X,Y) = -f([X,Y])
    for (i, j), row in zip(tuple_basis(g.dim, 2)[0], obstruction_cocycle(momentum).rows):
        s, bracket = g._sparse[i][j]
        if row != sparse_lincomb(((-c, f[l]) for l, c in bracket), s):
            raise HamfluxError("tau != d f in the exact case")
    return Matrix._from_sparse(f, analysis.module.dim).transpose()


def equivariant_pair_check(momentum):
    """Report whether the four equivalent equivariance conditions hold
    (they must agree): J preserves brackets into the Poisson structure,
    X.J(Y) = J([X,Y]), tau = 0, and X -> (J(X), zeta X) is a hom into pairs."""
    analysis = momentum.analysis
    g = momentum.g
    z = momentum.zeta.matrix.transpose().sparse_rows  # row i is zeta(e_i)
    J = momentum.matrix.transpose().sparse_rows  # row i is J(e_i)
    tau = obstruction_cocycle(momentum)

    poisson_ok = True
    equivariant_ok = True
    section_ok = True
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            # J and zeta applied to [e_i, e_j]
            s, bracket = g._sparse[i][j]
            jb = sparse_lincomb(((c, J[l]) for l, c in bracket), s)
            zb = sparse_lincomb(((c, z[l]) for l, c in bracket), s)
            if analysis._bracket_row(J[i], J[j]) != jb:
                poisson_ok = False
            if analysis.module._act_row(z[i], J[j]) != jb:
                equivariant_ok = False
            for k in (i, j):
                _check_pair(analysis, J[k], z[k])
            if _pair_bracket_rows(analysis, z[i], z[j]) != (jb, zb):
                section_ok = False
    report = {
        "poisson_map": poisson_ok,
        "equivariant": equivariant_ok,
        "obstruction_vanishes": tau.is_zero(),
        "pair_section_hom": section_ok,
    }
    report["agree"] = len(set(report.values())) == 1
    return report


# -- Baer product -----------------------------------------------------------------

class BaerProductResult(Record):
    """extension, V_omega x_tau g from the literal quotient; abelian,
    V_omega x_{omega_g} g; equivalence, the iso extension.total ->
    abelian.total, (v, X) -> (v + J(X), X); and the momentum map."""

    __slots__ = ("extension", "abelian", "equivalence", "momentum")


def baer_product(analysis, zeta, momentum=None):
    """Baer product of V^h x_tau g with V_omega x g, built literally.

    Forms the semidirect sum W = V_omega x (V^h x_tau g) where the central
    extension acts through its projection, quotients by the central
    antidiagonal {(z, -z, 0) : z in V^h}, and re-coordinates on V_omega + g.
    The result carries the cocycle tau in the V_omega slot and is equivalent
    to the omega_g-extension via (v, X) -> (v + J(X), X).
    """
    if momentum is None:
        momentum, _ = solve_momentum(analysis, zeta)
    elif momentum.analysis is not analysis or (
        (momentum.zeta.source, momentum.zeta.matrix) != (zeta.source, zeta.matrix)
    ):
        raise ValueError("momentum map belongs to a different action")
    central = central_extension(momentum)
    g = momentum.g
    adm = analysis.admissible
    k = analysis.invariants.dim
    k2 = adm.dim
    ng = g.dim
    cen = central.total
    nW = k2 + cen.dim

    # semidirect sum: cen acts on V_omega through its projection to g, so
    # its V^h slots act by zero
    action = _admissible_action(analysis, zeta)
    idle = ((_ZERO_ROW,) * k2,) * k
    W = LieAlgebra(_extension_table(k2, cen, idle + action, None))

    # central antidiagonal {(incl z, -z, 0)}; V^h sits inside V_omega
    incl = [adm._coords_row(r) for r in analysis.invariants._basis_rows()]
    for j, v in enumerate(incl):
        anti = _concat((v, (1, ((j, -1),))), k2)
        if any(W._sparse_bracket((1, ((i, 1),)), anti)[1] for i in range(nW)):
            raise HamfluxError("antidiagonal is not central")

    # The antidiagonal is central, so the bracket of two classes does not
    # depend on their representatives. The quotient map onto V_omega + g is
    # the identity on the V_omega and g slots of W and kills the antidiagonal,
    # so it sends V^h slot j to incl(e_j); that map is the only such one.
    n_final = k2 + ng
    unit = [(1, ((a, 1),)) for a in range(n_final)]
    image = unit[:k2] + incl + unit[k2:]  # the row each slot of W maps to

    def quotient(row):
        s, pairs = row
        return sparse_lincomb(((x, image[l]) for l, x in pairs), s)

    slots = list(range(k2)) + [k2 + k + l for l in range(ng)]
    w = W._sparse
    total = LieAlgebra(_Rows(tuple(quotient(w[a][b]) for b in slots) for a in slots))
    result = ExtensionPresentation("baer", total, g, k2)

    # the literal quotient must be V_omega x_tau g on the nose
    head = _in_admissible(analysis, _pair_rows(obstruction_cocycle(momentum).rows, ng))
    if total._sparse != _extension_table(k2, g, action, head):
        raise HamfluxError("Baer product is not V_omega with the tau cocycle over g")

    ab = abelian_extension(analysis, zeta)
    psi = Matrix._from_sparse(unit[:k2] + _equivalence_columns(momentum), n_final).transpose()
    AlgebraHom(total, ab.total, psi)  # equivalence is an algebra map
    if psi.rank() != n_final:
        raise HamfluxError("equivalence is not invertible")
    return BaerProductResult(result, ab, psi, momentum)

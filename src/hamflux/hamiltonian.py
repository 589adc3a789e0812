"""Hamiltonian structure of a 2-cochain on a Lie algebra module.

Given omega in C^2(h, V) (not assumed closed or nondegenerate), analyze()
returns an analysis that derives, as exact subspaces on first access:

    symplectic   sp  = {xi : d(i_xi omega) = 0 and i_xi(d omega) = 0}
    hamiltonian  ham = {xi : i_xi(d omega) = 0 and i_xi omega is exact}
    radical      rad = {xi : i_xi omega = 0 and i_xi(d omega) = 0}
    normalizer       = {xi : i_xi(d omega) = 0 and [xi, rad] in rad}
    invariants   V^h = {v : h.v = 0}
    admissible       = {v : d v = i_xi omega solvable with xi hamiltonian}

together with a lift matrix, whose columns are the canonical hamiltonian
lifts of the admissible basis, and a stored factorization that solves for a
potential v of a hamiltonian xi. The Poisson bracket on admissible vectors
is {v1, v2} = xi1 . v2, which equals -omega(xi1, xi2) and -xi2 . v1 and is
independent of the lift choice because the lift is unique modulo the radical.
"""

from functools import cached_property

from hamflux._record import Record
from hamflux.cochain import (
    Cochain,
    cochain_dim,
    cohomology,
    contract,
    contraction_matrix,
    differential,
    differential_matrix,
)
from hamflux.errors import (
    InvariantViolation,
    NotAdmissible,
    NotInImage,
    NotSymplectic,
    Unsolvable,
)
from hamflux.linalg import (
    LinearSolver,
    Matrix,
    Subspace,
    _checked_row,
    _dense,
    _sparse,
    hstack,
    kernel_basis,
    quotient_map,
    sparse_lincomb,
    unit_vector,
    vec_add,
    vec_neg,
    vec_sub,
    vector,
    vstack,
    zero_vector,
)


class HamiltonianAnalysis:
    """Subspaces and solvers of one (module, omega) pair, derived on first use."""

    def __init__(self, module, omega):
        if omega.module != module or omega.degree != 2:
            raise ValueError("omega must be a 2-cochain over the module")
        self.module = module
        self.omega = omega
        self.d_omega = differential(omega)
        # columns: coordinates of i_{e_i} omega and i_{e_i} d(omega)
        self._contraction = contraction_matrix(omega)
        self._contraction3 = contraction_matrix(self.d_omega)
        self._d0 = differential_matrix(module, 0)
        # objects hamflux.momentum derives from an action zeta, keyed by
        # (zeta.source, zeta.matrix)
        self._actions = {}

    @cached_property
    def symplectic(self):
        d1 = differential_matrix(self.module, 1)
        return kernel_basis(vstack(d1 * self._contraction, self._contraction3))

    # the radical and V^h are the kernels of the two stored solvers
    @cached_property
    def _lift_solver(self):
        return LinearSolver(vstack(self._contraction, self._contraction3))

    @cached_property
    def _lift_matrix(self):
        # the lift matrix L, stored by columns: row j is the canonical lift of
        # admissible basis vector j, solved once
        zero = zero_vector(self._contraction3.nrows)
        cols = self.admissible.basis.columns()
        lifts = [self._lift_solver.solve(self._d0.apply(b) + zero) for b in cols]
        return Matrix._from_sparse(map(_sparse, lifts), self.module.algebra.dim)

    @cached_property
    def _potential_solver(self):
        return LinearSolver(self._d0)

    @cached_property
    def radical(self):
        return self._lift_solver.kernel()

    @cached_property
    def invariants(self):
        return self._potential_solver.kernel()

    @cached_property
    def _pairs(self):
        # pairs (xi, v) with i_xi omega = d v and i_xi d(omega) = 0; the xi
        # projection is the hamiltonian subalgebra, the v projection the
        # admissible vectors
        c3, m = self._contraction3, self.module.dim
        top = hstack(self._contraction, -1 * self._d0)
        pairs = kernel_basis(vstack(top, hstack(c3, Matrix.zeros(c3.nrows, m))))
        return pairs.basis.columns()

    @cached_property
    def hamiltonian(self):
        n = self.module.algebra.dim
        return Subspace.from_vectors(n, [p[:n] for p in self._pairs])

    @cached_property
    def admissible(self):
        n = self.module.algebra.dim
        return Subspace.from_vectors(self.module.dim, [p[n:] for p in self._pairs])

    @cached_property
    def normalizer(self):
        alg = self.module.algebra
        n = alg.dim
        stacked = self._contraction3
        if self.radical.dim:
            q = quotient_map(n, self.radical)
            for r in self.radical.basis.columns():
                # xi -> [xi, r] composed with the quotient by the radical
                cols = [alg.bracket(unit_vector(n, i), r) for i in range(n)]
                stacked = vstack(stacked, q * Matrix.from_columns(cols, n))
        return kernel_basis(stacked)

    @cached_property
    def _oneform_solver(self):
        return LinearSolver(self._contraction * self.normalizer.basis)

    # -- solves ------------------------------------------------------------

    def hamiltonian_lift(self, v):
        """Canonical xi with d v = i_xi omega; NotAdmissible if none exists."""
        row = self._lift_row(_checked_row(v, self.module.dim))
        return _dense(row, self.module.algebra.dim)

    def _lift_row(self, row):
        # the canonical solve is linear in its right-hand side, so the lift
        # of v is L times the coordinates of v in the admissible basis; those
        # exist iff v has a lift, since admissible projects the pair kernel
        try:
            s, coords = self.admissible._coords_row(row)
        except Unsolvable:
            raise NotAdmissible("vector has no hamiltonian lift") from None
        lifts = self._lift_matrix.sparse_rows
        return sparse_lincomb(((a, lifts[k]) for k, a in coords), s)

    def potential_of(self, xi):
        """Canonical v with d v = i_xi omega, for hamiltonian xi."""
        xi = vector(xi)
        try:
            return self._potential_solver.solve(contract(xi, self.omega).coords)
        except Unsolvable:
            raise NotAdmissible("element is not hamiltonian") from None

    # -- evaluations ---------------------------------------------------------

    def omega_value(self, x, y):
        """omega(x, y): i_x omega read off the stored contraction, then y
        contracted into it."""
        i_x = Cochain(self.module, 1, self._contraction.apply(vector(x)))
        return contract(y, i_x).coords

    def poisson_bracket(self, v1, v2):
        """{v1, v2} = xi1 . v2 with xi1 a hamiltonian lift of v1."""
        m = self.module.dim
        return _dense(self._bracket_row(_checked_row(v1, m), _checked_row(v2, m)), m)

    def _bracket_row(self, r1, r2):
        """Scaled row of {v1, v2} for scaled rows."""
        return self.module._act_row(self._lift_row(r1), r2)

    def flux_class(self, xi):
        """Class of i_xi omega in H^1(h, V); defined for symplectic xi."""
        xi = vector(xi)
        if not self.symplectic.contains(xi):
            raise NotSymplectic("flux is defined on the symplectic subalgebra")
        return cohomology(self.module, 1).class_of(contract(xi, self.omega))

    def exactness_report(self):
        """Dimension bookkeeping for ham and the admissible vectors.

        ham / rad is isomorphic to d(V_omega) via the lift correspondence,
        and V_omega / V^h is isomorphic to the same space via d, so

            dim ham     = dim rad + dim d(V_omega)
            dim V_omega = dim V^h + dim d(V_omega)
        """
        image = Subspace.from_vectors(
            cochain_dim(self.module, 1),
            [self._d0.apply(b) for b in self.admissible.basis.columns()],
        )
        dims = {
            "symplectic": self.symplectic.dim,
            "hamiltonian": self.hamiltonian.dim,
            "radical": self.radical.dim,
            "normalizer": self.normalizer.dim,
            "invariants": self.invariants.dim,
            "admissible": self.admissible.dim,
            "differential_image": image.dim,
        }
        return {
            "dims": dims,
            "hamiltonian_sequence_exact": dims["hamiltonian"]
            == dims["radical"] + dims["differential_image"],
            "admissible_sequence_exact": dims["admissible"]
            == dims["invariants"] + dims["differential_image"],
        }


def analyze(module, omega):
    """Full hamiltonian analysis of a 2-cochain."""
    return HamiltonianAnalysis(module, omega)


class HamiltonianPair(Record):
    """A vector v with a chosen hamiltonian lift xi, d v = i_xi omega."""

    __slots__ = ("v", "xi")


def hamiltonian_pair(analysis, v, xi):
    """Validate and wrap (v, xi); InvariantViolation if the equation fails."""
    v = vector(v)
    xi = vector(xi)
    dv = differential(Cochain(analysis.module, 0, v))
    if dv != contract(xi, analysis.omega):
        raise InvariantViolation("d v != i_xi omega for the supplied pair")
    return HamiltonianPair(v, xi)


def pair_bracket(analysis, p1, p2):
    """Bracket [(v1,x1),(v2,x2)] = (-omega(x1,x2), [x1,x2]) on valid pairs.

    This is the Lie algebra of pairs over the hamiltonian subalgebra; the
    first component also equals the Poisson bracket {v1, v2}.
    """
    w = vec_neg(analysis.omega_value(p1.xi, p2.xi))
    x = analysis.module.algebra.bracket(p1.xi, p2.xi)
    return hamiltonian_pair(analysis, w, x)


def abelian_bracket(analysis, p1, p2):
    """Semidirect bracket (x1.v2 - x2.v1 + omega(x1,x2), [x1,x2]) on
    V_omega x sp; the inputs need not satisfy the pairing equation."""
    for v, xi in (p1, p2):
        xi = vector(xi)
        v = vector(v)
        if not analysis.symplectic.contains(xi):
            raise NotSymplectic("second component must be symplectic")
        if not analysis.admissible.contains(v):
            raise NotAdmissible("first component must be admissible")
    v1, x1 = vector(p1[0]), vector(p1[1])
    v2, x2 = vector(p2[0]), vector(p2[1])
    mod = analysis.module
    w = vec_add(
        vec_sub(mod.act(x1, v2), mod.act(x2, v1)), analysis.omega_value(x1, x2)
    )
    return w, mod.algebra.bracket(x1, x2)


def oneform_bracket(analysis, a1, a2):
    """[i_x1 omega, i_x2 omega] := i_[x1,x2] omega on contractions by the
    radical's normalizer; NotInImage when an argument is not such a
    contraction. Well defined because [normalizer, rad] lies in rad."""
    xs = []
    for a in (a1, a2):
        if a.module != analysis.module or a.degree != 1:
            raise ValueError("arguments must be 1-cochains over the module")
        try:
            t = analysis._oneform_solver.solve(a.coords)
        except Unsolvable:
            raise NotInImage(
                "one-form is not i_xi omega for xi normalizing the radical"
            ) from None
        xs.append(analysis.normalizer.basis.apply(t))
    bracket = analysis.module.algebra.bracket(xs[0], xs[1])
    return contract(bracket, analysis.omega)

"""Hamiltonian structure of a 2-cochain on a Lie algebra module.

Given omega in C^2(h, V) (not assumed closed or nondegenerate), analyze()
returns an analysis that derives, as exact subspaces on first access:

    symplectic   sp  = {xi : d(i_xi omega) = 0 and i_xi(d omega) = 0}
    hamiltonian  ham = {xi : i_xi(d omega) = 0 and i_xi omega is exact}
    radical      rad = {xi : i_xi omega = 0 and i_xi(d omega) = 0}
    normalizer       = {xi : i_xi(d omega) = 0 and [xi, rad] in rad}
    invariants   V^h = {v : h.v = 0}
    admissible       = {v : d v = i_xi omega solvable with xi hamiltonian}

together with a lift matrix, whose rows are the canonical hamiltonian lifts
of the admissible basis, and a stored factorization that solves for a
potential v of a hamiltonian xi. The Poisson bracket on admissible vectors
is {v1, v2} = xi1 . v2, which equals -omega(xi1, xi2) and -xi2 . v1 and is
independent of the lift choice because the lift is unique modulo the radical.

Every subalgebra above lies in K = {xi : i_xi(d omega) = 0}, so the lattice
is one chain of eliminations inside K, each in K-coordinates (dim K
columns) and mapped back through K's echelon basis, which keeps every basis
canonical:

    K            h when d omega = 0, with no elimination; otherwise the
                 kernel of the contraction matrix of d omega, the only
                 elimination that sees its rows
    symplectic   the kernel of xi -> d(i_xi omega) on K, d applied to each
                 column i_xi omega without a matrix of d
    pair kernel  P = {(xi, v) : xi in K, i_xi omega = d v}, eliminated once;
                 of its echelon rows with the xi columns first, those with a
                 pivot among the xi columns span ham, the others are (0, v)
                 with v in V^h
    admissible,  one re-reduction of the rows of P, with the v columns first
    lifts and    and the xi columns after them in reverse order: rows with a
    radical      pivot among the v columns are (b, lift of b) for the
                 echelon basis b of the admissible vectors, the others span
                 rad
    normalizer   the kernel of xi -> [xi, r] mod rad, over the basis r of
                 rad, on K
    invariants   the kernel of d on V, apart from the chain, so that a
                 reader of V^h alone does not pay for P

momentum and extend read V^h and, as they need them, ham, the admissible
vectors and the potential solver: they build at most K, P and
its re-reduction, and never sp, rad, the normalizer or the lift matrix.
"""

from bisect import bisect_left
from functools import cached_property

from hamflux._record import Record
from hamflux.cochain import (
    Cochain,
    _differential_row,
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
    _canon,
    _checked_row,
    _concat,
    _dense,
    _rref_in_order,
    hstack,
    kernel_basis,
    quotient_map,
    sparse_lincomb,
    vec_add,
    vec_neg,
    vec_sub,
    vector,
)


class HamiltonianAnalysis:
    """Subspaces and solvers of one (module, omega) pair, derived on first use."""

    def __init__(self, module, omega):
        if omega.module != module or omega.degree != 2:
            raise ValueError("omega must be a 2-cochain over the module")
        self.module = module
        self.omega = omega
        self.d_omega = differential(omega)
        # columns: coordinates of i_{e_i} omega
        self._contraction = contraction_matrix(omega)
        self._d0 = differential_matrix(module, 0)
        # objects hamflux.momentum derives from an action zeta, keyed by
        # (zeta.source, zeta.matrix)
        self._actions = {}

    @cached_property
    def _contraction3(self):
        # columns: coordinates of i_{e_i} d(omega)
        return contraction_matrix(self.d_omega)

    @cached_property
    def _kernel(self):
        # K = {xi : i_xi d(omega) = 0} holds every subalgebra of the lattice;
        # this is the only elimination that sees the rows of i_xi d(omega)
        if self.d_omega.is_zero():
            return Subspace.full(self.module.algebra.dim)
        return kernel_basis(self._contraction3)

    def _from_kernel(self, rows):
        """Scaled rows of K-coordinates, mapped to h. The basis of K is in
        reduced echelon form with unit pivots, so the image of a reduced
        echelon family is one too, pivot for pivot."""
        basis = self._kernel._basis_rows()
        return [sparse_lincomb(((a, basis[j]) for j, a in p), s) for s, p in rows]

    def _in_h(self, rows):
        """The subspace of h spanned by the reduced echelon rows `rows` of
        K-coordinates."""
        return Subspace._from_rref(self.module.algebra.dim, self._from_kernel(rows))

    @cached_property
    def _contraction_k(self):
        # column j: i_{k_j} omega for basis vector k_j of K
        return self._contraction * self._kernel.basis

    @cached_property
    def symplectic(self):
        # K-coordinates y with d(i_xi omega) = 0, xi = K y: the kernel of the
        # matrix whose columns are d of the columns of _contraction_k
        cols = [
            _differential_row(self.module, 1, c)
            for c in self._contraction_k.transpose().sparse_rows
        ]
        m = Matrix._from_sparse(cols, cochain_dim(self.module, 2)).transpose()
        return self._in_h(kernel_basis(m)._basis_rows())

    @cached_property
    def _pairs(self):
        # echelon rows of the pair kernel P = {(y, v) : i_xi omega = d v},
        # xi = K y, with the K-coordinates y first: a row whose pivot is a
        # y column starts a hamiltonian xi, any other row is (0, v), v in V^h
        return kernel_basis(hstack(self._contraction_k, -self._d0))._basis_rows()

    @cached_property
    def hamiltonian(self):
        k = self._kernel.dim
        ys = [(s, [(j, a) for j, a in p if j < k]) for s, p in self._pairs if p[0][0] < k]
        return self._in_h(ys)

    @cached_property
    def invariants(self):
        # the kernel of d alone: momentum and extend read V^h without P
        return kernel_basis(self._d0)

    @cached_property
    def _pairs_v_first(self):
        # the rows of P as (xi, v), reduced again with the v columns first
        # and the xi columns after them in reverse order. A row whose pivot
        # is a v column is (b, x): b runs over the echelon basis of the
        # admissible vectors, and x is a lift of b that vanishes on the
        # pivots of the other rows. Those rows are (0, r), r in the radical,
        # in echelon form for the reversed columns, so their pivots are the
        # last nonzero columns of the radical: the free columns of
        # RREF([C; C3]). x is therefore the canonical lift of b.
        n, m, k = self.module.algebra.dim, self.module.dim, self._kernel.dim
        pairs = self._pairs
        xis = self._from_kernel([(s, [(j, a) for j, a in p if j < k]) for s, p in pairs])
        rows = [
            _concat((x, (s, [(j - k, a) for j, a in p if j >= k])), n)
            for x, (s, p) in zip(xis, pairs)
        ]
        order = [*range(n, n + m), *range(n - 1, -1, -1)]
        reduced, pivots = _rref_in_order(rows, order)
        admissible, lifts, radical = [], [], []
        for (s, p), pc in zip(reduced, pivots):
            cut = bisect_left(p, (n,))
            x = _canon(s, p[:cut])
            if pc < n:
                radical.append(x)
            else:
                admissible.append(_canon(s, [(j - n, a) for j, a in p[cut:]]))
                lifts.append(x)
        return Subspace._from_rref(m, admissible), lifts, radical

    @cached_property
    def admissible(self):
        return self._pairs_v_first[0]

    @cached_property
    def _lift_matrix(self):
        # row j is the canonical lift of admissible basis vector j
        return Matrix._from_sparse(self._pairs_v_first[1], self.module.algebra.dim)

    @cached_property
    def radical(self):
        return Subspace._span(self.module.algebra.dim, self._pairs_v_first[2])

    @cached_property
    def _potential_solver(self):
        return LinearSolver(self._d0)

    @cached_property
    def normalizer(self):
        # xi = K y with [xi, r] in the radical for each r of its basis: in
        # K-coordinates, the kernel of q [k_j, r] over the basis vectors k_j
        # of K, q the quotient by the radical
        alg = self.module.algebra
        n = alg.dim
        basis = self._kernel._basis_rows()
        rows = []
        if self.radical.dim:
            q = quotient_map(n, self.radical)
            for r in self.radical._basis_rows():
                cols = [alg._sparse_bracket(b, r) for b in basis]
                rows += (q * Matrix._from_sparse(cols, n).transpose()).sparse_rows
        return self._in_h(kernel_basis(Matrix._from_sparse(rows, len(basis)))._basis_rows())

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
        # d of each admissible basis row, as a sum of columns of d
        cols = self._d0.transpose().sparse_rows
        image = Subspace._span(
            cochain_dim(self.module, 1),
            [
                sparse_lincomb(((a, cols[j]) for j, a in p), s)
                for s, p in self.admissible._basis_rows()
            ],
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

"""Algebraic conservation statements.

If v is a g-invariant vector whose differential is i_xi omega, then the
momentum values J(X) are constant along xi: xi.J(X) = 0 for every X. And if
the momentum values of a second action are invariant under the first, the
relation is symmetric and the two action images bracket into the radical.
Hypotheses are checked exactly and a failed premise raises
HypothesisViolation naming it; a report is only ever produced with its
hypotheses verified, so conclusion_ok = False on one indicates a bug, not
bad input.
"""

from hamflux._record import Record
from hamflux.cochain import Cochain, contract, differential
from hamflux.errors import HypothesisViolation
from hamflux.linalg import vector


class NoetherReport(Record):
    """hypothesis_ok and conclusion_ok flags and the witnesses, (tag,
    indices, residual) triples whose residuals are all zero on success."""

    __slots__ = ("hypothesis_ok", "conclusion_ok", "witnesses")

    def residuals(self):
        return [w[2] for w in self.witnesses]


def invariant_flow_check(analysis, momentum, v, xi):
    """xi.J(X) = 0 for all X, given d v = i_xi omega with v invariant under g.

    Premises, each raising HypothesisViolation when it fails: the equation
    d v = i_xi omega holds; v is killed by the action of every zeta(X); and
    xi is hamiltonian.
    """
    module = analysis.module
    v = vector(v)
    xi = vector(xi)
    if differential(Cochain(module, 0, v)) != contract(xi, analysis.omega):
        raise HypothesisViolation(
            "d v = i_xi omega", "the supplied pair is not hamiltonian"
        )
    zeta = momentum.zeta
    for i in range(zeta.source.dim):
        if any(x != 0 for x in module.act(zeta.matrix.column(i), v)):
            raise HypothesisViolation(
                "v is g-invariant", f"zeta(e_{i}) does not kill v"
            )
    if not analysis.hamiltonian.contains(xi):
        raise HypothesisViolation("xi is hamiltonian", "i_xi omega has no potential")
    witnesses = []
    ok = True
    for i in range(momentum.g.dim):
        residual = module.act(xi, momentum.matrix.column(i))
        witnesses.append(("flow", (i,), residual))
        if any(x != 0 for x in residual):
            ok = False
    return NoetherReport(True, ok, tuple(witnesses))


def commuting_actions_check(analysis, momentum1, momentum2):
    """Invariance of one momentum map under the other action propagates.

    Premise: every value of momentum2 is invariant under the first action.
    Conclusions, with one witness triple per basis pair: values of momentum1
    are invariant under the second action, and the brackets
    [zeta1 X, zeta2 Y] contract trivially with both omega and d omega.
    """
    module = analysis.module
    z1, z2 = momentum1.zeta, momentum2.zeta
    n1, n2 = z1.source.dim, z2.source.dim
    for i in range(n1):
        for j in range(n2):
            r = module.act(z1.matrix.column(i), momentum2.matrix.column(j))
            if any(x != 0 for x in r):
                raise HypothesisViolation(
                    "J2 values are g1-invariant",
                    f"zeta1(e_{i}) does not kill J2(e_{j})",
                )
    witnesses = []
    ok = True

    def record(tag, idx, residual):
        nonlocal ok
        witnesses.append((tag, idx, tuple(residual)))
        if any(x != 0 for x in residual):
            ok = False

    algebra = module.algebra
    for j in range(n2):
        for i in range(n1):
            record(
                "action",
                (j, i),
                module.act(z2.matrix.column(j), momentum1.matrix.column(i)),
            )
    for i in range(n1):
        for j in range(n2):
            b = algebra.bracket(z1.matrix.column(i), z2.matrix.column(j))
            record("omega", (i, j), contract(b, analysis.omega).coords)
            record("d_omega", (i, j), contract(b, analysis.d_omega).coords)
    return NoetherReport(True, ok, tuple(witnesses))

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
from hamflux.cochain import Cochain, _contract, _xi_row, differential
from hamflux.errors import HypothesisViolation
from hamflux.linalg import _dense, vector


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
    c = Cochain(module, 0, v)
    xs = _xi_row(xi, module.algebra.dim)
    if differential(c) != _contract(xs, analysis.omega):
        raise HypothesisViolation(
            "d v = i_xi omega", "the supplied pair is not hamiltonian"
        )
    vs = c.rows[0]
    for i, z in enumerate(momentum.zeta.matrix.transpose().sparse_rows):
        if module._act_row(z, vs)[1]:
            raise HypothesisViolation(
                "v is g-invariant", f"zeta(e_{i}) does not kill v"
            )
    if not analysis.hamiltonian._contains_row(xs):
        raise HypothesisViolation("xi is hamiltonian", "i_xi omega has no potential")
    witnesses = []
    ok = True
    for i, value in enumerate(momentum.matrix.transpose().sparse_rows):
        residual = module._act_row(xs, value)
        witnesses.append(("flow", (i,), _dense(residual, module.dim)))
        if residual[1]:
            ok = False
    return NoetherReport(True, ok, tuple(witnesses))


def commuting_actions_check(analysis, momentum1, momentum2):
    """Invariance of one momentum map under the other action propagates.

    Premise: every value of momentum2 is invariant under the first action.
    Conclusions, with one witness triple per basis pair: values of momentum1
    are invariant under the second action, and the brackets
    [zeta1 X, zeta2 Y] contract trivially with both omega and d omega.
    """
    module, m = analysis.module, analysis.module.dim
    # row i of each is the value on e_i
    z1, z2 = (mm.zeta.matrix.transpose().sparse_rows for mm in (momentum1, momentum2))
    j1, j2 = (mm.matrix.transpose().sparse_rows for mm in (momentum1, momentum2))
    for i, x in enumerate(z1):
        for j, v in enumerate(j2):
            if module._act_row(x, v)[1]:
                raise HypothesisViolation(
                    "J2 values are g1-invariant",
                    f"zeta1(e_{i}) does not kill J2(e_{j})",
                )
    witnesses = []
    ok = True

    def record(tag, idx, rows):
        nonlocal ok
        witnesses.append((tag, idx, tuple(x for r in rows for x in _dense(r, m))))
        if any(pairs for _, pairs in rows):
            ok = False

    for j, y in enumerate(z2):
        for i, v in enumerate(j1):
            record("action", (j, i), [module._act_row(y, v)])
    for i, x in enumerate(z1):
        for j, y in enumerate(z2):
            b = module.algebra._sparse_bracket(x, y)
            record("omega", (i, j), _contract(b, analysis.omega).rows)
            record("d_omega", (i, j), _contract(b, analysis.d_omega).rows)
    return NoetherReport(True, ok, tuple(witnesses))

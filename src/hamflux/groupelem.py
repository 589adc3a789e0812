"""Group-level data attached to a hamiltonian action: explicitly supplied
elements (Ad, rhoV), the group cocycle kappa, the integrated adjoint action
on the central extension, and the affine action on momentum candidates.

No group object is ever constructed. An element is a labeled pair of
matrices validated against the infinitesimal data: Ad must be an
automorphism of g, rhoV an invertible operator on V intertwining the
actions (rhoV ρ(ζX) rhoV⁻¹ = ρ(ζ Ad X)) and preserving the pullback
cocycle. Products and inverses are formed component-wise and re-validated,
so closure failures surface as errors instead of silently wrong answers.
"""

import math

from hamflux._record import Record
from hamflux.errors import (
    BracketViolation,
    CocycleInvarianceViolation,
    HamfluxError,
    IntertwiningViolation,
    NotAutomorphism,
    NotInvertible,
    NotNilpotent,
    Unsolvable,
    ValueOutsideInvariants,
)
from hamflux.liealg import AlgebraHom
from hamflux.linalg import Matrix, hstack, rat, vstack
from hamflux.momentum import central_extension, extended_momentum


class GroupElement(Record):
    """A validated element: label, the action data (analysis, zeta) and the
    matrices Ad and rhoV with their inverses. Elements compare by identity."""

    __slots__ = ("label", "analysis", "zeta", "ad", "ad_inv", "rho_v", "rho_v_inv")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self):
        return f"GroupElement({self.label!r})"


def group_element(analysis, zeta, ad, rho_v, label="g"):
    """Validate a candidate element against the action data.

    Checks, exactly: Ad is a bracket-preserving bijection of g; rhoV is
    invertible; rhoV conjugates the action of zeta(X) to that of
    zeta(Ad X); rhoV sends omega_g(X, Y) to omega_g(Ad X, Ad Y).
    """
    g = zeta.source
    ad = ad if isinstance(ad, Matrix) else Matrix(ad)
    rho_v = rho_v if isinstance(rho_v, Matrix) else Matrix(rho_v)
    if ad.nrows != g.dim or ad.ncols != g.dim:
        raise ValueError("Ad must be square of size dim g")
    m = analysis.module.dim
    if rho_v.nrows != m or rho_v.ncols != m:
        raise ValueError("rhoV must be square of size dim V")
    try:
        ad_inv = ad.inverse()
    except Unsolvable:
        raise NotAutomorphism("Ad is singular") from None
    try:
        AlgebraHom(g, g, ad)
    except BracketViolation as exc:
        i, j = exc.indices
        raise NotAutomorphism(f"Ad breaks the bracket at basis pair ({i}, {j})") from None
    try:
        rho_v_inv = rho_v.inverse()
    except Unsolvable:
        raise NotInvertible("rhoV is singular") from None
    module = analysis.module
    z = zeta.matrix.transpose().sparse_rows  # row i is zeta(e_i)
    za = [zeta.matrix._apply_row(r) for r in ad.transpose().sparse_rows]  # zeta(Ad e_i)
    for i in range(g.dim):
        acted = module._action_of_row(za[i])
        if rho_v * module._action_of_row(z[i]) * rho_v_inv != acted:
            raise IntertwiningViolation(i)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = rho_v._apply_row(analysis._omega_row(z[i], z[j]))
            if lhs != analysis._omega_row(za[i], za[j]):
                raise CocycleInvarianceViolation(i, j)
    return GroupElement(label, analysis, zeta, ad, ad_inv, rho_v, rho_v_inv)


def compose(g1, g2):
    """Component-wise product, re-validated."""
    if g1.analysis is not g2.analysis or g1.zeta is not g2.zeta:
        raise ValueError("elements belong to different actions")
    return group_element(
        g1.analysis,
        g1.zeta,
        g1.ad * g2.ad,
        g1.rho_v * g2.rho_v,
        label=f"{g1.label}*{g2.label}",
    )


def inverse(g):
    """Component-wise inverse, re-validated."""
    return group_element(
        g.analysis, g.zeta, g.ad_inv, g.rho_v_inv, label=f"{g.label}^-1"
    )


def identity_element(analysis, zeta, label="e"):
    n = zeta.source.dim
    m = analysis.module.dim
    return group_element(analysis, zeta, Matrix.identity(n), Matrix.identity(m), label)


def exp_nilpotent(n, t=1):
    """Exact exponential sum(t^k n^k / k!) of a nilpotent matrix."""
    n = n if isinstance(n, Matrix) else Matrix(n)
    if n.nrows != n.ncols:
        raise ValueError("matrix must be square")
    dim = n.nrows
    t = rat(t)
    powers = [Matrix.identity(dim)]
    p = Matrix.identity(dim)
    for _ in range(dim):
        p = p * n
        if p.is_zero():
            break
        powers.append(p)
    else:
        if dim and not p.is_zero():
            raise NotNilpotent(f"matrix is not nilpotent up to power {dim}")
    total = Matrix.zeros(dim, dim)
    for k, pk in enumerate(powers):
        total = total + (t**k / math.factorial(k)) * pk
    return total


def group_cocycle(element, momentum):
    """kappa(g): X -> rhoV J(Ad^-1 X) - J(X), with values verified in V^h.

    A column escaping the invariants means the supplied (Ad, rhoV) pair is
    inconsistent with a hamiltonian action, even though it passed the
    pointwise validation checks.
    """
    analysis = momentum.analysis
    J = momentum.matrix
    K = element.rho_v * J * element.ad_inv - J
    for i, col in enumerate(K.transpose().sparse_rows):
        if not analysis.invariants._contains_row(col):
            raise ValueOutsideInvariants(i)
    return K


def group_cocycle_check(g1, g2, momentum):
    """kappa(g1 g2) = g1.kappa(g2) + kappa(g1), where (g.c)(Y) = rhoV c(Ad^-1 Y)."""
    product = compose(g1, g2)
    lhs = group_cocycle(product, momentum)
    rhs = g1.rho_v * group_cocycle(g2, momentum) * g1.ad_inv + group_cocycle(
        g1, momentum
    )
    return lhs == rhs


def adjoint_on_extension(element, momentum):
    """The operator (z, X) -> (z + kappa(g)(Ad X), Ad X) on V^h x_tau g.

    Verified to be an automorphism of the central extension that fixes the
    kernel pointwise and satisfies hatJ . Ad_hat = rhoV . hatJ.
    """
    analysis = momentum.analysis
    g = momentum.g
    central = central_extension(momentum)
    k = central.kernel_dim
    K = group_cocycle(element, momentum)
    kappa_ad = K * element.ad
    c_cols = [analysis.invariants._coords_row(c) for c in kappa_ad.transpose().sparse_rows]
    top = hstack(Matrix.identity(k), Matrix._from_sparse(c_cols, k).transpose())
    bottom = hstack(Matrix.zeros(g.dim, k), element.ad)
    out = vstack(top, bottom)
    try:
        AlgebraHom(central.total, central.total, out)
    except BracketViolation:
        raise HamfluxError(
            "extension adjoint is not an automorphism; inconsistent element"
        ) from None
    hat = extended_momentum(momentum)
    if hat.matrix * out != element.rho_v * hat.matrix:
        raise HamfluxError(
            "extension adjoint does not intertwine the extended momentum map"
        )
    return out


def affine_action(element, momentum, alpha):
    """(g * alpha)(X) = alpha(Ad^-1 X) - kappa(g)(X) on maps g -> V^h."""
    alpha = alpha if isinstance(alpha, Matrix) else Matrix(alpha)
    K = group_cocycle(element, momentum)
    if alpha.nrows != K.nrows or alpha.ncols != K.ncols:
        raise ValueError("alpha must be a module.dim x g.dim matrix")
    return alpha * element.ad_inv - K

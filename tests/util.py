"""Shared instance constructors for the test suite."""

import random
from fractions import Fraction as F
from math import gcd

from hamflux.liealg import LieAlgebra


def assert_scaled_row(row, ncols):
    """The canonical scaled row invariant: (s, ((col, a), ...)) with s >= 1,
    nonzero int entries in strictly increasing columns below ncols, and
    gcd(s, a, ...) = 1."""
    s, pairs = row
    assert type(s) is int and s >= 1
    cols = [j for j, _ in pairs]
    assert all(i < j for i, j in zip(cols, cols[1:]))
    assert all(0 <= j < ncols for j in cols)
    assert all(type(a) is int and a != 0 for _, a in pairs)
    assert gcd(s, *[a for _, a in pairs]) == 1


def z3(*entries):
    v = [0, 0, 0]
    for i, x in entries:
        v[i] = x
    return tuple(F(x) for x in v)


def heis3():
    """Basis (X, Y, Z) with [X, Y] = Z."""
    n = 3
    table = [[(0,) * n for _ in range(n)] for _ in range(n)]
    table[0][1] = (0, 0, 1)
    table[1][0] = (0, 0, -1)
    return LieAlgebra(table)


def heis3_plus_line():
    """Basis (X, Y, Z, W) with [X, Y] = Z; W spans an extra central line."""
    table = [[(0,) * 4 for _ in range(4)] for _ in range(4)]
    table[0][1] = (0, 0, 1, 0)
    table[1][0] = (0, 0, -1, 0)
    return LieAlgebra(table)


def sl2():
    """Basis (e, f, h) with [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    table = [[(0, 0, 0)] * 3 for _ in range(3)]
    table[0][1] = (0, 0, 1)
    table[1][0] = (0, 0, -1)
    table[2][0] = (2, 0, 0)
    table[0][2] = (-2, 0, 0)
    table[2][1] = (0, -2, 0)
    table[1][2] = (0, 2, 0)
    return LieAlgebra(table)


def solvable2():
    """Basis (a, b) with [a, b] = b."""
    return LieAlgebra([[(0, 0), (0, 1)], [(0, -1), (0, 0)]])


def heis_pair_instance():
    """Abelian h = Q^2 acting on V = heis3 coordinates (X, Y, Z) through the
    quotient action, with omega(x, y) = -[X, Y] = -Z. The running example for
    the hamiltonian analysis: rad = 0, sp = ham = h, V^h = span Z, V_omega = V."""
    from hamflux.cochain import Cochain
    from hamflux.liealg import LieModule

    h = LieAlgebra.abelian(2)
    rho_x = [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
    rho_y = [[0, 0, 0], [0, 0, 0], [-1, 0, 0]]
    module = LieModule(h, 3, [rho_x, rho_y])
    omega = Cochain.from_dict(module, 2, {(0, 1): (0, 0, -1)})
    return module, omega


def sl2_adjoint_instance():
    """sl2 acting on itself with omega = -bracket, so the poisson bracket of
    two vectors is their commutator and the inclusion is an equivariant
    momentum map."""
    from hamflux.cochain import Cochain
    from hamflux.liealg import adjoint_module

    alg = sl2()
    module = adjoint_module(alg)
    omega = Cochain.from_values(
        module, 2, lambda i, j: tuple(-x for x in alg.structure[i][j])
    )
    return module, omega


def rational_limit_document(digits, dim=16, seed=5):
    """A problem document at the dimension limits whose cost is in its
    entries: an abelian dim-dim algebra acting on Q^dim by diagonal
    matrices, omega with every entry on every pair i < j nonzero, and zeta
    the identity. Each diagonal action entry and each omega entry is a
    random "p/q" with digits-digit p and q, drawn from random.Random(seed):
    the action matrices in order, then omega pair by pair."""
    rng = random.Random(seed)
    lo, hi = 10 ** (digits - 1), 10**digits - 1

    def ratio():
        return f"{rng.randint(lo, hi)}/{rng.randint(lo, hi)}"

    action = []
    for _ in range(dim):
        grid = [["0"] * dim for _ in range(dim)]
        for r in range(dim):
            grid[r][r] = ratio()
        action.append(grid)
    omega = [[i, j, ratio(), c] for i in range(dim) for j in range(i + 1, dim) for c in range(dim)]
    identity = [["1" if r == c else "0" for c in range(dim)] for r in range(dim)]
    return {
        "schema": "hamflux/1",
        "lie_algebra": {"dim": dim, "structure": []},
        "module": {"dim": dim, "action": action},
        "omega": omega,
        "zeta": {"matrix": identity},
    }

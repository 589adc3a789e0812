"""Cochains stored as one scaled integer row per index tuple agree with the
dense formulas.

Each reference below works on the dense Fraction coordinates, as cochains
were computed before they were stored as rows: values are slices of the
coordinate vector, the differential is the dense product with the assembled
matrix, a contraction sums xi_i c(e_i, ...), the Lie derivative is its
definition term by term, a class is read off a dense solve in the cocycles
and from_dict accumulates into a dense list. The instances are rescaled copies of small modules, so the
rows have scales > 1 and entries past 2^64.
"""

import json
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflux.cochain import (
    Cochain,
    cochain_dim,
    cohomology,
    contract,
    contraction_matrix,
    differential,
    differential_matrix,
    lie_derivative,
    sort_with_sign,
    tuple_basis,
)
from hamflux.errors import Unsolvable
from hamflux.liealg import LieModule, adjoint_module
from hamflux.linalg import LinearSolver, Subspace, _sparse, quotient_map
from hamflux.problemfile import parse_problem
from util import (
    assert_scaled_row,
    heis3,
    heis_pair_instance,
    rational_limit_document,
    rescaled,
    sl2,
    solvable2,
)

BASES = [
    lambda: adjoint_module(sl2()),
    lambda: adjoint_module(heis3()),
    lambda: heis_pair_instance()[0],
    lambda: LieModule.trivial(heis3(), 2),
    lambda: adjoint_module(solvable2()),
]

big = st.builds(
    lambda sign, p, q: F(sign * p, q),
    st.sampled_from((1, -1)),
    st.integers(2**64, 2**80),
    st.integers(2, 2**70),
)
entry = st.one_of(st.just(F(0)), big)


@st.composite
def modules(draw):
    base = draw(st.sampled_from(BASES))()
    lam = draw(st.lists(big, min_size=base.algebra.dim, max_size=base.algebra.dim))
    mu = draw(st.lists(big, min_size=base.dim, max_size=base.dim))
    return rescaled(base, lam, mu)


def coords_of_degree(module, p):
    n = cochain_dim(module, p)
    return st.lists(entry, min_size=n, max_size=n)


def dense_value(module, p, coords, idx):
    m = module.dim
    sign, key = sort_with_sign(idx)
    if sign == 0:
        return (F(0),) * m
    _, index = tuple_basis(module.algebra.dim, p)
    base = index[key] * m
    return tuple(sign * x for x in coords[base : base + m])


def dense_differential(module, p, coords):
    return tuple(
        sum((a * x for a, x in zip(row, coords)), F(0))
        for row in differential_matrix(module, p).entries
    )


def dense_contract(module, p, xi, coords):
    n = module.algebra.dim
    rests, _ = tuple_basis(n, p - 1)
    return tuple(
        sum((xi[i] * dense_value(module, p, coords, (i, *s))[a] for i in range(n)), F(0))
        for s in rests
        for a in range(module.dim)
    )


def dense_lie_derivative(module, p, xi, coords):
    """(L_xi c)(t) = xi . c(t) - sum over slots of c(t with e_(t_pos)
    replaced by [xi, e_(t_pos)]), expanded in the basis."""
    n, m = module.algebra.dim, module.dim
    c, rho = module.algebra.structure, [a.entries for a in module.action]
    out = []
    for t in tuple_basis(n, p)[0]:
        value = dense_value(module, p, coords, t)
        acted = [
            sum((xi[l] * rho[l][a][b] * value[b] for l in range(n) for b in range(m)), F(0))
            for a in range(m)
        ]
        for pos, y in enumerate(t):
            for k in range(n):
                w = sum((xi[i] * c[i][y][k] for i in range(n)), F(0))
                other = dense_value(module, p, coords, t[:pos] + (k,) + t[pos + 1 :])
                acted = [x - w * o for x, o in zip(acted, other)]
        out += acted
    return out


def dense_rows(module, p, coords):
    """The scaled rows of the values of `coords`, one per increasing tuple."""
    m = module.dim
    tuples, _ = tuple_basis(module.algebra.dim, p)
    return tuple(_sparse(coords[k * m : (k + 1) * m]) for k in range(len(tuples)))


def assert_same(c, module, p, coords):
    """c is the cochain of `coords`, stored canonically, one row per
    increasing tuple, and equal and hash-equal to the one the public
    constructor builds."""
    assert c.degree == p and c.coords == tuple(coords)
    assert len(c.rows) == len(tuple_basis(module.algebra.dim, p)[0])
    for row in c.rows:
        assert_scaled_row(row, module.dim)
    public = Cochain(module, p, coords)
    assert c == public and hash(c) == hash(public)
    assert c.is_zero() == (not any(coords))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_differential_contract_and_value_match_the_dense_formulas(data):
    module = data.draw(modules())
    n = module.algebra.dim
    p = data.draw(st.integers(0, 3))
    coords = data.draw(coords_of_degree(module, p))
    c = Cochain(module, p, coords)
    assert_same(c, module, p, coords)
    assert c.rows == dense_rows(module, p, coords)
    idx = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=p, max_size=p)))
    assert c.value(*idx) == dense_value(module, p, coords, idx)
    if p < 3:
        assert_same(differential(c), module, p + 1, dense_differential(module, p, coords))
    xi = data.draw(st.lists(entry, min_size=n, max_size=n))
    assert_same(lie_derivative(xi, c), module, p, dense_lie_derivative(module, p, xi, coords))
    if p > 0:
        assert_same(contract(xi, c), module, p - 1, dense_contract(module, p, xi, coords))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_class_of_matches_a_dense_solve_in_the_cocycles(data):
    module = data.draw(modules())
    p = data.draw(st.integers(1, 2))
    h = cohomology(module, p)
    z = h.cocycles
    solver = LinearSolver(z.basis)
    b_in_z = [solver.solve(b) for b in h.coboundaries.basis.columns()]
    q = quotient_map(z.dim, Subspace.from_vectors(z.dim, b_in_z))
    coeffs = data.draw(st.lists(entry, min_size=z.dim, max_size=z.dim))
    coords = z.basis.apply(coeffs)
    assert h.class_of(Cochain(module, p, coords)) == q.apply(solver.solve(coords))
    moved = data.draw(coords_of_degree(module, p))
    if not z.contains(moved):
        with pytest.raises(Unsolvable):
            h.class_of(Cochain(module, p, moved))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_from_dict_matches_dense_accumulation(data):
    module = data.draw(modules())
    n, m = module.algebra.dim, module.dim
    p = data.draw(st.integers(1, min(3, n)))
    _, index = tuple_basis(n, p)
    # permuted keys of one tuple land on the same coordinates, with signs
    keys = data.draw(st.lists(st.permutations(list(range(n)))
                              .map(lambda perm: tuple(perm[:p])), max_size=6, unique=True))
    entries = {k: data.draw(st.lists(entry, min_size=m, max_size=m)) for k in keys}
    dense = [F(0)] * cochain_dim(module, p)
    for key, val in entries.items():
        sign, t = sort_with_sign(key)
        for a, x in enumerate(val):
            dense[index[t] * m + a] += sign * x
    assert_same(Cochain.from_dict(module, p, entries), module, p, dense)
    if p >= 2:
        repeated = (0,) * p
        zero = entries | {repeated: (0,) * m}
        assert_same(Cochain.from_dict(module, p, zero), module, p, dense)
        nonzero = entries | {repeated: (0,) * (m - 1) + (data.draw(big),)}
        with pytest.raises(ValueError, match="repeated indices"):
            Cochain.from_dict(module, p, nonzero)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_arithmetic_matches_dense_coordinates(data):
    module = data.draw(modules())
    p = data.draw(st.integers(0, 3))
    u = data.draw(coords_of_degree(module, p))
    v = data.draw(coords_of_degree(module, p))
    a, b = Cochain(module, p, u), Cochain(module, p, v)
    assert_same(a + b, module, p, [x + y for x, y in zip(u, v)])
    assert_same(a - b, module, p, [x - y for x, y in zip(u, v)])
    assert_same(-a, module, p, [-x for x in u])
    assert_same(a - a, module, p, [F(0)] * len(u))
    k = data.draw(st.one_of(st.just(0), st.integers(-5, 5), big))
    for scalar in (k, F(k), str(F(k))):
        assert_same(scalar * a, module, p, [F(k) * x for x in u])


def test_row_constructor_equals_the_public_one():
    module = adjoint_module(sl2())
    coords = [F(0)] * 8 + [F(2**70, 3)]
    public = Cochain(module, 2, coords)
    # the value on the last of the three pairs is (0, 0, 2^70 / 3)
    trusted = Cochain._from_rows(module, 2, ((1, ()), (1, ()), (3, ((2, 2**70),))))
    assert public == trusted and hash(public) == hash(trusted)
    assert trusted.coords == tuple(coords)
    assert Cochain.zero(module, 2) == Cochain(module, 2, [0] * 9)
    assert Cochain.zero(module, 2) != Cochain.zero(module, 1)
    with pytest.raises(TypeError):
        Cochain(module, 2, [0.5] * 9)
    with pytest.raises(ValueError):
        Cochain(module, 2, [0] * 8)


def test_scales_stay_local_to_one_value_on_the_rational_limit_document():
    """rational_limit_document(20) has a diagonal action and a dense omega
    on 16-dim h and V, each entry a random "p/q" with 20-digit p and q
    (denominators of at most 67 bits). Each row is bounded by the
    denominators of its own entries, where one scale over all of omega
    would have 107,249 bits:
    - a value of omega: the lcm of its 16 denominators, 1,031 bits at most;
    - a value of d omega on (x, y, z): it sums lambda_w,j omega(face)_j over
      w in (x, y, z), so its scale divides the lcm of the scales of the
      three face values times the lcm of the action denominators of x, y
      and z, 6,016 bits at most;
    - a row of contraction_matrix(omega): omega(e_i, e_y)_a over the 15
      i != y, at most 15 * 67 bits.
    """
    doc = rational_limit_document(20)
    omega = parse_problem(json.dumps(doc)).omega
    n = m = 16
    pairs, index = tuple_basis(n, 2)
    den = {(i, j, a): F(v).denominator for i, j, v, a in doc["omega"]}
    own = [lcm(*(den[i, j, a] for a in range(m))) for i, j in pairs]
    assert len(omega.rows) == len(pairs)
    assert all(o % s == 0 for o, (s, _) in zip(own, omega.rows))
    assert max(s.bit_length() for s, _ in omega.rows) == 1031

    act = [[F(doc["module"]["action"][w][j][j]).denominator for j in range(m)] for w in range(n)]
    d = differential(omega)
    for (x, y, z), (s, _) in zip(tuple_basis(n, 3)[0], d.rows):
        faces = lcm(own[index[y, z]], own[index[x, z]], own[index[x, y]])
        assert faces * lcm(*act[x], *act[y], *act[z]) % s == 0
    assert max(s.bit_length() for s, _ in d.rows) <= 6016

    rows = contraction_matrix(omega).sparse_rows
    for y in range(n):
        for a in range(m):
            entries = lcm(*(den[min(i, y), max(i, y), a] for i in range(n) if i != y))
            assert entries % rows[y * m + a][0] == 0
    assert max(s.bit_length() for s, _ in rows) <= 15 * 67

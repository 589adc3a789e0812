"""Lie algebra / module / hom validation and the derived constructions."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflux.errors import (
    AntisymmetryViolation,
    BracketViolation,
    HamfluxError,
    HomViolation,
    JacobiViolation,
)
from hamflux.liealg import (
    AlgebraHom,
    LieAlgebra,
    LieModule,
    adjoint_module,
    center,
    spanned_subalgebra,
    subalgebra,
    _Rows,
)
from hamflux.gallery import matrix_algebra_example, random_instance
from hamflux.hamiltonian import analyze
from hamflux.linalg import Matrix, Subspace, _neg, vector
from hamflux.problemfile import parse_problem
from util import (
    assert_scaled_row,
    heis3,
    rational_limit_document,
    sl2,
    solvable2,
    unit_vector,
)


def test_heis3_validates_and_brackets():
    h = heis3()
    assert h.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert h.bracket((0, 1, 0), (1, 0, 0)) == (0, 0, -1)
    assert h.bracket((0, 0, 1), (1, 0, 0)) == (0, 0, 0)


def test_sl2_bracket_table():
    g = sl2()
    e, f, h = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert g.bracket(e, f) == (0, 0, 1)
    assert g.bracket(h, e) == (2, 0, 0)
    assert g.bracket(h, f) == (0, -2, 0)


def test_antisymmetry_violation():
    # c[0][1] = c[1][0] = e_2
    table = [[(0, 0, 0)] * 3 for _ in range(3)]
    table[0][1] = (0, 0, 1)
    table[1][0] = (0, 0, 1)
    with pytest.raises(AntisymmetryViolation) as err:
        LieAlgebra(table)
    assert err.value.indices == (0, 1)


def test_jacobi_violation():
    # [e0,e1] = e0 and [e0,e2] = e1: cyclic sum on (0,1,2) equals e1
    table = [[(0, 0, 0)] * 3 for _ in range(3)]
    table[0][1] = (1, 0, 0)
    table[1][0] = (-1, 0, 0)
    table[0][2] = (0, 1, 0)
    table[2][0] = (0, -1, 0)
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(table)
    assert err.value.indices == (0, 1, 2)
    assert err.value.residual == (F(0), F(1), F(0))


def test_jacobi_violation_from_last_cyclic_term_only():
    # [e2,e0] = e3 and [e3,e1] = e0: on (0, 1, 2) only [[e2,e0],e1] survives
    table = [[(0, 0, 0, 0)] * 4 for _ in range(4)]
    table[2][0], table[0][2] = (0, 0, 0, 1), (0, 0, 0, -1)
    table[3][1], table[1][3] = (1, 0, 0, 0), (-1, 0, 0, 0)
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(table)
    assert err.value.indices == (0, 1, 2)
    assert err.value.residual == (F(1), F(0), F(0), F(0))


def test_center_of_heis3_is_z_line():
    assert center(heis3()) == Subspace.from_vectors(3, [(0, 0, 1)])


def test_center_of_sl2_is_zero():
    assert center(sl2()).dim == 0


def test_center_of_abelian_is_everything():
    assert center(LieAlgebra.abelian(4)).dim == 4


def test_adjoint_module_of_heis3():
    m = adjoint_module(heis3())
    # ad(X) sends Y to Z and kills X, Z
    assert m.action[0] == Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert m.act((1, 0, 0), (0, 1, 0)) == (0, 0, 1)


def test_adjoint_module_of_sl2_validates():
    adjoint_module(sl2())  # Jacobi makes ad a homomorphism


def test_module_hom_violation():
    # abelian algebra but noncommuting matrices
    a = LieAlgebra.abelian(2)
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    with pytest.raises(HomViolation) as err:
        LieModule(a, 2, [e12, e21])
    assert err.value.indices == (0, 1)


def test_trivial_module():
    m = LieModule.trivial(sl2(), 2)
    assert m.act((1, 2, 3), (5, 7)) == (F(0), F(0))


def test_hom_identity_and_violation():
    h = heis3()
    AlgebraHom.identity(h)
    # swapping X and Y flips the sign of Z, so it is not a hom
    swap = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(BracketViolation) as err:
        AlgebraHom(h, h, swap)
    assert err.value.indices == (0, 1)


def test_hom_negation_on_heis_fails_but_graded_scaling_works():
    h = heis3()
    with pytest.raises(BracketViolation):
        AlgebraHom(h, h, -1 * Matrix.identity(3))
    # scaling X, Y by t and Z by t^2 is a hom
    t = F(3, 2)
    AlgebraHom(h, h, Matrix([[t, 0, 0], [0, t, 0], [0, 0, t * t]]))


def test_subalgebra_borel_of_sl2():
    g = sl2()
    borel, incl = subalgebra(g, Subspace.from_vectors(3, [(1, 0, 0), (0, 0, 1)]))
    assert borel.dim == 2
    # canonical basis is (e, h); [e, h] = -2e
    assert borel.bracket((1, 0), (0, 1)) == (F(-2), F(0))
    assert incl.matrix.ncols == 2


def test_subalgebra_not_closed():
    g = sl2()
    # span{e, f} misses [e, f] = h
    with pytest.raises(HamfluxError, match=r"bracket-closed at pair \(0, 1\)"):
        subalgebra(g, Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(HamfluxError, match=r"bracket-closed at pair \(0, 1\)"):
        spanned_subalgebra(g, Matrix.from_columns([(1, 0, 0), (0, 1, 0)]))
    # sl3 on E01, E02, E10: [E01, E02] = 0, and the first pair of the full
    # row-major loop to leave the span is [E01, E10] = H0
    sl3 = matrix_algebra_example(3).module.algebra
    gens = Matrix.from_columns([unit_vector(8, 0), unit_vector(8, 1), unit_vector(8, 2)])
    with pytest.raises(HamfluxError, match=r"bracket-closed at pair \(0, 2\)"):
        spanned_subalgebra(sl3, gens)


def test_spanned_subalgebra_keeps_generator_order():
    g = sl2()
    gens = Matrix.from_columns([(0, 0, 1), (1, 0, 0)])  # (h, e)
    sub, incl = spanned_subalgebra(g, gens)
    # [h, e] = 2e, twice the second generator
    assert sub.bracket((1, 0), (0, 1)) == (F(0), F(2))
    assert incl.matrix == gens


def test_spanned_subalgebra_rejects_dependent_generators():
    gens = Matrix.from_columns([(1, 0, 0), (0, 0, 1), (2, 0, -1)])
    with pytest.raises(HamfluxError, match="linearly dependent"):
        spanned_subalgebra(sl2(), gens)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", ["hamiltonian", "symplectic"])
def test_subalgebra_is_spanned_subalgebra_on_its_basis(seed, name):
    # on (6, 4) these range from dim 1 to 6; seed 7's sp is a proper 5-dim
    # subalgebra that is not abelian
    bundle = random_instance((6, 4), seed)
    g = bundle.module.algebra
    space = getattr(analyze(bundle.module, bundle.omega), name)
    sub, incl = subalgebra(g, space)
    sub2, incl2 = spanned_subalgebra(g, space.basis)
    assert sub == sub2 and incl.matrix == incl2.matrix == space.basis
    # reference: every bracket read off the echelon basis of the subspace
    cols = space.basis.columns()
    assert sub.structure == tuple(
        tuple(space.coords_of(g.bracket(x, y)) for y in cols) for x in cols
    )


def test_dimension_zero_algebra():
    a = LieAlgebra.abelian(0)
    assert a.dim == 0
    assert center(a).dim == 0
    LieModule.trivial(a, 2)


def test_tables_of_the_wrong_shape_are_rejected():
    zero, e1 = (1, ()), (1, ((1, 1),))
    dense = [
        [[(0, 0), (0, 1)], [(0, -1)]],  # a short row
        [[(0, 0), (0, 1)], [(0, -1), (0, 0, 0)]],  # a long value
    ]
    rows = [
        [[zero, e1], [_neg(e1)]],
        [[zero, (1, ((2, 1),))], [(1, ((2, -1),)), zero]],  # column 2 of a 2-dim algebra
    ]
    for table in dense:
        with pytest.raises(ValueError, match="n x n"):
            LieAlgebra(table)
    for table in rows:
        with pytest.raises(ValueError, match="n x n"):
            LieAlgebra(_Rows(map(tuple, table)))
    assert LieAlgebra(_Rows([[zero, e1], [_neg(e1), zero]])) == solvable2()


def test_solvable2_ad():
    s = solvable2()
    assert s.ad_matrix((1, 0)) == Matrix([[0, 0], [0, 1]])


def test_bracket_rejects_wrong_length():
    g = sl2()
    with pytest.raises(ValueError):
        g.bracket((1, 0), (0, 1))
    with pytest.raises(ValueError):
        g.bracket((1, 0, 0, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        g.bracket((1, 0, 0), (0, 1, 0, 0, 0))


def test_inexact_entries_raise_type_error():
    g = sl2()
    module = adjoint_module(g)
    x, e = (0.5, 0, 0), (1, 0, 0)
    calls = [
        lambda: g.bracket(x, e),
        lambda: g.bracket(e, x),
        lambda: g.bracket_with_basis(x, 1),
        lambda: g.ad_matrix(x),
        lambda: module.action_of(x),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="not an exact rational"):
            call()
    with pytest.raises(ValueError):
        module.action_of((1, 0))


# -- sparse structure constants against dense references --------------------------

small = st.integers(-3, 3)


def dense_bracket(table, x, y):
    n = len(table)
    return tuple(
        sum((F(x[i]) * y[j] * table[i][j][m] for i in range(n) for j in range(n)), F(0))
        for m in range(n)
    )


def dense_first_violation(table):
    """(class, indices, value) of the first failing check, or None."""
    n = len(table)
    for i in range(n):
        if any(table[i][i]):
            return AntisymmetryViolation, (i, i), tuple(table[i][i])
        for j in range(i + 1, n):
            bad = tuple(a + b for a, b in zip(table[i][j], table[j][i]))
            if any(bad):
                return AntisymmetryViolation, (i, j), bad
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = tuple(
                    sum(
                        (
                            table[i][j][l] * table[l][k][m]
                            + table[j][k][l] * table[l][i][m]
                            + table[k][i][l] * table[l][j][m]
                            for l in range(n)
                        ),
                        F(0),
                    )
                    for m in range(n)
                )
                if any(r):
                    return JacobiViolation, (i, j, k), r
    return None


def gl2():
    """sl2 plus a central e_3, so that four Jacobi triples can fail."""
    table = [[v + (0,) for v in row] + [(0,) * 4] for row in sl2().structure]
    return LieAlgebra(table + [[(0,) * 4] * 4])


@st.composite
def changed_bases(draw):
    """(base, table, P): a reference algebra, its valid table in the basis
    f_a = sum_i P[i][a] e_i, and the invertible integer matrix P."""
    base = draw(st.sampled_from([sl2, heis3, solvable2, gl2]))()
    n = base.dim
    rows = st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)
    # the identity keeps the sparse reference tables, where a perturbation
    # first breaks Jacobi on later triples
    identity = [list(unit_vector(n, i)) for i in range(n)]
    p = draw(st.one_of(st.just(identity), rows.filter(lambda r: Matrix(r).rank() == n)))
    return base, table_in_basis(base, p), p


def table_in_basis(base, p):
    """The dense table of base in the basis f_a = sum_i p[i][a] e_i."""
    n = base.dim
    pinv = Matrix(p).inverse()
    cols = [[p[i][a] for i in range(n)] for a in range(n)]
    return [
        [pinv.apply(dense_bracket(base.structure, cols[a], cols[b])) for b in range(n)]
        for a in range(n)
    ]


BIG = 2**64 + 13
# changed entries: small ints, and entries with a numerator or a denominator
# above 2^64
deltas = st.one_of(small.filter(bool), st.sampled_from([BIG, -BIG, F(1, BIG), F(-5, BIG)]))


@st.composite
def wide_changed_bases(draw):
    """changed_bases with each f_a also scaled by one of 1, 2, 3 or BIG: the
    structure constants, and the maps and actions built from P, then carry
    rows of different scales, many above 1, and integers above 2^64."""
    base, _, p = draw(changed_bases())
    n = base.dim
    d = [draw(st.sampled_from([1, 2, 3, BIG])) for _ in range(n)]
    p = [[p[i][a] * d[a] for a in range(n)] for i in range(n)]
    return base, table_in_basis(base, p), p


@st.composite
def perturbed_tables(draw):
    """A valid table with one constant changed or, more often, with one
    antisymmetric pair of constants changed (which leaves only Jacobi to
    fail)."""
    _, table, _ = draw(changed_bases())
    n = len(table)
    i, j, m = (draw(st.integers(0, n - 1)) for _ in range(3))
    delta = draw(small.filter(bool))
    table = [[list(v) for v in row] for row in table]
    table[i][j][m] += delta
    if i != j and draw(st.integers(0, 3)):
        table[j][i][m] -= delta
    return table


def assert_same_failure(table):
    expected = dense_first_violation(table)
    if expected is None:
        LieAlgebra(table)
        return
    cls, indices, value = expected
    with pytest.raises(cls) as err:
        LieAlgebra(table)
    assert type(err.value) is cls
    assert err.value.indices == indices
    got = err.value.value if cls is AntisymmetryViolation else err.value.residual
    assert got == value


@settings(max_examples=100, deadline=None)
@given(perturbed_tables())
def test_validation_matches_dense_loop_on_perturbed_tables(table):
    assert_same_failure(table)


@settings(max_examples=60, deadline=None)
@given(
    changed_bases(),
    st.lists(small, min_size=4, max_size=4),
    st.lists(small, min_size=4, max_size=4),
)
def test_brackets_match_dense_sum(case, xs, ys):
    _, table, _ = case
    g = LieAlgebra(table)
    n = g.dim
    x, y = xs[:n], ys[:n]
    assert g.bracket(x, y) == dense_bracket(table, x, y)
    units = [unit_vector(n, k) for k in range(n)]
    for k in range(n):
        assert g.bracket_with_basis(x, k) == dense_bracket(table, x, units[k])
    ad = [[dense_bracket(table, x, units[k])[l] for k in range(n)] for l in range(n)]
    assert g.ad_matrix(x) == Matrix(ad)


@settings(max_examples=60, deadline=None)
@given(changed_bases())
def test_sparse_table_is_canonical(case):
    _, table, _ = case
    assert dense_first_violation(table) is None
    g = LieAlgebra(table)
    n = g.dim
    for i in range(n):
        for j in range(n):
            s, pairs = row = g._sparse[i][j]
            assert_scaled_row(row, n)
            dense = g.structure[i][j]
            assert tuple(pairs) == tuple((l, x * s) for l, x in enumerate(dense) if x)
    # every constructor path equals, and hashes equal to, a rebuild from the
    # dense view
    for h in (g, LieAlgebra.abelian(n), subalgebra(g, Subspace.full(n))[0]):
        rebuilt = LieAlgebra(h.structure)
        assert h == rebuilt and hash(h) == hash(rebuilt)


@settings(max_examples=60, deadline=None)
@given(changed_bases(), changed_bases())
def test_structure_is_derived_and_equality_follows_it(case1, case2):
    # structure is derived from the one stored sparse table; == and hash read
    # that table, so they must agree with the dense tables
    t1, t2 = (tuple(tuple(vector(v) for v in row) for row in c[1]) for c in (case1, case2))
    g1, g2 = LieAlgebra(case1[1]), LieAlgebra(case2[1])
    assert g1.structure == t1 and g2.structure == t2
    assert (g1 == g2) == (t1 == t2)
    if t1 == t2:
        assert hash(g1) == hash(g2)
    again = LieAlgebra(t1)
    assert again == g1 and hash(again) == hash(g1)


@settings(max_examples=60, deadline=None)
@given(changed_bases(), st.data())
def test_hom_fails_at_dense_first_pair(case, data):
    # P maps the changed basis onto the reference one, so it is a hom from
    # the changed algebra to the reference algebra until an entry is perturbed
    base, table, p = case
    n = base.dim
    m = [list(r) for r in p]
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        m[i][j] += data.draw(small.filter(bool))
    mat = Matrix(m)
    cols = [[m[r][c] for r in range(n)] for c in range(n)]
    first = next(
        (
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if mat.apply(table[i][j]) != dense_bracket(base.structure, cols[i], cols[j])
        ),
        None,
    )
    source = LieAlgebra(table)
    if first is None:
        AlgebraHom(source, base, mat)
    else:
        with pytest.raises(BracketViolation) as err:
            AlgebraHom(source, base, mat)
        assert err.value.indices == first


def dense_matmul(a, b):
    cols = range(len(b[0]))
    return [[sum((x * b[k][c] for k, x in enumerate(row) if x), F(0)) for c in cols] for row in a]


def dense_first_hom_violation(table, mats):
    """The first pair i < j with rho([e_i, e_j]) != [rho(e_i), rho(e_j)], by
    dense Fraction matrix products, or None."""
    n, m = len(table), len(mats[0])
    for i in range(n):
        for j in range(i + 1, n):
            ij = dense_matmul(mats[i], mats[j])
            ji = dense_matmul(mats[j], mats[i])
            for r in range(m):
                for c in range(m):
                    lhs = sum((x * mats[l][r][c] for l, x in enumerate(table[i][j]) if x), F(0))
                    if lhs != ij[r][c] - ji[r][c]:
                        return i, j
    return None


@settings(max_examples=60, deadline=None)
@given(wide_changed_bases(), st.data())
def test_module_check_fails_at_dense_first_pair(case, data):
    # the adjoint action of the reference algebra, pulled back to the changed
    # basis and conjugated by a second invertible Q with columns scaled by 1,
    # 2, 3 or BIG: a module of the changed algebra until one action entry is
    # perturbed
    base, table, p = case
    n = base.dim
    rows = st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)
    q = data.draw(rows.filter(lambda r: Matrix(r).rank() == n))
    d = [data.draw(st.sampled_from([1, 2, 3, BIG])) for _ in range(n)]
    qm = Matrix([[q[i][a] * d[a] for a in range(n)] for i in range(n)])
    qinv = qm.inverse()
    cols = [[p[i][a] for i in range(n)] for a in range(n)]
    mats = [[list(r) for r in (qinv * base.ad_matrix(c) * qm).entries] for c in cols]
    if data.draw(st.booleans()):
        a, r, c = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        mats[a][r][c] += data.draw(deltas)
    first = dense_first_hom_violation(table, mats)
    algebra = LieAlgebra(table)
    if first is None:
        LieModule(algebra, n, mats)
    else:
        with pytest.raises(HomViolation) as err:
            LieModule(algebra, n, mats)
        assert type(err.value) is HomViolation
        assert err.value.indices == first


@settings(max_examples=60, deadline=None)
@given(wide_changed_bases(), st.data())
def test_hom_with_wide_entries_fails_at_dense_first_pair(case, data):
    # P^-1 maps the reference basis onto the changed one, so it is a hom from
    # the reference algebra to the changed algebra until an entry is perturbed
    base, table, p = case
    n = base.dim
    m = [list(r) for r in Matrix(p).inverse().entries]
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        m[i][j] += data.draw(deltas)
    cols = [[m[r][c] for r in range(n)] for c in range(n)]
    c = base.structure
    first = next(
        (
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if dense_matmul(m, [[x] for x in c[i][j]])
            != [[x] for x in dense_bracket(table, cols[i], cols[j])]
        ),
        None,
    )
    target = LieAlgebra(table)
    if first is None:
        AlgebraHom(base, target, m)
    else:
        with pytest.raises(BracketViolation) as err:
            AlgebraHom(base, target, m)
        assert type(err.value) is BracketViolation
        assert err.value.indices == first


def test_rational_limit_module_validates_and_fails_at_dense_first_pair():
    # the diagonal actions of the D = 2 limit document commute; an entry off
    # the diagonal breaks commutation with every other action matrix
    pf = parse_problem(json.dumps(rational_limit_document(2)))
    module = pf.module
    mats = [[list(r) for r in a.entries] for a in module.action]
    assert dense_first_hom_violation(module.algebra.structure, mats) is None
    mats[5][3][11] = F(-37, 91)
    first = dense_first_hom_violation(module.algebra.structure, mats)
    assert first == (0, 5)
    with pytest.raises(HomViolation) as err:
        LieModule(module.algebra, module.dim, mats)
    assert err.value.indices == first

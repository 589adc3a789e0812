"""Problem-document parsing, validation positions, and round trips."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from hamflux.cli import main
from hamflux.cochain import Cochain
from hamflux.errors import ParseError, ValidationError
from hamflux.gallery import matrix_algebra_example
from hamflux.liealg import LieAlgebra, LieModule
from hamflux.linalg import Matrix
from hamflux.problemfile import (
    ProblemFile,
    cochain_rows,
    grid_of,
    parse_problem,
    problem_to_text,
    render_json,
    serialize_problem,
)
from util import assert_scaled_row

DATA = Path(__file__).parent / "data"

FIXTURES = [
    "abelian_min.json",
    "heis3.json",
    "not_hamiltonian.json",
    "omega_zero.json",
    "sl2_m2.json",
    "zeta_zero.json",
]

# machine-written fixtures reproduce their own bytes; abelian_min is
# handwritten shorthand that normalizes on the first pass
GOLDEN = [name for name in FIXTURES if name != "abelian_min.json"]


def doc(**over):
    base = {"schema": "hamflux/1", "lie_algebra": {"dim": 2, "structure": []}}
    base.update(over)
    return json.dumps(base)


def test_minimal_document_defaults():
    pf = parse_problem((DATA / "abelian_min.json").read_text())
    assert pf.algebra.dim == 2
    assert pf.module.dim == 1
    assert pf.module.action[0].is_zero()
    assert pf.omega.is_zero()
    assert pf.zeta is None and pf.momentum is None
    assert pf.group_elements == () and pf.noether is None


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trips(name):
    pf = parse_problem((DATA / name).read_text())
    again = parse_problem(problem_to_text(pf))
    assert again == pf
    assert serialize_problem(again) == serialize_problem(pf)


@pytest.mark.parametrize("name", GOLDEN)
def test_fixture_bytes_are_canonical(name):
    text = (DATA / name).read_text()
    assert problem_to_text(parse_problem(text)) == text


def test_golden_fixture_matches_builder():
    bundle = matrix_algebra_example(2)
    pf = parse_problem((DATA / "sl2_m2.json").read_text())
    assert pf.algebra == bundle.module.algebra
    assert pf.module == bundle.module
    assert pf.omega == bundle.omega
    assert pf.zeta.matrix == bundle.zeta.matrix
    assert pf.zeta.source == bundle.zeta.source
    assert pf == ProblemFile.from_parts(bundle.module, bundle.omega, bundle.zeta)


def test_rational_forms():
    text = doc(
        lie_algebra={"dim": 3, "structure": [[0, 1, 2, "1/2"], [0, 2, 2, -2]]}
    )
    pf = parse_problem(text)
    assert pf.algebra.structure[0][1] == (0, 0, F(1, 2))
    assert pf.algebra.structure[2][0] == (0, 0, F(2))


@pytest.mark.parametrize(
    "value, fragment",
    [
        ("1/0", "zero denominator"),
        (0.5, "floats"),
        ("a/b", "malformed"),
        ("1 / 2", "malformed"),
        (True, "boolean"),
        (None, "expected a rational"),
    ],
)
def test_bad_rationals(value, fragment):
    text = doc(lie_algebra={"dim": 2, "structure": [[0, 1, 0, value]]})
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert err.value.path == "$.lie_algebra.structure[0][3]"
    assert fragment in str(err.value)


def test_structure_entry_order_is_canonicalized():
    a = parse_problem(doc(lie_algebra={"dim": 2, "structure": [[0, 1, 0, "1"]]}))
    b = parse_problem(doc(lie_algebra={"dim": 2, "structure": [[1, 0, 0, "-1"]]}))
    assert a == b


@pytest.mark.parametrize(
    "structure, fragment",
    [
        ([[0, 1, 0, "1"], [1, 0, 0, "-1"]], "duplicate"),
        ([[0, 1, 1, "2"], [0, 1, 1, "2"]], "duplicate"),
        ([[0, 0, 1, "1"]], "repeated index"),
        ([[0, 1, 5, "1"]], "out of range"),
    ],
)
def test_structure_entry_rejections(structure, fragment):
    with pytest.raises(ValidationError) as err:
        parse_problem(doc(lie_algebra={"dim": 2, "structure": structure}))
    assert fragment in str(err.value)


def test_zero_entry_on_repeated_index_is_allowed():
    pf = parse_problem(doc(lie_algebra={"dim": 2, "structure": [[1, 1, 0, "0"]]}))
    assert pf.algebra == parse_problem(doc()).algebra


def test_jacobi_failure_is_positioned():
    text = (DATA / "broken_jacobi.json").read_text()
    with pytest.raises(ValidationError) as err:
        parse_problem(text)
    assert err.value.path == "$.lie_algebra"
    assert "JacobiViolation" in str(err.value)


def test_module_hom_failure_is_positioned():
    text = doc(
        lie_algebra={"dim": 2, "structure": [[0, 1, 1, "1"]]},
        module={"dim": 1, "action": [[["0"]], [["1"]]]},
    )
    with pytest.raises(ValidationError) as err:
        parse_problem(text)
    assert err.value.path == "$.module"
    assert "HomViolation" in str(err.value)


def test_omega_entry_field_order():
    text = doc(
        module={"dim": 3, "action": [[["0"] * 3] * 3] * 2},
        omega=[[1, 0, "1", 2]],
    )
    pf = parse_problem(text)
    assert pf.omega.value(0, 1) == (0, 0, F(-1))


def test_omega_rejections():
    base = {"module": {"dim": 2, "action": [[["0", "0"], ["0", "0"]]] * 2}}
    with pytest.raises(ValidationError, match="duplicate"):
        parse_problem(doc(omega=[[0, 1, "1", 1], [1, 0, "2", 1]], **base))
    with pytest.raises(ValidationError, match="component 3 out of range"):
        parse_problem(doc(omega=[[0, 1, "1", 3]], **base))
    with pytest.raises(ParseError, match=r'expected \[i, j, "p/q", component\]'):
        parse_problem(doc(omega=[[0, 1, "1"]], **base))


def test_unknown_keys_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem(doc(extra=1))
    assert err.value.path == "$.extra"
    with pytest.raises(ParseError) as err:
        parse_problem(doc(lie_algebra={"dim": 1, "rank": 1}))
    assert err.value.path == "$.lie_algebra.rank"


def test_schema_marker_is_required_and_versioned():
    with pytest.raises(ParseError, match="missing"):
        parse_problem('{"lie_algebra": {"dim": 1}}')
    with pytest.raises(ParseError, match="unsupported schema"):
        parse_problem(doc(schema="hamflux/2"))
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_problem("{")


def test_zeta_bare_grid_means_endomorphism():
    text = doc(zeta=[["1", "0"], ["0", "0"]])
    pf = parse_problem(text)
    assert pf.zeta.source == pf.algebra
    assert pf.zeta.matrix.row(0) == (1, 0)
    # serializes in the object form and still round-trips
    assert parse_problem(problem_to_text(pf)) == pf


def test_zeta_with_separate_source_algebra():
    text = doc(
        zeta={
            "matrix": [["1"], ["0"]],
            "g_algebra": {"dim": 1, "structure": []},
        }
    )
    pf = parse_problem(text)
    assert pf.zeta.source.dim == 1
    assert parse_problem(problem_to_text(pf)) == pf


def test_zeta_must_be_a_homomorphism():
    # swapping e and f does not respect the sl2 bracket
    sl2 = {"dim": 3, "structure": [[0, 1, 2, "1"], [2, 0, 0, "2"], [2, 1, 1, "-2"]]}
    swap = [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]
    with pytest.raises(ValidationError) as err:
        parse_problem(doc(lie_algebra=sl2, zeta=swap))
    assert err.value.path == "$.zeta"


def test_momentum_requires_zeta():
    with pytest.raises(ValidationError, match="requires a zeta"):
        parse_problem(doc(momentum=[["1", "0"]]))


def test_group_elements_parse_and_reject_duplicates():
    pf = parse_problem((DATA / "heis3.json").read_text())
    assert [e.label for e in pf.group_elements] == ["g", "h"]
    assert pf.group_elements[0].ad.nrows == 2
    assert pf.group_elements[0].rho_v[2, 1] == F(1, 3)

    bad = json.loads((DATA / "heis3.json").read_text())
    bad["group_elements"][1]["label"] = "g"
    with pytest.raises(ValidationError, match="duplicate label"):
        parse_problem(json.dumps(bad))


def test_group_elements_require_zeta_and_all_keys():
    element = {"label": "g", "ad": [["1"]], "rho_v": [["1"]]}
    with pytest.raises(ValidationError, match="require a zeta"):
        parse_problem(
            doc(lie_algebra={"dim": 1, "structure": []}, group_elements=[element])
        )
    incomplete = {"label": "g", "ad": [["1", "0"], ["0", "1"]]}
    with pytest.raises(ParseError) as err:
        parse_problem(doc(zeta=[["1", "0"], ["0", "1"]], group_elements=[incomplete]))
    assert err.value.path == "$.group_elements[0].rho_v"


def test_noether_block_shapes():
    pf = parse_problem((DATA / "heis3.json").read_text())
    flow = pf.noether.invariant_flow
    assert flow.generators.columns() == [(1, 0)]
    assert flow.v == (1, 0, 0) and flow.xi == (1, 0)
    com = pf.noether.commuting
    assert com.g1 == com.g2 and com.j1 is None

    with pytest.raises(ParseError, match="invariant_flow or commuting"):
        parse_problem(doc(noether={}))
    bad = {"invariant_flow": {"subalgebra": [["1", "0", "0"]], "v": ["0"], "xi": ["0", "0"]}}
    with pytest.raises(ParseError) as err:
        parse_problem(doc(noether=bad))
    assert err.value.path == "$.noether.invariant_flow.subalgebra[0]"


def test_extension_block_passes_through():
    meta = {"kind": "central", "kernel_dim": 1}
    pf = parse_problem(doc(extension=meta))
    assert pf.extension == meta
    assert parse_problem(problem_to_text(pf)).extension == meta


def test_render_json_keeps_leaf_arrays_inline():
    text = render_json({"rows": [["1", "0"], ["0", "1"]], "n": 2})
    assert '["1", "0"]' in text
    assert text.endswith("}\n")
    assert json.loads(text) == {"rows": [["1", "0"], ["0", "1"]], "n": 2}


# -- parsed rows against the dense constructors ----------------------------------

UNREDUCED = json.dumps({
    "schema": "hamflux/1",
    "lie_algebra": {"dim": 3, "structure": [[1, 0, 2, "-2/2"], [2, 0, 2, "0/5"]]},
    "module": {
        "dim": 2,
        "action": [
            [["0", "-0"], ["0", 0]],
            [["0", "0"], ["0", "0/3"]],
            [["0", "0"], ["0", "0"]],
        ],
    },
    "omega": [[0, 1, "6/4", 1]],
    "zeta": {
        "g_algebra": {"dim": 2, "structure": [[1, 0, 1, "-4/6"]]},
        "matrix": [["0", "0"], ["0", "0"], ["0", "0"]],
    },
    "momentum": [["6/4", -3], ["-1/3", "10/15"]],
    "group_elements": [
        {"label": "g", "ad": [["2/2", "0"], ["-4/8", 1]], "rho_v": [[1, "0"], ["3/9", "1"]]}
    ],
    "noether": {"commuting": {"g1": [["2/4", "0", "-6/4"]], "g2": [[0, 0, "9/3"]]}},
})


def dense_algebra(block):
    n = block["dim"]
    table = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in block.get("structure", []):
        if i != j:
            table[i][j][k], table[j][i][k] = F(c), -F(c)
    return LieAlgebra(table)


def parsed_and_dense(pf, d):
    """(parsed, dense reference) pairs of every algebra and matrix of a
    document, the references built by LieAlgebra(dense) and Matrix(dense)."""
    algebras = [(pf.algebra, dense_algebra(d["lie_algebra"]))]
    matrices = []
    if "module" in d:
        matrices += zip(pf.module.action, [Matrix(a, pf.module.dim) for a in d["module"]["action"]])
    if "zeta" in d:
        z = d["zeta"]
        grid = z if isinstance(z, list) else z["matrix"]
        matrices.append((pf.zeta.matrix, Matrix(grid, pf.zeta.source.dim)))
        if isinstance(z, dict) and "g_algebra" in z:
            algebras.append((pf.zeta.source, dense_algebra(z["g_algebra"])))
    if "momentum" in d:
        matrices.append((pf.momentum, Matrix(d["momentum"], pf.momentum.ncols)))
    for e, block in zip(pf.group_elements, d.get("group_elements", [])):
        matrices += [(e.ad, Matrix(block["ad"])), (e.rho_v, Matrix(block["rho_v"]))]
    com = d.get("noether", {}).get("commuting")
    if com is not None:
        n = pf.algebra.dim
        matrices += [
            (pf.noether.commuting.g1, Matrix.from_columns(com["g1"], n)),
            (pf.noether.commuting.g2, Matrix.from_columns(com["g2"], n)),
        ]
    return algebras, matrices


PARSED_DOCUMENTS = [name for name in FIXTURES] + ["sl3", "unreduced"]


@pytest.mark.parametrize("name", PARSED_DOCUMENTS)
def test_parsed_rows_are_canonical_and_equal_the_dense_build(name):
    if name == "sl3":
        bundle = matrix_algebra_example(3)
        text = problem_to_text(ProblemFile.from_parts(bundle.module, bundle.omega, bundle.zeta))
    elif name == "unreduced":
        text = UNREDUCED
    else:
        text = (DATA / name).read_text()
    pf = parse_problem(text)
    algebras, matrices = parsed_and_dense(pf, json.loads(text))
    for parsed, dense in algebras:
        assert parsed._sparse == dense._sparse
        for row in parsed._sparse:
            for r in row:
                assert_scaled_row(r, parsed.dim)
    for parsed, dense in matrices:
        assert (parsed.nrows, parsed.ncols) == (dense.nrows, dense.ncols)
        assert parsed.sparse_rows == dense.sparse_rows
        for r in parsed.sparse_rows:
            assert_scaled_row(r, parsed.ncols)


def test_unreduced_rationals_parse_to_their_values():
    pf = parse_problem(UNREDUCED)
    assert pf.algebra.structure[0][1] == (0, 0, 1)
    assert pf.algebra.structure[0][2] == (0, 0, 0)
    assert pf.zeta.source.structure[0][1] == (0, F(2, 3))
    assert pf.momentum.sparse_rows == ((2, ((0, 3), (1, -6))), (3, ((0, -1), (1, 2))))
    assert pf.omega.value(0, 1) == (0, F(3, 2))


# -- zero-like entries and the row renderers ---------------------------------------

ZERO_LIKE = [
    (False, 'expected a rational, got a boolean'),
    (0.0, 'floats lose exactness; write the value as a "p/q" string'),
    ("-0", None),
    ("00", None),
    ("0/0", "zero denominator"),
    ("0 ", "malformed rational '0 '"),
    ([], "expected a rational"),
    (None, "expected a rational"),
]


@pytest.mark.parametrize("value, message", ZERO_LIKE)
def test_zero_like_entries_keep_their_exit_code_message_and_path(tmp_path, capsys, value, message):
    # the parser skips an exact "0" unparsed; every other zero-like entry is
    # parsed, in an action grid as in omega
    zero = [["0", "0"], ["0", "0"]]
    cases = [
        ({"dim": 2, "action": [[["1", "0"], ["0", value]], zero]}, [], "$.module.action[0][1][1]"),
        ({"dim": 2, "action": [zero, zero]}, [[0, 1, value, 1]], "$.omega[0][2]"),
    ]
    for module, omega, path in cases:
        target = tmp_path / "doc.json"
        target.write_text(doc(module=module, omega=omega))
        code = main(["validate", str(target)])
        out, err = capsys.readouterr()
        if message is None:
            assert (code, err) == (0, "") and "omega entries 0" in out
        else:
            assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def old_grid_of(matrix):
    return [[str(x) for x in matrix.row(i)] for i in range(matrix.nrows)]


def old_cochain_rows(c):
    n = c.module.algebra.dim
    return [
        [i, j, str(x), comp]
        for i in range(n)
        for j in range(i + 1, n)
        for comp, x in enumerate(c.value(i, j))
        if x
    ]


def old_emit(x, indent):
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = " " * (indent + 2)
        parts = [f"{inner}{json.dumps(k)}: {old_emit(v, indent + 2)}" for k, v in x.items()]
        return "{\n" + ",\n".join(parts) + "\n" + " " * indent + "}"
    if isinstance(x, list):
        if all(not isinstance(v, (dict, list)) for v in x):
            return "[" + ", ".join(json.dumps(v) for v in x) + "]"
        inner = " " * (indent + 2)
        parts = [inner + old_emit(v, indent + 2) for v in x]
        return "[\n" + ",\n".join(parts) + "\n" + " " * indent + "]"
    return json.dumps(x)


@pytest.mark.parametrize("seed", range(6))
def test_row_renderers_match_the_dense_formulas(seed):
    # negative, unreduced (an entry sharing a factor with its row's scale)
    # and large entries, in one grid and one 2-cochain
    rng = random.Random(seed)
    pick = [0, 0, 1, -1, F(-4, 6), F(9, 12), F(2**70 + 1, 3), -(2**65), F(-(2**66), 2**64 + 1)]
    entries = [[rng.choice(pick) for _ in range(4)] for _ in range(3)]
    matrix = Matrix(entries)
    assert grid_of(matrix) == old_grid_of(matrix)
    module = LieModule.trivial(LieAlgebra.abelian(4), 2)
    omega = Cochain(module, 2, [rng.choice(pick) for _ in range(12)])
    assert cochain_rows(omega) == old_cochain_rows(omega)
    data = {"grid": grid_of(matrix), "omega": cochain_rows(omega), "leaves": [1, None, True, "x"],
            "empty": [], "nested": {"e": {}, "n": [[], [2.5]]}}
    assert render_json(data) == old_emit(data, 0) + "\n"

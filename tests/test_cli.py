"""Command-line behavior: outputs, determinism, and the exit-code contract."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamflux.cli
import hamflux.hamiltonian
import hamflux.linalg
from hamflux.cli import main
from hamflux.cochain import Cochain
from hamflux.gallery import matrix_algebra_example
from hamflux.liealg import AlgebraHom, LieAlgebra, LieModule
from hamflux.linalg import Matrix, Subspace
from hamflux.problemfile import MAX_DIM, ProblemFile, parse_problem, problem_to_text

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_analyze_matrix_fixture(capsys):
    code, out, _ = run(capsys, "analyze", DATA / "sl2_m2.json")
    assert code == 0
    assert out == (
        "symplectic          3\n"
        "hamiltonian         3\n"
        "radical             0\n"
        "normalizer          3\n"
        "invariants          1\n"
        "admissible          4\n"
        "differential_image  3\n"
        "hamiltonian_sequence exact: yes\n"
        "admissible_sequence exact: yes\n"
        "flux rank: 0\n"
    )


def test_analyze_zero_omega_dims(capsys):
    data = run_json(capsys, "analyze", DATA / "omega_zero.json")
    d = data["dims"]
    n, k = 3, 2
    assert (
        d["symplectic"],
        d["hamiltonian"],
        d["radical"],
        d["normalizer"],
        d["invariants"],
        d["admissible"],
    ) == (n, n, n, n, k, k)
    assert data["flux_rank"] == 0
    assert data["exact"] == {
        "hamiltonian_sequence": True,
        "admissible_sequence": True,
    }


def test_analyze_broken_jacobi_exits_2(capsys):
    code, out, err = run(capsys, "analyze", DATA / "broken_jacobi.json")
    assert code == 2 and out == ""
    assert "JacobiViolation" in err


def test_validate_broken_jacobi_names_first_triple(capsys):
    code, out, err = run(capsys, "validate", DATA / "broken_jacobi.json")
    assert code == 2 and out == ""
    assert err == (
        "error: $.lie_algebra: JacobiViolation: "
        "Jacobi identity fails on basis triple (0, 1, 2)\n"
    )


def test_analyze_seeded_probes_deterministic(capsys):
    first = run(capsys, "analyze", DATA / "sl2_m2.json", "--seed", "7")
    second = run(capsys, "analyze", DATA / "sl2_m2.json", "--seed", "7")
    assert first == second
    assert first[0] == 0
    assert "probes: 20 ok (seed 7)" in first[1]
    data = run_json(capsys, "analyze", DATA / "heis3.json", "--seed", "3")
    assert data["probes"] == {"seed": 3, "count": 20, "ok": True}


def test_analyze_probes_solve_once_per_admissible_basis_vector(capsys, monkeypatch):
    solves = []
    solve = hamflux.linalg.LinearSolver.solve

    def counting(self, b):
        solves.append(b)
        return solve(self, b)

    monkeypatch.setattr(hamflux.linalg.LinearSolver, "solve", counting)
    code, out, _ = run(capsys, "analyze", DATA / "sl2_m2.json", "--seed", "7")
    assert code == 0 and "probes: 20 ok (seed 7)" in out
    assert "admissible          4\n" in out
    assert len(solves) <= 4


def test_analyze_probes_lift_each_vector_once(capsys, monkeypatch):
    lifts = []
    lift_row = hamflux.hamiltonian.HamiltonianAnalysis._lift_row

    def counting(self, row):
        lifts.append(row)
        return lift_row(self, row)

    monkeypatch.setattr(hamflux.hamiltonian.HamiltonianAnalysis, "_lift_row", counting)
    code, out, _ = run(capsys, "analyze", DATA / "sl2_m2.json", "--seed", "7")
    assert code == 0 and "probes: 20 ok (seed 7)" in out
    assert len(lifts) == 3 * 20


# faults in the sl2_m2 analysis, each making exactly one probe check fail first


def _wrong_radical(an, monkeypatch):
    an.radical = Subspace.full(an.module.algebra.dim)


def _rotated_lifts(an, monkeypatch):
    rows = an._lift_matrix.sparse_rows
    an._lift_matrix = Matrix._from_sparse(rows[1:] + rows[:1], an._lift_matrix.ncols)


def _skewed_action(an, monkeypatch):
    # x . v followed by a map that doubles coordinate 1: the bracket stays
    # antisymmetric and independent of the lift, but fails Jacobi
    act_row = LieModule._act_row
    skew = Matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    def skewed(self, xs, vs):
        return hamflux.linalg._sparse(skew.apply(hamflux.linalg._dense(act_row(self, xs, vs), 4)))

    monkeypatch.setattr(LieModule, "_act_row", skewed)


@pytest.mark.parametrize(
    "fault, message",
    [
        (_wrong_radical, "poisson bracket depends on the lift"),
        (_rotated_lifts, "poisson bracket is not antisymmetric"),
        (_skewed_action, "poisson Jacobi identity"),
    ],
)
def test_each_probe_failure_exits_3(capsys, monkeypatch, fault, message):
    analyze = hamflux.cli.analyze

    def faulty(module, omega):
        an = analyze(module, omega)
        fault(an, monkeypatch)
        return an

    monkeypatch.setattr(hamflux.cli, "analyze", faulty)
    code, out, err = run(capsys, "analyze", DATA / "sl2_m2.json", "--seed", "7")
    assert (code, out) == (3, "")
    assert err == f"error: HamfluxError: probe failed: {message}\n"


@pytest.mark.parametrize("fixture", sorted(p.name for p in DATA.glob("*.json")))
def test_analyze_probes_pass_on_every_fixture(capsys, fixture):
    expected = 2 if fixture == "broken_jacobi.json" else 0
    for seed in range(10):
        code, _, err = run(capsys, "analyze", DATA / fixture, "--seed", seed)
        assert code == expected, (seed, err)


def test_validate_reports_blocks(capsys):
    code, out, _ = run(capsys, "validate", DATA / "heis3.json")
    assert code == 0
    assert out == (
        "ok\n"
        "lie algebra dim 2\n"
        "module dim 3\n"
        "omega entries 1\n"
        "blocks: zeta, group_elements, noether\n"
    )


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", DATA / "no_such_file.json")
    assert code == 2
    assert "no_such_file.json" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate", "x.json"],
        ["extend", str(DATA / "heis3.json"), "--kind", "bogus"],
        ["extend", str(DATA / "heis3.json")],
        ["analyze"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1


def _heis3_with(old, new):
    text = (DATA / "heis3.json").read_text(encoding="utf-8")
    assert text.count(old) == 1
    return text.replace(old, new)


def _document(**blocks):
    return json.dumps({"schema": "hamflux/1", **blocks})


def _zeros(n):
    return [[0] * n] * n


def _heis3_zeta_source_dim(dim):
    doc = json.loads((DATA / "heis3.json").read_text(encoding="utf-8"))
    doc["zeta"]["g_algebra"] = {"dim": dim}
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, path",
    [
        (_heis3_with('["-1", "0", "0"]', '["%s", "0", "0"]' % ("7" * 5000)),
         "$.module.action[1][2][0]"),
        (_heis3_with('[0, 1, "-1", 2]', "[0, 1, %s, 2]" % ("7" * 5000)), "$"),
        ("[" * 100000, "$"),
        (_document(lie_algebra={"dim": 10**12}), "$.lie_algebra.dim"),
        (_document(lie_algebra={"dim": 2 * MAX_DIM + 1}), "$.lie_algebra.dim"),
        (_document(lie_algebra={"dim": 0}, module={"dim": 10**12, "action": []}),
         "$.module.dim"),
        (_document(lie_algebra={"dim": 0}, module={"dim": MAX_DIM + 1, "action": []}),
         "$.module.dim"),
        (_document(lie_algebra={"dim": MAX_DIM + 1}, module={"dim": MAX_DIM}),
         "$.module.dim"),
        (_heis3_zeta_source_dim(10**12), "$.zeta.g_algebra.dim"),
        (_heis3_zeta_source_dim(MAX_DIM + 1), "$.zeta.g_algebra.dim"),
        (_document(lie_algebra={"dim": MAX_DIM + 1}, zeta=_zeros(MAX_DIM + 1)),
         "$.zeta"),
        (b"\xff" + _document().encode(), "$"),
    ],
    ids=[
        "long-rational",
        "long-integer-literal",
        "deep-nesting",
        "huge-algebra-dim",
        "algebra-dim-past-limit",
        "huge-module-dim",
        "module-dim-past-limit",
        "differential-past-limit",
        "huge-zeta-source-dim",
        "zeta-source-dim-past-limit",
        "zeta-through-algebra-past-limit",
        "not-utf-8",
    ],
)
def test_hostile_document_exits_2(capsys, tmp_path, text, path):
    doc = tmp_path / "hostile.json"
    doc.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code, out, err = run(capsys, "validate", doc)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


def test_dimensions_at_the_limit_parse(capsys, tmp_path):
    doc = tmp_path / "limit.json"
    for text in (
        # the shape of an extension emitted from a 16-dim g and module
        _document(lie_algebra={"dim": 2 * MAX_DIM}),
        _document(lie_algebra={"dim": 0}, module={"dim": MAX_DIM, "action": []}),
        _document(lie_algebra={"dim": MAX_DIM}, zeta=_zeros(MAX_DIM)),
    ):
        doc.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "validate", doc)
        assert code == 0, err


def test_momentum_at_the_limit_stays_small(capsys, tmp_path, monkeypatch):
    # abelian g = h of dim MAX_DIM on a trivial module of dim MAX_DIM, zero
    # omega and identity zeta: V^h is the whole module, so the obstruction
    # lives in C^2(g, Q^16). Written here, not under tests/data, whose
    # documents the benchmark runs against recorded digests.
    g = LieAlgebra.abelian(MAX_DIM)
    module = LieModule.trivial(g, MAX_DIM)
    pf = ProblemFile.from_parts(module, Cochain.zero(module, 2), AlgebraHom.identity(g))
    doc = tmp_path / "limit.json"
    doc.write_text(problem_to_text(pf), encoding="utf-8")
    cells = []
    rref_ints = hamflux.linalg.rref_ints

    def counting(rows, ncols):
        cells.append(len(rows) * ncols)
        return rref_ints(rows, ncols)

    monkeypatch.setattr(hamflux.linalg, "rref_ints", counting)
    data = run_json(capsys, "momentum", doc)
    # H^2(g, V^h) = H^2(g, Q) (x) Q^16, with C(16, 2) = 120 scalar classes
    assert data["cohomology_dim"] == 1920
    assert data["equivariantizable"] is True
    assert cells and max(cells) <= 10**5


def test_extend_central_gives_heis3_constants(capsys):
    code, out, _ = run(capsys, "extend", DATA / "heis3.json", "--kind", "cen")
    assert code == 0
    emitted = parse_problem(out)
    assert emitted.algebra.dim == 3
    doc = json.loads(out)
    assert doc["lie_algebra"]["structure"] == [[1, 2, 0, "1"]]
    meta = doc["extension"]
    assert meta["kind"] == "central"
    assert meta["kernel_dim"] == 1
    assert meta["base"] == {"dim": 2, "structure": []}
    # emitted documents analyze cleanly
    code, _, _ = run_file(capsys, out, "analyze")
    assert code == 0


def run_file(capsys, text, *argv):
    # stash generated documents so subcommands can consume them
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(text)
    try:
        return run(capsys, *argv, fh.name)
    finally:
        os.unlink(fh.name)


def test_extend_zero_action_is_direct_sum(capsys):
    code, out, _ = run(capsys, "extend", DATA / "zeta_zero.json", "--kind", "cen")
    assert code == 0
    doc = json.loads(out)
    assert doc["lie_algebra"] == {"dim": 3, "structure": []}


def test_extend_baer_matches_abelian_with_witness(capsys):
    code, ab_text, _ = run(capsys, "extend", DATA / "heis3.json", "--kind", "ab")
    assert code == 0
    code, baer_text, _ = run(capsys, "extend", DATA / "heis3.json", "--kind", "baer")
    assert code == 0
    ab = json.loads(ab_text)
    baer = json.loads(baer_text)
    assert "equivalence" not in ab["extension"]

    ab_pf = parse_problem(ab_text)
    baer_pf = parse_problem(baer_text)
    psi = Matrix(baer["extension"]["equivalence"])
    # the witness is an isomorphism of the totals compatible with both ends
    hom = AlgebraHom(baer_pf.algebra, ab_pf.algebra, psi)
    assert psi.rank() == 5
    assert psi * Matrix(baer["extension"]["injection"]) == Matrix(
        ab["extension"]["injection"]
    )
    assert Matrix(ab["extension"]["projection"]) * psi == Matrix(
        baer["extension"]["projection"]
    )
    assert hom.apply((0, 0, 1, 0, 0)) == (0, 0, 1, 0, 0)


def test_extend_requires_zeta(capsys):
    code, _, err = run(capsys, "extend", DATA / "abelian_min.json", "--kind", "ab")
    assert code == 2
    assert "zeta" in err


def test_extend_image_not_hamiltonian_exits_3(capsys):
    code, _, err = run(capsys, "extend", DATA / "not_hamiltonian.json", "--kind", "cen")
    assert code == 3
    assert "ImageNotHamiltonian" in err and "basis 0" in err


def test_momentum_heis_report(capsys):
    data = run_json(capsys, "momentum", DATA / "heis3.json")
    assert data["J"] == [["1", "0"], ["0", "1"], ["0", "0"]]
    assert data["freedom"] == 2
    assert data["tau"] == [[0, 1, "1", 2]]
    assert data["equivariantizable"] is False
    assert data["obstruction_class"] == ["1"]
    assert data["cohomology_dim"] == 1
    assert "J_equivariant" not in data
    assert data["group_cocycles"] == [
        {"label": "g", "kappa": [["0", "0"], ["0", "0"], ["0", "1/3"]]},
        {"label": "h", "kappa": [["0", "0"], ["0", "0"], ["0", "1"]]},
    ]


def test_momentum_matrix_fixture_equivariantizes(capsys):
    data = run_json(capsys, "momentum", DATA / "sl2_m2.json")
    assert data["J"] == [
        ["0", "0", "2"],
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "0"],
    ]
    assert data["freedom"] == 3
    assert data["tau"] == [[0, 1, "-1", 0], [0, 1, "-1", 3]]
    assert data["equivariantizable"] is True
    assert data["obstruction_class"] == []
    assert data["cohomology_dim"] == 0
    # the corrected map is the inclusion of sl2 into M2
    assert data["J_equivariant"] == [
        ["0", "0", "1"],
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "-1"],
    ]


def test_momentum_zero_action(capsys):
    data = run_json(capsys, "momentum", DATA / "zeta_zero.json")
    assert data["J"] == [["0", "0"], ["0", "0"], ["0", "0"]]
    assert data["tau"] == []
    assert data["equivariantizable"] is True


def test_momentum_image_not_hamiltonian_exits_3(capsys):
    code, _, err = run(capsys, "momentum", DATA / "not_hamiltonian.json")
    assert code == 3
    assert "ImageNotHamiltonian" in err


def test_momentum_uses_supplied_matrix(capsys):
    doc = json.loads((DATA / "heis3.json").read_text())
    doc["momentum"] = [["1", "0"], ["0", "1"], ["7", "0"]]
    code, out, _ = run_file(capsys, json.dumps(doc), "momentum", "--json")
    assert code == 0
    assert json.loads(out)["J"][2] == ["7", "0"]

    doc["momentum"] = [["0", "0"], ["0", "0"], ["0", "0"]]
    code, _, err = run_file(capsys, json.dumps(doc), "momentum")
    assert code == 3
    assert "InvariantViolation" in err


def test_momentum_rejects_broken_group_element(capsys):
    doc = json.loads((DATA / "heis3.json").read_text())
    doc["group_elements"] = [
        {
            "label": "bad",
            "ad": [["1", "0"], ["0", "1"]],
            "rho_v": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
        }
    ]
    code, _, err = run_file(capsys, json.dumps(doc), "momentum")
    assert code == 3
    assert "CocycleInvarianceViolation" in err


def test_noether_fixture_passes(capsys):
    data = run_json(capsys, "noether", DATA / "heis3.json")
    assert data["invariant_flow"]["hypothesis_ok"] is True
    assert data["invariant_flow"]["conclusion_ok"] is True
    assert all(w["zero"] for w in data["invariant_flow"]["witnesses"])
    checks = [w["check"] for w in data["commuting"]["witnesses"]]
    assert checks == ["action", "omega", "d_omega"]
    assert data["commuting"]["conclusion_ok"] is True

    code, out, _ = run(capsys, "noether", DATA / "heis3.json")
    assert code == 0
    assert "invariant_flow: hypotheses ok, conclusion holds" in out


def test_noether_violation_exits_3(capsys):
    doc = json.loads((DATA / "heis3.json").read_text())
    doc["noether"] = {
        "invariant_flow": {"subalgebra": [["1", "0"]], "v": ["0", "1", "0"], "xi": ["0", "1"]}
    }
    code, _, err = run_file(capsys, json.dumps(doc), "noether")
    assert code == 3
    assert "v is g-invariant" in err

    doc["noether"] = {"commuting": {"g1": [["1", "0"]], "g2": [["0", "1"]]}}
    code, _, err = run_file(capsys, json.dumps(doc), "noether")
    assert code == 3
    assert "J2 values are g1-invariant" in err


def test_noether_requires_block(capsys):
    code, _, err = run(capsys, "noether", DATA / "sl2_m2.json")
    assert code == 2
    assert "noether block" in err


def test_noether_rejects_non_closed_generators(capsys):
    doc = json.loads((DATA / "sl2_m2.json").read_text())
    doc["noether"] = {
        "invariant_flow": {
            # span{e} is closed; span{e, f} is not
            "subalgebra": [["1", "0", "0"], ["0", "1", "0"]],
            "v": ["0", "0", "0", "0"],
            "xi": ["0", "0", "0"],
        }
    }
    code, _, err = run_file(capsys, json.dumps(doc), "noether")
    assert code == 3
    assert "bracket-closed" in err


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hamflux", "analyze", str(DATA / "sl2_m2.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "flux rank: 0" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "hamflux", "momentum", str(DATA / "broken_jacobi.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_import_loads_no_introspection_modules():
    # importing them costs start-up time on every command
    src = str(Path(hamflux.cli.__file__).resolve().parent.parent)
    code = (
        "import sys; before = set(sys.modules); import hamflux, hamflux.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_one_parser_serves_successive_calls(capsys):
    # main() reuses one parser per process: a success, a usage error and a
    # different subcommand in a row print what fresh processes print
    calls = [
        ["validate", str(DATA / "heis3.json"), "--json"],
        ["extend", str(DATA / "heis3.json"), "--kind", "bogus"],
        ["analyze", str(DATA / "sl2_m2.json")],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "hamflux", *argv], capture_output=True, text=True
        )
        for argv in calls
    ]
    assert [(p.returncode, p.stdout, p.stderr) for p in fresh] == in_process
    assert [code for code, _, _ in in_process] == [0, 1, 0]
    assert "usage: hamflux extend" in in_process[1][2]


def test_emitted_document_round_trips_by_command(capsys):
    heis3 = (DATA / "heis3.json").read_text(encoding="utf-8")
    sl3 = matrix_algebra_example(3)
    sl3 = problem_to_text(ProblemFile.from_parts(sl3.module, sl3.omega, sl3.zeta))
    # sl3's abelian and Baer extensions have dim 9 + 8 = 17, past the limit
    # for a module or g but within the one for lie_algebra
    cases = [(heis3, "cen"), (heis3, "ab"), (heis3, "baer"), (sl3, "ab"), (sl3, "baer")]
    for text, kind in cases:
        code, out, err = run_file(capsys, text, "extend", "--kind", kind)
        assert code == 0, err
        pf = parse_problem(out)
        code2, out2, _ = run_file(capsys, out, "extend", "--kind", "ab")
        # emitted docs carry no zeta, so a second extend is a validation error
        assert code2 == 2
        code3, out3, err3 = run_file(capsys, out, "validate", "--json")
        assert code3 == 0, err3
        assert json.loads(out3)["lie_algebra_dim"] == pf.algebra.dim


# -- the exit-code contract on generated documents ------------------------------

# repeated options weight the draws towards documents that get past the parser
ENTRY = st.sampled_from(["0", "0", "1", "-1", "1/2", "-3/2"])
DIM = st.sampled_from(
    [0, 1, 1, 1, 2, 2, 2, 2, 3, 3, -1, MAX_DIM + 1, 2 * MAX_DIM + 1, 10**12]
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
)
COMMANDS = [
    ["validate"],
    ["analyze", "--seed", "1"],
    ["momentum", "--json"],
    ["extend", "--kind", "cen"],
    ["extend", "--kind", "ab"],
    ["extend", "--kind", "baer"],
    ["noether"],
]


def _grid(nrows, ncols):
    row = st.lists(ENTRY, min_size=ncols, max_size=ncols)
    zero = [["0"] * ncols for _ in range(nrows)]
    return st.one_of(st.just(zero), st.lists(row, min_size=nrows, max_size=nrows))


def _index(dim):
    """Mostly in range, sometimes just outside it."""
    return st.sampled_from([*range(dim)] * 8 + [-1, dim])


def _rows(row):
    return st.one_of(st.just([]), st.lists(row, min_size=1, max_size=2))


@st.composite
def documents(draw):
    """Documents near the schema: small dims, a few past the limit, sparse
    tables with indices just out of range, and junk in place of a block."""
    n, m, k = draw(DIM), draw(DIM), draw(DIM)
    # blocks for an out-of-range dim are shaped as if it were 2
    ns, ms, ks = (d if 0 <= d <= 3 else 2 for d in (n, m, k))
    i = _index(ns)
    doc = {
        "schema": "hamflux/1",
        "lie_algebra": {
            "dim": n,
            "structure": draw(_rows(st.tuples(i, i, i, ENTRY).map(list))),
        },
    }
    if draw(st.booleans()):
        doc["module"] = {"dim": m, "action": [draw(_grid(ms, ms)) for _ in range(ns)]}
    else:
        ms = 1  # the default trivial module
    omega_row = st.tuples(i, i, ENTRY, _index(ms)).map(list)
    doc["omega"] = draw(_rows(omega_row))
    gs = ns
    if draw(st.booleans()):
        if draw(st.booleans()):
            doc["zeta"] = draw(_grid(ns, ns))
        else:
            gs = ks
            doc["zeta"] = {"matrix": draw(_grid(ns, ks)), "g_algebra": {"dim": k}}
        if draw(st.booleans()):
            doc["momentum"] = draw(_grid(ms, gs))
        if draw(st.booleans()):
            doc["group_elements"] = [
                {"label": "g", "ad": draw(_grid(gs, gs)), "rho_v": draw(_grid(ms, ms))}
            ]
    if draw(st.booleans()):
        doc["noether"] = {
            "invariant_flow": {
                "subalgebra": draw(_grid(draw(st.integers(0, 2)), ns)),
                "v": draw(st.lists(ENTRY, min_size=ms, max_size=ms)),
                "xi": draw(st.lists(ENTRY, min_size=ns, max_size=ns)),
            }
        }
    if draw(st.integers(0, 3)) == 3:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return doc


# derandomized, so every run tries the same documents and a failure reproduces
@settings(max_examples=150, deadline=None, derandomize=True)
@given(documents(), st.sampled_from(COMMANDS))
def test_generated_documents_keep_the_exit_code_contract(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
    assert code in (0, 2, 3)
    assert (code == 0) == (err.getvalue() == "")

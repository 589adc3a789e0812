"""CLI outputs still match the benchmark's recorded reference digests.

perfbench/reference.json holds a digest of the stdout of every cli-mixed op
and of the sl3 results (the whole pipeline, with its Baer, central and
abelian extensions, and every query). Running the fixtures, every random
document the cli-mixed strata can draw and the sl3 workloads here makes a
change to any of these outputs fail the tests, not only a benchmark run.

The benchmark stops at sl3. The sl4 pipeline, whose degree-2 differential is
7280 x 1680, is checked against tests/data/sl4_pipeline.sha256, the sha256 of
its canonical text recorded before matrices were stored as sparse rows.
"""

import hashlib
import importlib
import random
from pathlib import Path

import hamflux as hf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SL4_DIGEST = Path(__file__).resolve().parent / "data" / "sl4_pipeline.sha256"


def test_cli_outputs_match_the_benchmark_reference(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    docs = workloads.fixture_documents() + [
        workloads.random_document(dims, s)
        for dims, strata in workloads.CLI_STRATA.items()
        for stratum in strata
        for s in stratum
    ]
    state = {"reference": workloads.load_reference()["cli-mixed"]}
    ops = workloads.cli_ops(docs, tmp_path)
    assert ops
    failures = []
    for key, argv in ops:
        message = workloads.cli_check(state, key, workloads.run_cli(argv))
        if message is not None:
            failures.append(f"{key}: {message}")
    assert failures == []


def test_sl3_outputs_match_the_benchmark_reference(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = workloads.load_reference()

    state = workloads.pipeline_setup(1, tmp_path)
    state["reference"] = reference["sl3-pipeline"]
    result = workloads.pipeline_op(state)
    assert workloads.pipeline_check(state, "pipeline", result) is None

    state = workloads.queries_setup(1, tmp_path)
    state["reference"] = reference["sl3-queries"]
    ops = workloads.queries_cycle(state, random.Random(1))
    assert len(ops) == 420
    failures = []
    for key, op in ops:
        message = workloads.queries_check(state, key, op())
        if message is not None:
            failures.append(f"{key}: {message}")
    assert failures == []


def test_sl4_pipeline_matches_its_recorded_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    bundle = hf.matrix_algebra_example(4)
    pf = hf.ProblemFile.from_parts(bundle.module, bundle.omega, bundle.zeta)
    state = {
        "text": hf.problem_to_text(pf),
        "expected": bundle.expected,
        # the identity matrix is invariant, so the flow check's premises hold
        "v": tuple(1 if i in (0, 5, 10, 15) else 0 for i in range(16)),
        "xi": (0,) * 15,
    }
    recorded = SL4_DIGEST.read_text(encoding="utf-8").strip()
    state["reference"] = recorded[:16]  # the length workloads.digest keeps
    result = workloads.pipeline_op(state)
    assert workloads.pipeline_check(state, "pipeline", result) is None
    canonical = workloads.pipeline_canonical(result)
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == recorded

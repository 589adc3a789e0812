"""CLI outputs still match the benchmark's recorded reference digests.

perfbench/reference.json holds a digest of the stdout of every cli-mixed op
and of the sl3 results (the whole pipeline, with its Baer, central and
abelian extensions, and every query). Running the fixtures, the heaviest
stratum of each random-instance dims and the sl3 workloads here makes a
change to any of these outputs fail the tests, not only a benchmark run.
"""

import importlib
import random
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_cli_outputs_match_the_benchmark_reference(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    docs = workloads.fixture_documents() + [
        workloads.random_document(dims, strata[-1][0])
        for dims, strata in workloads.CLI_STRATA.items()
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

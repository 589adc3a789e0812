"""CLI outputs still match the benchmark's recorded reference digests.

perfbench/reference.json holds a digest of the stdout of every cli-mixed op.
Running the fixtures and the heaviest stratum of each random-instance dims
here makes a change to any command's output fail the tests, not only a
benchmark run.
"""

import importlib
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

"""Rewrite perfbench/reference.json with digests of every op the pools allow.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are known to be right: the
digests become the outputs every later run is checked against.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from workloads import QUERY_KINDS, QUERY_POOL, digest  # noqa: E402


def cli_reference(workdir):
    docs = workloads.fixture_documents() + [
        workloads.random_document(dims, s)
        for dims, strata in workloads.CLI_STRATA.items()
        for s in sorted(sum(strata, []))
    ]
    out = {}
    for key, argv in workloads.cli_ops(docs, workdir):
        code, stdout, _ = workloads.run_cli(argv)
        out[key] = [code, digest(stdout)]
    return out


def pipeline_reference():
    state = workloads.pipeline_setup(1, None)
    result = workloads.pipeline_op(state)
    state["reference"] = digest(workloads.pipeline_canonical(result))
    error = workloads.pipeline_check(state, "pipeline", result)
    if error:
        raise SystemExit(f"sl3-pipeline: {error}")
    return state["reference"]


def queries_reference():
    state = workloads.queries_setup(1, None)
    out = {}
    for kind in QUERY_KINDS:
        if kind == "poisson_bracket":
            argsets = [(a, b) for a in range(QUERY_POOL) for b in range(QUERY_POOL)]
        else:
            argsets = [(a,) for a in range(QUERY_POOL)]
        for args in argsets:
            result = workloads.query_call(state, kind, args)
            out[workloads.query_key(kind, args)] = digest(",".join(map(str, result)))
    return out


def main():
    out = workloads.ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        reference = {
            "cli-mixed": cli_reference(workdir),
            "sl3-pipeline": pipeline_reference(),
            "sl3-queries": queries_reference(),
        }
    text = json.dumps(reference, indent=0, sort_keys=True) + "\n"
    workloads.REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()

"""End-to-end benchmark for hamflux.

    python3 perfbench/run.py --workload cli-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; hamflux is imported from its `src/`. One
process on one thread drives a closed loop with one client: the next op
starts when the previous one returns. The loop repeats the workload's cycle
(a fixed, seed-determined unit of work) and starts an op only if, at the
pace of the op before it, at least half of it falls within --seconds. Every
op's output is checked against reference digests.

With --trace 0 the last line of stdout is the end-to-end result. With
--trace 1 cycles alternate between traced (the first) and untraced, the
tracing overhead compares the two, and the last line carries the per-layer
metrics of the first cycle. Environment, sample counts, the error rate and
(traced) a per-layer table go to the lines before it, and everything is
also written under .perfbench_out/ in the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("cli-mixed", "sl3-pipeline", "sl3-queries")
# set-up runs this many times per process and setup_s takes the median
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_hamflux():
    src = ROOT / "src"
    if not (src / "hamflux" / "__init__.py").is_file():
        raise SystemExit(f"error: no hamflux sources under {src}")
    sys.path.insert(0, str(src))
    import hamflux

    if Path(hamflux.__file__).resolve().parent != (src / "hamflux").resolve():
        raise SystemExit(f"error: imported hamflux from {hamflux.__file__}, not {src}")
    return hamflux


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def environment(hamflux, args):
    from hamflux import _backend

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": _backend.backend_name(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "hamflux": hamflux.__version__,
    }


def measure(args, state, cycle, check, tracer):
    """Closed loop over cycles; returns latencies, failures and cycle times.

    An op starts only if at least half of it falls within --seconds, taking
    the op before it as the estimate of its length. A run of long ops then
    measures --seconds give or take half an op, where stopping at the first
    op that would overrun loses up to a whole op. In a traced run even cycles are traced and odd
    ones are not; the first two always run to the end, so the overhead has a
    base even when --seconds is short. Spans of traced cycles after the
    first are dropped, so the per-layer metrics describe one fixed unit of
    work.
    """
    rng = random.Random(f"{args.workload}:ops:{args.seed}")
    full_cycles = 2 if tracer is not None else 0
    latencies, failures, cycles = [], [], []
    latency = 0.0
    start = time.perf_counter()

    def out_of_time():
        return time.perf_counter() - start + latency / 2 > args.seconds

    for index in itertools.count():
        traced = tracer is not None and index % 2 == 0
        if traced and index > 0:
            tracer.install()
        busy, complete = 0.0, True
        for key, call in cycle(state, rng):
            if index >= full_cycles and out_of_time():
                complete = False
                break
            if traced:
                tracer.op_id = len(latencies)
            t = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t
            if error is None:
                error = check(state, key, result)
            if error is not None:
                failures.append(f"{key}: {error}")
            latencies.append(latency)
            busy += latency
        if traced:
            tracer.uninstall()
            if index == 0:
                first_cycle = tracer.mark()
            else:
                tracer.rewind(first_cycle)
        if complete:
            cycles.append((traced, busy, len(latencies)))
        if not complete or (index + 1 >= full_cycles and out_of_time()):
            return latencies, failures, cycles


def end_to_end(latencies, setup_s):
    lat = sorted(latencies)
    n = len(lat)
    p99 = percentile(lat, 0.99)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p99_ms": (p99 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "samples": n,
        "samples_beyond_p99": sum(1 for x in lat if x > p99),
    }


def per_layer(tracer, n_ops, traced_s, untraced_s):
    ops = set(range(n_ops))
    totals = tracer.layer_totals(ops)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    rref = [(cells, bits) for op, cells, bits in tracer.rref_sizes if op in ops]
    assemblies = sum(1 for op, _, _ in tracer.assemblies if op in ops)
    metrics = {
        "linalg.dot_calls": (calls("linalg.dot"), "count"),
        "linalg.dot_s": (secs("linalg.dot"), "s"),
        "linalg.matmul_s": (secs("linalg.matmul"), "s"),
        "linalg.apply_s": (secs("linalg.apply"), "s"),
        "linalg.rref_calls": (calls("linalg.rref"), "count"),
        "linalg.rref_s": (secs("linalg.rref"), "s"),
        "linalg.rref_cells": (sum(c for c, _ in rref), "count"),
        "linalg.rref_max_bits": (max((b for _, b in rref), default=0), "bits"),
        "linalg.solver_build_s": (secs("linalg.solver_build"), "s"),
        "linalg.solve_calls": (calls("linalg.solve"), "count"),
        "linalg.solve_s": (secs("linalg.solve"), "s"),
        "linalg.subspace_s": (secs("linalg.subspace"), "s"),
        "hamiltonian.query_s": (secs("hamiltonian.query"), "s"),
        "hamiltonian.analyze_calls": (calls("hamiltonian.analyze"), "count"),
        "hamiltonian.analyze_s": (secs("hamiltonian.analyze"), "s"),
        "momentum.solve_s": (secs("momentum.solve"), "s"),
        "momentum.tau_s": (secs("momentum.tau"), "s"),
        "momentum.tau_calls": (calls("momentum.tau"), "count"),
        "momentum.pullback_modules": (calls("momentum.pullback_module"), "count"),
        "momentum.equivariantize_s": (secs("momentum.equivariantize"), "s"),
        "momentum.central_s": (secs("momentum.central"), "s"),
        "momentum.abelian_s": (secs("momentum.abelian"), "s"),
        "momentum.baer_s": (secs("momentum.baer"), "s"),
        "cochain.assemblies": (assemblies, "count"),
        "cochain.differential_s": (secs("cochain.differential"), "s"),
        "cochain.contract_s": (secs("cochain.contract"), "s"),
        "cochain.cohomology_s": (secs("cochain.cohomology"), "s"),
        "liealg.objects_built": (calls("liealg.build"), "count"),
        "liealg.validate_s": (secs("liealg.validate"), "s"),
        "problemfile.parse_s": (secs("problemfile.parse"), "s"),
        "problemfile.render_s": (secs("problemfile.render"), "s"),
        "groupelem.cocycle_s": (secs("groupelem.cocycle"), "s"),
        "noether.check_s": (secs("noether.check"), "s"),
        "momentum.tau_calls_per_op": (calls("momentum.tau") / n_ops, "1/op"),
        "cochain.assemblies_per_op": (assemblies / n_ops, "1/op"),
        "trace.spans": (sum(row[0] for row in totals.values()), "count"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1) * 100, "%"),
    }
    return metrics, totals


def layer_table(totals, setup_totals):
    rows = sorted(totals.items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':<26} {'calls':>9} {'total_s':>10} {'self_s':>10} {'setup_s':>10}"]
    for name, (calls, total, self_s) in rows:
        lines.append(
            f"{name:<26} {calls:>9} {total:>10.4f} {self_s:>10.4f} "
            f"{setup_totals[name][1]:>10.4f}"
        )
    return "\n".join(lines)


def run(args, hamflux, workdir):
    import tracer as tracing
    import workloads

    setup, cycle, check = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[args.workload]
    import_s = time.perf_counter() - _T0
    tracer = tracing.Tracer() if args.trace else None

    setup_times = []
    for rep in range(SETUP_REPEATS):
        if tracer is not None and rep == SETUP_REPEATS - 1:
            tracer.install()  # stays installed through the first cycle
        t = time.perf_counter()
        state = setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t)
    state["reference"] = reference
    setup_s = import_s + statistics.median(setup_times)

    latencies, failures, cycles = measure(args, state, cycle, check, tracer)
    env = environment(hamflux, args)
    report = {"environment": env, "error_rate": len(failures) / len(latencies)}
    print("environment: " + json.dumps(env, sort_keys=True))
    if tracer is None:
        metrics, counts = end_to_end(latencies, setup_s)
        report.update(counts)
        report["setup_repeats_s"] = setup_times
    else:
        n_ops = cycles[0][2]
        traced_s = statistics.median(busy for traced, busy, _ in cycles if traced)
        untraced_s = statistics.median(busy for traced, busy, _ in cycles if not traced)
        metrics, totals = per_layer(tracer, n_ops, traced_s, untraced_s)
        report.update({"traced_ops": n_ops, "traced_cycle_s": traced_s,
                       "untraced_cycle_s": untraced_s})
        print(layer_table(totals, tracer.layer_totals({tracing.SETUP_OP})))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"environment": env})
        print(f"spans written to {trace_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<30} {report['error_rate']:>14.6g} "
          f"({len(failures)} of {len(latencies)} ops)")
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    report["failures"] = failures[:100]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": report["metrics"],
    }


def main(argv=None):
    args = parse_args(argv)
    hamflux = import_hamflux()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = run(args, hamflux, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

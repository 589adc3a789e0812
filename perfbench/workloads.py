"""The three benchmark workloads: inputs from a seed, ops, and output checks.

Each workload has `setup(seed, workdir)`, which builds the inputs and returns
a state, to which the caller adds the workload's recorded digests as
"reference"; `cycle(state, rng)`, which returns the next fixed unit of work as
a list of (key, call) ops; and `check(state, key, result)`, which returns None
when the op's output matches the reference or a message saying why not.

Every call goes through a module attribute of the hamflux package (never a
name imported into this file), so the tracer's patches see it.

Reference digests are keyed by op, not by benchmark seed: a seed only picks
inputs out of fixed pools (instance seeds for cli-mixed, vectors for
sl3-queries), and `record_reference.py` digests every op the pools allow.
Any seed therefore runs against recorded references.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hamflux as hf
import hamflux.cli
import hamflux.cochain

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# cli-mixed: random_instance documents for four dims. Each dims has a pool of
# instance seeds 0..41, split into six strata of seven by the median time of
# the document's commands (measured when the benchmark was added). A run
# draws one instance per stratum, so every seed gets the same mix of light
# and heavy documents while the documents themselves differ.
CLI_STRATA = {
    (3, 3): [[12, 13, 22, 25, 27, 28, 30], [9, 10, 11, 16, 21, 23, 39],
             [0, 2, 14, 18, 26, 29, 31], [6, 15, 24, 32, 36, 37, 38],
             [1, 4, 5, 19, 20, 40, 41], [3, 7, 8, 17, 33, 34, 35]],
    (4, 4): [[0, 1, 22, 23, 28, 30, 32], [15, 18, 19, 21, 24, 31, 41],
             [5, 17, 27, 33, 38, 39, 40], [7, 14, 16, 20, 26, 35, 37],
             [3, 6, 8, 10, 13, 29, 36], [2, 4, 9, 11, 12, 25, 34]],
    (5, 3): [[17, 31, 34, 35, 37, 39, 40], [10, 15, 18, 21, 22, 23, 33],
             [0, 1, 2, 3, 11, 12, 38], [14, 19, 20, 24, 28, 30, 36],
             [7, 13, 25, 26, 27, 29, 32], [4, 5, 6, 8, 9, 16, 41]],
    (3, 5): [[2, 4, 5, 13, 19, 25, 26], [0, 21, 23, 30, 32, 34, 37],
             [6, 8, 10, 11, 24, 28, 29], [3, 7, 9, 12, 20, 27, 39],
             [22, 33, 35, 36, 38, 40, 41], [1, 14, 15, 16, 17, 18, 31]],
}
CLI_PROBE_SEED = 7
# the contract's expected failures; other exit codes come from the reference
CLI_EXPECTED_EXIT = {
    "broken_jacobi: validate": 2,
    f"broken_jacobi: analyze --seed {CLI_PROBE_SEED}": 2,
    "not_hamiltonian: momentum --json": 3,
}

# sl3-queries: the op stream rotates the query kinds over fixed vector pools.
# The kinds' latencies form separate clusters (potential_of and flux_class
# fastest, poisson_bracket slowest). With equal shares the median would sit in
# the gap between two clusters and jump with small shifts, so poisson_bracket
# and hamiltonian_lift come twice per rotation and the median falls inside the
# hamiltonian_lift cluster.
QUERY_KINDS = ("poisson_bracket", "hamiltonian_lift", "potential_of", "flux_class")
QUERY_ROTATION = (
    "poisson_bracket", "hamiltonian_lift", "potential_of",
    "poisson_bracket", "hamiltonian_lift", "flux_class",
)
QUERY_POOL = 32
QUERY_POOL_SEED = "sl3-queries-pool"
QUERY_BLOCK = 70 * len(QUERY_ROTATION)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- canonical text of results, built only from public accessors ----------------

def _vec(v):
    return [str(x) for x in v]


def _mat(m):
    return [[str(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]


def _algebra(a):
    return [[_vec(v) for v in row] for row in a.structure]


def _extension(e):
    return [
        e.kind,
        e.kernel_dim,
        _algebra(e.total),
        _mat(e.injection),
        _mat(e.projection),
        _mat(e.section),
    ]


# -- cli-mixed --------------------------------------------------------------------

def fixture_documents():
    return [(p.stem, p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / "tests" / "data").glob("*.json"))]


def cli_documents(seed):
    """(name, text) for the fixtures plus this seed's random instances."""
    docs = fixture_documents()
    rng = random.Random(f"cli-mixed:{seed}")
    for dims, strata in CLI_STRATA.items():
        for stratum in strata:
            docs.append(random_document(dims, rng.choice(stratum)))
    return docs


def random_document(dims, s):
    bundle = hf.random_instance(dims, s)
    pf = hf.ProblemFile.from_parts(bundle.module, bundle.omega, bundle.zeta)
    return f"random_{dims[0]}x{dims[1]}_s{s}", hf.problem_to_text(pf)


def cli_commands(text):
    """The subcommands that apply to a document, chosen by its blocks."""
    cmds = [["validate"], ["analyze", "--seed", str(CLI_PROBE_SEED)]]
    doc = json.loads(text)
    if "zeta" in doc:
        cmds.append(["momentum", "--json"])
        cmds += [["extend", "--kind", kind] for kind in ("cen", "ab", "baer")]
    if "noether" in doc:
        cmds.append(["noether"])
    return cmds


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = hamflux.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_ops(docs, workdir):
    """Write each document to workdir; (key, argv) for each command on it."""
    ops = []
    for name, text in docs:
        path = Path(workdir) / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for cmd in cli_commands(text):
            ops.append((f"{name}: {' '.join(cmd)}", [cmd[0], str(path), *cmd[1:]]))
    return ops


def cli_setup(seed, workdir):
    return {"ops": cli_ops(cli_documents(seed), workdir)}


def cli_cycle(state, rng):
    ops = list(state["ops"])
    rng.shuffle(ops)
    return [(key, lambda argv=argv: run_cli(argv)) for key, argv in ops]


def cli_check(state, key, result):
    code, out, err = result
    want = CLI_EXPECTED_EXIT.get(key)
    if want is not None and code != want:
        return f"exit {code}, the contract says {want}"
    ref = state["reference"].get(key)
    if ref is None:
        return "no reference recorded"
    if code != ref[0]:
        return f"exit {code}, reference {ref[0]}"
    if digest(out) != ref[1]:
        return "stdout differs from the reference"
    if code != 0 and not err:
        return "nonzero exit without a message on stderr"
    return None


# -- sl3 instance shared by the two sl3 workloads ------------------------------------

def sl3_text():
    bundle = hf.matrix_algebra_example(3)
    pf = hf.ProblemFile.from_parts(bundle.module, bundle.omega, bundle.zeta)
    return hf.problem_to_text(pf), bundle.expected


# -- sl3-pipeline -------------------------------------------------------------------

def pipeline_setup(seed, workdir):
    text, expected = sl3_text()
    # an invariant vector (a multiple of the identity matrix) with xi = 0
    # satisfies every premise of the conservation check by construction
    c = random.Random(f"sl3-pipeline:{seed}").randint(1, 9)
    v = tuple(c if i in (0, 4, 8) else 0 for i in range(9))
    return {
        "text": text,
        "expected": expected,
        "v": v,
        "xi": (0,) * 8,
    }


def pipeline_op(state):
    pf = hf.parse_problem(state["text"])
    analysis = hf.analyze(pf.module, pf.omega)
    report = analysis.exactness_report()
    momentum, _ = hf.solve_momentum(analysis, pf.zeta)
    tau = hf.obstruction_cocycle(momentum)
    eq = hf.equivariantize(momentum)
    cen = hf.central_extension(momentum)
    ab = hf.abelian_extension(analysis, pf.zeta)
    baer = hf.baer_product(analysis, pf.zeta, momentum=momentum)
    flow = hf.invariant_flow_check(analysis, momentum, state["v"], state["xi"])
    return report, momentum, tau, eq, cen, ab, baer, flow


def pipeline_canonical(result):
    report, momentum, tau, eq, cen, ab, baer, flow = result
    return json.dumps({
        "report": report,
        "J": _mat(momentum.matrix),
        "tau": _vec(tau.coords),
        "equivariantize": [
            eq.success,
            _vec(eq.obstruction_class),
            eq.cohomology_dim,
            _mat(eq.momentum.matrix) if eq.success else None,
        ],
        "central": _extension(cen),
        "abelian": _extension(ab),
        "baer": _extension(baer.extension) + [_mat(baer.equivalence)],
        "flow": [
            flow.hypothesis_ok,
            flow.conclusion_ok,
            [[tag, list(idx), _vec(res)] for tag, idx, res in flow.witnesses],
        ],
    }, sort_keys=True)


def pipeline_cycle(state, rng):
    return [("pipeline", lambda: pipeline_op(state))]


def pipeline_check(state, key, result):
    report, eq, flow = result[0], result[3], result[7]
    expected = state["expected"]
    for name, dim in report["dims"].items():
        if name in expected and dim != expected[name]:
            return f"dim {name} is {dim}, matrix_algebra_example(3) ships {expected[name]}"
    if not (report["hamiltonian_sequence_exact"] and report["admissible_sequence_exact"]):
        return "exactness report says a sequence is not exact"
    if not eq.success:
        return "equivariantize did not succeed"
    if not (flow.hypothesis_ok and flow.conclusion_ok):
        return "invariant flow check failed"
    if digest(pipeline_canonical(result)) != state["reference"]:
        return "output differs from the reference"
    return None


# -- sl3-queries --------------------------------------------------------------------

def query_pools(analysis):
    """Fixed pools of nonzero admissible and hamiltonian vectors."""
    rng = random.Random(QUERY_POOL_SEED)

    def members(space):
        out = []
        while len(out) < QUERY_POOL:
            coords = [rng.randint(-3, 3) for _ in range(space.dim)]
            if any(coords):
                out.append(space.basis.apply(coords))
        return out

    return members(analysis.admissible), members(analysis.hamiltonian)


def query_call(state, kind, args):
    analysis = state["analysis"]
    if kind == "poisson_bracket":
        a, b = args
        return analysis.poisson_bracket(state["admissible"][a], state["admissible"][b])
    if kind == "hamiltonian_lift":
        return analysis.hamiltonian_lift(state["admissible"][args[0]])
    pool = state["hamiltonian"]
    if kind == "potential_of":
        return analysis.potential_of(pool[args[0]])
    return analysis.flux_class(pool[args[0]])


def query_key(kind, args):
    return " ".join([kind, *map(str, args)])


def queries_setup(seed, workdir):
    text, _ = sl3_text()
    pf = hf.parse_problem(text)
    analysis = hf.analyze(pf.module, pf.omega)
    hf.solve_momentum(analysis, pf.zeta)
    hamflux.cochain.cohomology(pf.module, 1)
    admissible, hamiltonian = query_pools(analysis)
    state = {
        "analysis": analysis,
        "admissible": admissible,
        "hamiltonian": hamiltonian,
    }
    for kind in QUERY_KINDS:  # warm the lazily built pivots and solvers
        query_call(state, kind, (0, 0) if kind == "poisson_bracket" else (0,))
    return state


def queries_cycle(state, rng):
    ops = []
    for i in range(QUERY_BLOCK):
        kind = QUERY_ROTATION[i % len(QUERY_ROTATION)]
        n = 2 if kind == "poisson_bracket" else 1
        args = tuple(rng.randrange(QUERY_POOL) for _ in range(n))
        ops.append((query_key(kind, args),
                    lambda kind=kind, args=args: query_call(state, kind, args)))
    return ops


def queries_check(state, key, result):
    ref = state["reference"].get(key)
    if ref is None:
        return "no reference recorded"
    if digest(",".join(map(str, result))) != ref:
        return "result differs from the reference"
    return None


WORKLOADS = {
    "cli-mixed": (cli_setup, cli_cycle, cli_check),
    "sl3-pipeline": (pipeline_setup, pipeline_cycle, pipeline_check),
    "sl3-queries": (queries_setup, queries_cycle, queries_check),
}


"""Library code works on scaled rows; the dense wrappers are for callers.

Each public dense method below parses its arguments, runs a row core and
makes Fractions on return. With every one of them patched to raise, the sl3
pipeline, every fixture command as cli-mixed runs it and the cli-mixed
documents of one seed, whose random_instance builds cover the four cli-mixed
dims, must still run through. Their outputs, rendered once the patches are
gone, must match the benchmark's reference digests.
"""

import importlib
from pathlib import Path

import pytest

from hamflux.cochain import Cochain, CohomologySpace
from hamflux.hamiltonian import HamiltonianAnalysis
from hamflux.liealg import LieAlgebra, LieModule
from hamflux.linalg import LinearSolver, Matrix, Subspace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WRAPPERS = [
    *[(Matrix, name) for name in ("apply", "column", "columns", "row", "entries", "__getitem__")],
    (LinearSolver, "solve"),
    (Subspace, "coords_of"),
    (Subspace, "contains"),
    (LieModule, "act"),
    (LieAlgebra, "bracket"),
    (LieAlgebra, "bracket_with_basis"),
    (LieAlgebra, "structure"),
    (Cochain, "coords"),
    (Cochain, "value"),
    (CohomologySpace, "class_of"),
    *[
        (HamiltonianAnalysis, name)
        for name in ("poisson_bracket", "hamiltonian_lift", "potential_of", "flux_class")
    ],
]

# (class, name) -> the boundary output that needs the wrapper; none does
EXEMPT = {}


def refuse_wrappers(monkeypatch):
    for cls, name in WRAPPERS:
        if (cls, name) in EXEMPT:
            continue

        def refuse(*args, _label=f"{cls.__name__}.{name}", **kwargs):
            raise AssertionError(f"library code called the dense wrapper {_label}")

        is_property = isinstance(cls.__dict__[name], property)
        monkeypatch.setattr(cls, name, property(refuse) if is_property else refuse)


def test_library_code_calls_no_dense_wrapper(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = workloads.load_reference()
    with monkeypatch.context() as guarded:
        refuse_wrappers(guarded)
        with pytest.raises(AssertionError, match="Matrix.apply"):
            Matrix.identity(1).apply((1,))
        with pytest.raises(AssertionError, match="Cochain.coords"):
            Cochain.zero(LieModule.trivial(LieAlgebra.abelian(1), 1), 0).coords
        pipeline_state = workloads.pipeline_setup(1, tmp_path)
        pipeline = workloads.pipeline_op(pipeline_state)
        ops = workloads.cli_ops(workloads.cli_documents(1), tmp_path)
        outputs = [(key, workloads.run_cli(argv)) for key, argv in ops]

    pipeline_state["reference"] = reference["sl3-pipeline"]
    assert workloads.pipeline_check(pipeline_state, "pipeline", pipeline) is None
    dims = {key.split("_s")[0] for key, _ in ops if key.startswith("random_")}
    assert dims == {"random_3x3", "random_4x4", "random_5x3", "random_3x5"}
    state = {"reference": reference["cli-mixed"]}
    failures = [
        f"{key}: {message}"
        for key, result in outputs
        if (message := workloads.cli_check(state, key, result)) is not None
    ]
    assert failures == []

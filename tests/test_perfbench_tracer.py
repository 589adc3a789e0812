"""The benchmark's tracer still binds the names it wraps.

perfbench/tracer.py patches hamflux functions by name; a rename that it
does not follow should fail here rather than in a benchmark run.
"""

import importlib
from pathlib import Path

import hamflux.momentum
from hamflux.hamiltonian import analyze
from hamflux.liealg import AlgebraHom

from util import heis_pair_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_records_baer_product_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    module, omega = heis_pair_instance()
    analysis = analyze(module, omega)
    zeta = AlgebraHom.identity(module.algebra)
    tracer.install()
    try:
        hamflux.momentum.baer_product(analysis, zeta)
    finally:
        tracer.uninstall()
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"momentum.baer", "momentum.tau", "momentum.pullback_module"} <= recorded

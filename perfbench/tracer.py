"""Span recorder that wraps hamflux's public functions from outside the package.

A span is (name, start, end, parent, op): spans are kept in flat arrays while
the run lasts and written out once at the end. `install` swaps every binding
of a wrapped function in every loaded hamflux module (a `from x import f`
copies the binding, so patching only the defining module would miss the
calls made through the copy); methods are patched once on their class.
`uninstall` puts the originals back, so untraced work runs the plain code.
"""

import functools
import json
import sys
import time
from array import array

from hamflux import (
    _backend,
    cochain,
    groupelem,
    hamiltonian,
    liealg,
    linalg,
    momentum,
    noether,
    problemfile,
)

SETUP_OP = -1

# span name -> module-level functions it wraps
FUNCTIONS = {
    "linalg.dot": [linalg.dot],
    "hamiltonian.analyze": [hamiltonian.analyze],
    "momentum.solve": [momentum.solve_momentum],
    "momentum.tau": [momentum.obstruction_cocycle],
    "momentum.pullback_module": [momentum.pullback_module],
    "momentum.equivariantize": [momentum.equivariantize],
    "momentum.central": [momentum.central_extension],
    "momentum.abelian": [momentum.abelian_extension],
    "momentum.baer": [momentum.baer_product],
    "cochain.differential": [cochain.differential],
    "cochain.contract": [cochain.contract],
    "cochain.cohomology": [cochain.cohomology],
    "problemfile.parse": [problemfile.parse_problem],
    "problemfile.render": [
        problemfile.render_json,
        problemfile.problem_to_text,
        problemfile.serialize_problem,
    ],
    "groupelem.cocycle": [groupelem.group_cocycle],
    "noether.check": [noether.invariant_flow_check, noether.commuting_actions_check],
}

# span name -> (class, attribute) pairs; the innermost wrapper is listed first
METHODS = {
    "linalg.matmul": [(linalg.Matrix, "__mul__")],
    "linalg.apply": [(linalg.Matrix, "apply")],
    "linalg.solver_build": [(linalg.LinearSolver, "__init__")],
    "linalg.solve": [(linalg.LinearSolver, "solve")],
    "linalg.subspace": [
        (linalg.Subspace, "from_vectors"),
        (linalg.Subspace, "coords_of"),
    ],
    "hamiltonian.query": [
        (hamiltonian.HamiltonianAnalysis, name)
        for name in ("poisson_bracket", "hamiltonian_lift", "potential_of", "flux_class")
    ],
    "liealg.validate": [
        (liealg.LieAlgebra, "_validate"),
        (liealg.LieModule, "_validate"),
        (liealg.AlgebraHom, "__init__"),  # AlgebraHom checks brackets in __init__
    ],
    "liealg.build": [
        (cls, "__init__") for cls in (liealg.LieAlgebra, liealg.LieModule, liealg.AlgebraHom)
    ],
}


def _hamflux_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "hamflux"]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # 1 when an open ancestor has the same name
        self.op_id = SETUP_OP
        self._stack = []
        self._depth = []  # per name id: how many spans with that name are open
        self.rref_sizes = []  # (op, cells, max_bits) per rref_ints call
        self.assemblies = set()  # (op, id(module), degree) per differential_matrix call
        self._modules = []  # keeps assembled modules alive so ids stay unique
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def wrap(self, fn, name):
        # the wrapper runs on every call of hot functions such as linalg.dot,
        # so it works on local references rather than calling helpers
        nid = self._name_id(name)
        clock = time.perf_counter
        add_name, add_parent = self.name.append, self.parent.append
        add_op, add_nested = self.op.append, self.nested.append
        starts, ends, stack, depth = self.start, self.end, self._stack, self._depth
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_op(tracer.op_id)
            add_nested(depth[nid] > 0)
            depth[nid] += 1
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[nid] -= 1

        return traced

    def _wrap_rref(self, fn):
        inner = self.wrap(fn, "linalg.rref")

        @functools.wraps(fn)
        def traced(rows, ncols):
            cells = len(rows) * ncols  # the kernel consumes its input rows
            reduced, pivots = inner(rows, ncols)
            bits = max((abs(x).bit_length() for row in reduced for x in row), default=0)
            self.rref_sizes.append((self.op_id, cells, bits))
            return reduced, pivots

        return traced

    def _wrap_differential_matrix(self, fn):
        inner = self.wrap(fn, "cochain.differential")

        @functools.wraps(fn)
        def traced(module, p):
            self.assemblies.add((self.op_id, id(module), p))
            self._modules.append(module)
            return inner(module, p)

        return traced

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for module in _hamflux_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, raw))

    def install(self):
        for name, fns in FUNCTIONS.items():
            for fn in fns:
                self._replace_everywhere(fn, self.wrap(fn, name))
        self._replace_everywhere(
            _backend.rref_ints, self._wrap_rref(_backend.rref_ints)
        )
        self._replace_everywhere(
            cochain.differential_matrix,
            self._wrap_differential_matrix(cochain.differential_matrix),
        )
        for name, targets in METHODS.items():
            for cls, attr in targets:
                self._replace_method(cls, attr, lambda f, n=name: self.wrap(f, n))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._modules.clear()

    def mark(self):
        """Snapshot of what has been recorded so far, for `rewind`."""
        return len(self.start), len(self.rref_sizes), set(self.assemblies)

    def rewind(self, mark):
        """Drop everything recorded since `mark` was taken."""
        spans, rrefs, assemblies = mark
        for column in (self.name, self.start, self.end, self.parent, self.op, self.nested):
            del column[spans:]
        del self.rref_sizes[rrefs:]
        self.assemblies = set(assemblies)

    # -- reporting ----------------------------------------------------------

    def layer_totals(self, ops):
        """{name: [calls, total_s, self_s]} over spans whose op is in `ops`.

        total_s counts only the outermost span of each name, so recursion
        through the same layer is not counted twice; self_s is a span's
        duration minus the time its child spans cover.
        """
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            if self.op[i] not in ops:
                continue
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            if not self.nested[i]:
                row[1] += dur
            row[2] += dur - child_time[i]
        return out

    def write(self, path, extra):
        doc = dict(extra)
        doc["span_names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        doc["rref_sizes"] = self.rref_sizes
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

"""File-driven front end.

Subcommands: validate | analyze | extend | momentum | noether, each taking
a problem document (see problemfile). Exit codes are a stable contract:

    0  success
    1  usage error (bad flags, unknown subcommand)
    2  parse or validation error in the input document
    3  mathematical failure (image not hamiltonian, hypothesis violation,
       a supplied matrix that does not satisfy its defining equation)

All output is deterministic: canonical bases, canonical solutions, one
rendering per object.
"""

import argparse
import random
import sys
from functools import cache

from .cochain import Cochain
from .errors import HamfluxError, ParseError, ValidationError
from .groupelem import group_cocycle, group_element
from .hamiltonian import analyze
from .liealg import LieModule, spanned_subalgebra
from .linalg import _neg, rat_str, sparse_lincomb
from .momentum import (
    MomentumMap,
    abelian_extension,
    baer_product,
    central_extension,
    equivariantize,
    obstruction_cocycle,
    solve_momentum,
)
from .noether import commuting_actions_check, invariant_flow_check
from .problemfile import (
    ProblemFile,
    algebra_block,
    cochain_rows,
    grid_of,
    parse_problem,
    render_json,
    serialize_problem,
    vector_of,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract reserves
    # 2 for validation failures, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser():
    parser = _Parser(
        prog="hamflux",
        description="Exact hamiltonian analysis over finite-dimensional "
        "Lie algebras: subspace reports, extensions, momentum maps, "
        "conservation checks.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="command", required=True, parser_class=_Parser
    )

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="problem document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "parse the document and report its shape")
    p = add("analyze", cmd_analyze, "subspace dimensions and exactness checks")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="run seeded randomized self-check probes",
    )
    p = add("extend", cmd_extend, "emit an extension as a new problem document")
    p.add_argument(
        "--kind",
        choices=("cen", "ab", "baer"),
        required=True,
        help="central, abelian, or their Baer product",
    )
    add("momentum", cmd_momentum, "solve for a momentum map and its obstruction")
    add("noether", cmd_noether, "run the conservation checks in the document")
    return parser


def _matrix_lines(m):
    return ["  " + " ".join(row) for row in grid_of(m)]


def _require_zeta(pf, command):
    if pf.zeta is None:
        raise ValidationError("$.zeta", f"the {command} command needs a zeta block")
    return pf.zeta


def _momentum_map(analysis, zeta, supplied):
    """Momentum map for zeta: the supplied matrix if any, else the solved one."""
    if supplied is not None:
        return MomentumMap(analysis, zeta, supplied)
    momentum, _ = solve_momentum(analysis, zeta)
    return momentum


def cmd_validate(pf, args):
    blocks = [
        name
        for name, value in (
            ("zeta", pf.zeta),
            ("momentum", pf.momentum),
            ("group_elements", pf.group_elements or None),
            ("noether", pf.noether),
            ("extension", pf.extension),
        )
        if value is not None
    ]
    data = {
        "ok": True,
        "lie_algebra_dim": pf.algebra.dim,
        "module_dim": pf.module.dim,
        "omega_entries": len(cochain_rows(pf.omega)),
        "blocks": blocks,
    }
    if args.json:
        return render_json(data)
    lines = [
        "ok",
        f"lie algebra dim {pf.algebra.dim}",
        f"module dim {pf.module.dim}",
        f"omega entries {data['omega_entries']}",
    ]
    if blocks:
        lines.append("blocks: " + ", ".join(blocks))
    return "\n".join(lines) + "\n"


def _random_member(rng, subspace):
    # a scaled row: two canonical rows are equal iff their vectors are
    coeffs = [rng.randint(-3, 3) for _ in range(subspace.dim)]
    return sparse_lincomb(zip(coeffs, subspace._basis_rows()))


def _run_probes(analysis, seed, count=20):
    """Seeded spot checks of the Poisson bracket {v, w} = x . w, x the lift
    of v. Each probe draws admissible v1, v2, v3 and a radical vector r,
    lifts each vi once, to xi, and checks that (x1 + r) . v2 = {v1, v2}
    (independence of the lift), that {v2, v1} = -{v1, v2} and the Jacobi
    identity. Exact; any failure is a library bug, reported as a
    mathematical failure."""
    rng = random.Random(f"hamflux-analyze:{seed}")
    act = analysis.module._act_row
    for _ in range(count):
        v1, v2, v3 = (_random_member(rng, analysis.admissible) for _ in range(3))
        x1, x2, x3 = map(analysis._lift_row, (v1, v2, v3))
        b12 = act(x1, v2)
        shifted = sparse_lincomb(((1, x1), (1, _random_member(rng, analysis.radical))))
        if act(shifted, v2) != b12:
            raise HamfluxError("probe failed: poisson bracket depends on the lift")
        if act(x2, v1) != _neg(b12):
            raise HamfluxError("probe failed: poisson bracket is not antisymmetric")
        cyclic = (act(x1, act(x2, v3)), act(x2, act(x3, v1)), act(x3, b12))
        if sparse_lincomb((1, r) for r in cyclic)[1]:
            raise HamfluxError("probe failed: poisson Jacobi identity")
    return {"seed": seed, "count": count, "ok": True}


def cmd_analyze(pf, args):
    analysis = analyze(pf.module, pf.omega)
    report = analysis.exactness_report()
    dims = report["dims"]
    data = {
        "dims": dims,
        "exact": {
            "hamiltonian_sequence": report["hamiltonian_sequence_exact"],
            "admissible_sequence": report["admissible_sequence_exact"],
        },
        "flux_rank": analysis.symplectic.dim - analysis.hamiltonian.dim,
    }
    if args.seed is not None:
        data["probes"] = _run_probes(analysis, args.seed)
    if args.json:
        return render_json(data)
    width = max(len(k) for k in dims)
    lines = [f"{k.ljust(width)}  {v}" for k, v in dims.items()]
    for key, flag in data["exact"].items():
        lines.append(f"{key} exact: {'yes' if flag else 'no'}")
    lines.append(f"flux rank: {data['flux_rank']}")
    if "probes" in data:
        p = data["probes"]
        lines.append(f"probes: {p['count']} ok (seed {p['seed']})")
    return "\n".join(lines) + "\n"


def _extension_metadata(ext):
    return {
        "kind": ext.kind,
        "kernel_dim": ext.kernel_dim,
        "base": algebra_block(ext.base),
        "injection": grid_of(ext.injection),
        "projection": grid_of(ext.projection),
        "section": grid_of(ext.section),
    }


def cmd_extend(pf, args):
    _require_zeta(pf, "extend")
    analysis = analyze(pf.module, pf.omega)
    if args.kind == "cen":
        ext = central_extension(_momentum_map(analysis, pf.zeta, pf.momentum))
        meta = _extension_metadata(ext)
    elif args.kind == "ab":
        ext = abelian_extension(analysis, pf.zeta)
        meta = _extension_metadata(ext)
    else:
        momentum = _momentum_map(analysis, pf.zeta, pf.momentum)
        result = baer_product(analysis, pf.zeta, momentum=momentum)
        ext = result.extension
        meta = _extension_metadata(ext)
        meta["equivalence"] = grid_of(result.equivalence)
    module = LieModule.trivial(ext.total, 1)
    doc = serialize_problem(
        ProblemFile(ext.total, module, Cochain.zero(module, 2), extension=meta)
    )
    return render_json(doc)


def cmd_momentum(pf, args):
    _require_zeta(pf, "momentum")
    analysis = analyze(pf.module, pf.omega)
    momentum = _momentum_map(analysis, pf.zeta, pf.momentum)
    tau = obstruction_cocycle(momentum)
    correction = equivariantize(momentum)
    data = {
        "J": grid_of(momentum.matrix),
        "freedom": momentum.g.dim * analysis.invariants.dim,
        "tau": cochain_rows(tau),
        "equivariantizable": correction.success,
        "obstruction_class": [rat_str(x) for x in correction.obstruction_class],
        "cohomology_dim": correction.cohomology_dim,
    }
    if correction.success:
        data["J_equivariant"] = grid_of(correction.momentum.matrix)
    if pf.group_elements:
        cocycles = []
        for spec in pf.group_elements:
            element = group_element(
                analysis, pf.zeta, spec.ad, spec.rho_v, label=spec.label
            )
            cocycles.append(
                {"label": spec.label, "kappa": grid_of(group_cocycle(element, momentum))}
            )
        data["group_cocycles"] = cocycles
    if args.json:
        return render_json(data)
    lines = ["J:"] + _matrix_lines(momentum.matrix)
    lines.append(f"freedom: {data['freedom']}")
    if data["tau"]:
        lines.append("tau entries:")
        for i, j, value, comp in data["tau"]:
            lines.append(f"  ({i}, {j}) component {comp}: {value}")
    else:
        lines.append("tau: 0")
    lines.append(f"equivariantizable: {'yes' if correction.success else 'no'}")
    if correction.success:
        cls = "0"
    else:
        cls = "[" + ", ".join(data["obstruction_class"]) + "]"
    lines.append(f"obstruction class: {cls} (H^2 dim {correction.cohomology_dim})")
    if correction.success:
        lines.append("J equivariant:")
        lines.extend(_matrix_lines(correction.momentum.matrix))
    for entry in data.get("group_cocycles", ()):
        lines.append(f"kappa({entry['label']}):")
        lines.extend("  " + " ".join(row) for row in entry["kappa"])
    return "\n".join(lines) + "\n"


def _report_data(report):
    witnesses = [
        {
            "check": tag,
            "indices": list(idx),
            "residual": vector_of(res),
            "zero": not any(res),
        }
        for tag, idx, res in report.witnesses
    ]
    return {
        "hypothesis_ok": report.hypothesis_ok,
        "conclusion_ok": report.conclusion_ok,
        "witnesses": witnesses,
    }


def cmd_noether(pf, args):
    if pf.noether is None:
        raise ValidationError("$.noether", "the noether command needs a noether block")
    analysis = analyze(pf.module, pf.omega)
    data = {}
    flow = pf.noether.invariant_flow
    if flow is not None:
        _, hom = spanned_subalgebra(pf.algebra, flow.generators)
        momentum = _momentum_map(analysis, hom, None)
        data["invariant_flow"] = _report_data(
            invariant_flow_check(analysis, momentum, flow.v, flow.xi)
        )
    com = pf.noether.commuting
    if com is not None:
        _, hom1 = spanned_subalgebra(pf.algebra, com.g1)
        _, hom2 = spanned_subalgebra(pf.algebra, com.g2)
        momentum1 = _momentum_map(analysis, hom1, com.j1)
        momentum2 = _momentum_map(analysis, hom2, com.j2)
        data["commuting"] = _report_data(
            commuting_actions_check(analysis, momentum1, momentum2)
        )
    if args.json:
        return render_json(data)
    lines = []
    for name, rep in data.items():
        zero = sum(1 for w in rep["witnesses"] if w["zero"])
        lines.append(
            f"{name}: hypotheses ok, conclusion "
            f"{'holds' if rep['conclusion_ok'] else 'FAILS'} "
            f"({zero}/{len(rep['witnesses'])} residuals zero)"
        )
    return "\n".join(lines) + "\n"


@cache
def _shared_parser():
    # parse_args keeps no state on the parser, so one serves every main() call
    return build_parser()


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(args.file, exc.strerror or str(exc)) from None
        except UnicodeDecodeError as exc:
            msg = f"document is not UTF-8 text: invalid byte at offset {exc.start}"
            raise ParseError("$", msg) from None
        pf = parse_problem(text)
        out = args.func(pf, args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HamfluxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0

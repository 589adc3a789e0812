"""Parse and emit the JSON problem documents the command line consumes.

A document carries a versioned "schema": "hamflux/1" marker. Rationals
travel as strings "p/q" or "p" (bare JSON integers are accepted on input,
floats never are, so exactness survives the trip). Structure constants
use sparse rows [i, j, k, "p/q"] and 2-cochain entries use
[i, j, "p/q", component]; indices are 0-based, rows may come in any
order, [j, i, ...] means the negated constant, and repeating a slot is
an error.

Errors are positioned: ParseError(path, message) for malformed syntax or
types, ValidationError(path, detail) when the shapes are fine but the
declared objects fail their own constructors (antisymmetry, Jacobi, the
module hom identity, zeta not a homomorphism, indices out of range).
Whether a supplied momentum matrix actually satisfies its defining
equation is a question for the commands that use it, not for the parser.
"""

import json
import re
from math import comb, gcd

from ._record import Record
from .cochain import Cochain, tuple_basis
from .errors import HamfluxError, ParseError, ValidationError
from .liealg import AlgebraHom, LieAlgebra, LieModule, _Rows
from .linalg import _ZERO_ROW, Matrix, _dense, _gather, _neg, rat_str

SCHEMA = "hamflux/1"

# Dimension limits, checked before anything of that size is allocated. The
# module and g (the algebra zeta acts through) have dim at most MAX_DIM, which
# admits matrix_algebra_example(4); lie_algebra.dim may be twice that, so an
# extension `extend` emits (dim g + at most the module's dim) parses again.
# C(n,3)*m, the row count of the degree-2 differential (stored as sparse rows)
# of an n-dim algebra on an m-dim module, is at most MAX_DIFFERENTIAL_ROWS:
# 8960 x 1920 at n = m = 16. That bounds row counts, not time or memory,
# since entries are exact rationals of any length. With unit entries at those
# limits (abelian algebra, trivial module, zero omega, identity zeta), each of
# `analyze`, `momentum` and `extend` takes 0.3 to 0.6 s and at most 21 MB on a
# 2-vCPU host, process start included; `momentum` never eliminates the
# full differential, since equivariantize works in the scalar complex of g,
# and its largest elimination is the 2176 x 32 one of the analysis.
MAX_DIM = 16
MAX_DIFFERENTIAL_ROWS = comb(MAX_DIM, 3) * MAX_DIM

_TOP_KEYS = (
    "schema",
    "lie_algebra",
    "module",
    "omega",
    "zeta",
    "momentum",
    "group_elements",
    "noether",
    "extension",
)

_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


class GroupElementSpec(Record):
    """Raw matrices for one group element; validated when a command uses it.

    Fields: label (str), ad and rho_v (Matrix)."""

    __slots__ = ("label", "ad", "rho_v")


class InvariantFlowSpec(Record):
    """generators, a Matrix whose columns span the acting subalgebra in
    listed order, and the vectors v and xi."""

    __slots__ = ("generators", "v", "xi")


class CommutingSpec(Record):
    """Generator matrices g1 and g2 and optional supplied momentum matrices
    j1 and j2."""

    __slots__ = ("g1", "g2", "j1", "j2")
    _defaults = {"j1": None, "j2": None}


class NoetherSpec(Record):
    """The invariant_flow and commuting blocks, each None when absent."""

    __slots__ = ("invariant_flow", "commuting")
    _defaults = {"invariant_flow": None, "commuting": None}


class ProblemFile(Record):
    """A parsed document: validated core objects plus optional blocks.

    Fields: algebra (LieAlgebra), module (LieModule), omega (Cochain), zeta
    (AlgebraHom g -> algebra), momentum (Matrix, module.dim x
    zeta.source.dim), group_elements (tuple), noether and extension (the
    metadata block carried through verbatim). Documents compare equal when
    they serialize equally; a ProblemFile is not hashable.
    """

    __slots__ = (
        "algebra", "module", "omega", "zeta", "momentum", "group_elements", "noether",
        "extension",
    )
    _defaults = {
        "zeta": None, "momentum": None, "group_elements": (), "noether": None,
        "extension": None,
    }

    @classmethod
    def from_parts(cls, module, omega, zeta=None, **rest):
        return cls(module.algebra, module, omega, zeta, **rest)

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return serialize_problem(self) == serialize_problem(other)

    def __repr__(self):
        return (
            f"ProblemFile(algebra dim {self.algebra.dim}, "
            f"module dim {self.module.dim})"
        )


def _fail(path, message):
    raise ParseError(path, message)


def _invalid(path, detail):
    raise ValidationError(path, detail)


def _object(x, path):
    if not isinstance(x, dict):
        _fail(path, "expected an object")
    return x


def _list(x, path):
    if not isinstance(x, list):
        _fail(path, "expected an array")
    return x


def _known_keys(block, path, allowed):
    for key in block:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _int(x, path):
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, "expected an integer")
    return x


def _index(x, path, dim, what="index"):
    i = _int(x, path)
    if not 0 <= i < dim:
        _invalid(path, f"{what} {i} out of range for dimension {dim}")
    return i


def _rational(x):
    """(p, q) with x = p / q and q >= 1, not necessarily in lowest terms, or
    the message saying why x is not an exact rational."""
    if isinstance(x, bool):
        return "expected a rational, got a boolean"
    if isinstance(x, int):
        return x, 1
    if isinstance(x, float):
        return 'floats lose exactness; write the value as a "p/q" string'
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            return f"malformed rational {x!r}"
        p, _, q = x.partition("/")
        try:
            p, q = int(p), int(q or 1)
        except ValueError:  # past the int/str conversion digit limit
            return "rational has too many digits"
        if not q:
            return "zero denominator"
        return p, q
    return "expected a rational"


def _ratio(x, path):
    r = _rational(x)
    if isinstance(r, str):
        _fail(path, r)
    return r


def _row(x, path, length, what):
    """Canonical scaled row of a vector of rationals; entry c's path is
    built only when it fails."""
    row = _list(x, path)
    if len(row) != length:
        _fail(path, f"expected a {what} of length {length}, got {len(row)}")
    entries = []
    for c, v in enumerate(row):
        if v == "0":  # the usual zero needs no parsing
            continue
        r = _rational(v)
        if isinstance(r, str):
            _fail(f"{path}[{c}]", r)
        if r[0]:
            entries.append((c, *r))
    return _gather(entries)


def _vector(x, path, length, what="vector"):
    return _dense(_row(x, path, length, what), length)


def _grid(x, path, nrows, ncols):
    rows = _list(x, path)
    if len(rows) != nrows:
        _fail(path, f"expected {nrows} rows, got {len(rows)}")
    return Matrix._from_sparse(
        [_row(row, f"{path}[{r}]", ncols, "row") for r, row in enumerate(rows)], ncols
    )


def _dim(block, path, limit):
    if "dim" not in block:
        _fail(f"{path}.dim", "missing")
    n = _int(block["dim"], f"{path}.dim")
    if n < 0:
        _invalid(f"{path}.dim", "dimension must be nonnegative")
    if n > limit:
        _invalid(f"{path}.dim", f"dimension {n} exceeds the limit {limit}")
    return n


def _parse_algebra(block, path, limit):
    _object(block, path)
    _known_keys(block, path, ("dim", "structure"))
    n = _dim(block, path, limit)
    consts = {}  # (i, j) with i < j -> its (k, p, q) entries
    seen = set()
    for r, row in enumerate(_list(block.get("structure", []), f"{path}.structure")):
        here = f"{path}.structure[{r}]"
        entry = _list(row, here)
        if len(entry) != 4:
            _fail(here, 'expected [i, j, k, "p/q"]')
        i = _index(entry[0], f"{here}[0]", n)
        j = _index(entry[1], f"{here}[1]", n)
        k = _index(entry[2], f"{here}[2]", n)
        p, q = _ratio(entry[3], f"{here}[3]")
        if i == j:
            if p:
                _invalid(here, "structure constant on a repeated index must vanish")
            continue
        if i > j:
            i, j, p = j, i, -p
        if (i, j, k) in seen:
            _invalid(here, f"duplicate structure entry for ({i}, {j}, {k})")
        seen.add((i, j, k))
        if p:
            consts.setdefault((i, j), []).append((k, p, q))
    table = [[_ZERO_ROW] * n for _ in range(n)]
    for (i, j), entries in consts.items():
        row = _gather(sorted(entries))
        table[i][j], table[j][i] = row, _neg(row)
    try:
        return LieAlgebra(_Rows(table))
    except HamfluxError as exc:
        _invalid(path, f"{type(exc).__name__}: {exc}")


def _parse_module(block, path, algebra):
    _object(block, path)
    _known_keys(block, path, ("dim", "action"))
    m = _dim(block, path, MAX_DIM)
    rows = comb(algebra.dim, 3) * m
    if rows > MAX_DIFFERENTIAL_ROWS:
        detail = f"C({algebra.dim},3)*{m} = {rows} differential rows exceed the limit"
        _invalid(f"{path}.dim", f"{detail} {MAX_DIFFERENTIAL_ROWS}")
    grids = _list(block.get("action", []), f"{path}.action")
    if len(grids) != algebra.dim:
        _fail(
            f"{path}.action",
            f"expected one matrix per algebra basis element ({algebra.dim}), "
            f"got {len(grids)}",
        )
    action = [
        _grid(g, f"{path}.action[{i}]", m, m) for i, g in enumerate(grids)
    ]
    try:
        return LieModule(algebra, m, action)
    except HamfluxError as exc:
        _invalid(path, f"{type(exc).__name__}: {exc}")


def _parse_omega(rows, path, module):
    n, m = module.algebra.dim, module.dim
    _, index = tuple_basis(n, 2)
    entries = []  # (coordinate, p, q) of each nonzero entry
    seen = set()
    for r, row in enumerate(_list(rows, path)):
        here = f"{path}[{r}]"
        entry = _list(row, here)
        if len(entry) != 4:
            _fail(here, 'expected [i, j, "p/q", component]')
        i = _index(entry[0], f"{here}[0]", n)
        j = _index(entry[1], f"{here}[1]", n)
        p, q = _ratio(entry[2], f"{here}[2]")
        comp = _index(entry[3], f"{here}[3]", m, "component")
        if i == j:
            if p:
                _invalid(here, "cochain entry on a repeated index must vanish")
            continue
        if i > j:
            i, j, p = j, i, -p
        if (i, j, comp) in seen:
            _invalid(here, f"duplicate cochain entry for ({i}, {j}, {comp})")
        seen.add((i, j, comp))
        if p:
            entries.append((index[i, j] * m + comp, p, q))
    return Cochain._from_row(module, 2, _gather(sorted(entries)))


def _parse_zeta(block, path, algebra):
    if isinstance(block, list):
        g = algebra
        matrix = _grid(block, path, algebra.dim, algebra.dim)
    else:
        _object(block, path)
        _known_keys(block, path, ("matrix", "g_algebra"))
        if "matrix" not in block:
            _fail(f"{path}.matrix", "missing")
        g = algebra
        if "g_algebra" in block:
            g = _parse_algebra(block["g_algebra"], f"{path}.g_algebra", MAX_DIM)
        matrix = _grid(block["matrix"], f"{path}.matrix", algebra.dim, g.dim)
    if g.dim > MAX_DIM:
        _invalid(path, f"g is the lie_algebra, of dim {g.dim} past the limit {MAX_DIM}")
    try:
        return AlgebraHom(g, algebra, matrix)
    except HamfluxError as exc:
        _invalid(path, f"{type(exc).__name__}: {exc}")


def _parse_group_elements(rows, path, module, zeta):
    if zeta is None:
        _invalid(path, "group_elements require a zeta block")
    out = []
    labels = set()
    for r, row in enumerate(_list(rows, path)):
        here = f"{path}[{r}]"
        block = _object(row, here)
        _known_keys(block, here, ("label", "ad", "rho_v"))
        for key in ("label", "ad", "rho_v"):
            if key not in block:
                _fail(f"{here}.{key}", "missing")
        label = block["label"]
        if not isinstance(label, str):
            _fail(f"{here}.label", "expected a string")
        if label in labels:
            _invalid(f"{here}.label", f"duplicate label {label!r}")
        labels.add(label)
        gdim = zeta.source.dim
        out.append(
            GroupElementSpec(
                label,
                _grid(block["ad"], f"{here}.ad", gdim, gdim),
                _grid(block["rho_v"], f"{here}.rho_v", module.dim, module.dim),
            )
        )
    return tuple(out)


def _parse_generators(rows, path, algebra):
    vectors = [
        _row(row, f"{path}[{r}]", algebra.dim, "basis vector")
        for r, row in enumerate(_list(rows, path))
    ]
    return Matrix._from_sparse(vectors, algebra.dim).transpose()


def _parse_noether(block, path, module):
    _object(block, path)
    _known_keys(block, path, ("invariant_flow", "commuting"))
    algebra = module.algebra
    flow = None
    if "invariant_flow" in block:
        here = f"{path}.invariant_flow"
        fb = _object(block["invariant_flow"], here)
        _known_keys(fb, here, ("subalgebra", "v", "xi"))
        for key in ("subalgebra", "v", "xi"):
            if key not in fb:
                _fail(f"{here}.{key}", "missing")
        flow = InvariantFlowSpec(
            _parse_generators(fb["subalgebra"], f"{here}.subalgebra", algebra),
            _vector(fb["v"], f"{here}.v", module.dim),
            _vector(fb["xi"], f"{here}.xi", algebra.dim),
        )
    commuting = None
    if "commuting" in block:
        here = f"{path}.commuting"
        cb = _object(block["commuting"], here)
        _known_keys(cb, here, ("g1", "g2", "J1", "J2"))
        for key in ("g1", "g2"):
            if key not in cb:
                _fail(f"{here}.{key}", "missing")
        g1 = _parse_generators(cb["g1"], f"{here}.g1", algebra)
        g2 = _parse_generators(cb["g2"], f"{here}.g2", algebra)
        j1 = j2 = None
        if "J1" in cb:
            j1 = _grid(cb["J1"], f"{here}.J1", module.dim, g1.ncols)
        if "J2" in cb:
            j2 = _grid(cb["J2"], f"{here}.J2", module.dim, g2.ncols)
        commuting = CommutingSpec(g1, g2, j1, j2)
    if flow is None and commuting is None:
        _fail(path, "expected an invariant_flow or commuting block")
    return NoetherSpec(flow, commuting)


def parse_document(doc):
    """Build a ProblemFile from already-decoded JSON data."""
    _object(doc, "$")
    _known_keys(doc, "$", _TOP_KEYS)
    if "schema" not in doc:
        _fail("$.schema", "missing")
    if doc["schema"] != SCHEMA:
        _fail("$.schema", f"unsupported schema {doc['schema']!r}; expected {SCHEMA!r}")
    if "lie_algebra" not in doc:
        _fail("$.lie_algebra", "missing")
    algebra = _parse_algebra(doc["lie_algebra"], "$.lie_algebra", 2 * MAX_DIM)
    if "module" in doc:
        module = _parse_module(doc["module"], "$.module", algebra)
    else:
        module = LieModule.trivial(algebra, 1)
    if "omega" in doc:
        omega = _parse_omega(doc["omega"], "$.omega", module)
    else:
        omega = Cochain.zero(module, 2)
    zeta = None
    if "zeta" in doc:
        zeta = _parse_zeta(doc["zeta"], "$.zeta", algebra)
    momentum = None
    if "momentum" in doc:
        if zeta is None:
            _invalid("$.momentum", "a momentum matrix requires a zeta block")
        momentum = _grid(doc["momentum"], "$.momentum", module.dim, zeta.source.dim)
    elements = ()
    if "group_elements" in doc:
        elements = _parse_group_elements(
            doc["group_elements"], "$.group_elements", module, zeta
        )
    noether = None
    if "noether" in doc:
        noether = _parse_noether(doc["noether"], "$.noether", module)
    extension = None
    if "extension" in doc:
        extension = _object(doc["extension"], "$.extension")
    return ProblemFile(
        algebra, module, omega, zeta, momentum, elements, noether, extension
    )


def parse_problem(text):
    """Parse a UTF-8 JSON document into a validated ProblemFile."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides malformed JSON: an integer literal past the int/str
        # conversion digit limit, or nesting deeper than the recursion limit
        _fail("$", f"invalid JSON: {exc}")
    return parse_document(doc)


# serialization; every emitter produces the canonical sparse form, so the
# same object always prints the same bytes


def _text(a, s):
    """str(Fraction(a, s)) for ints a and s >= 1, with one gcd."""
    g = gcd(a, s)
    return str(a // g) if g == s else f"{a // g}/{s // g}"


def grid_of(matrix):
    rows = []
    for s, pairs in matrix.sparse_rows:
        row = ["0"] * matrix.ncols
        for j, a in pairs:
            row[j] = _text(a, s)
        rows.append(row)
    return rows


def vector_of(v):
    return [rat_str(x) for x in v]


def structure_rows(algebra):
    rows = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            s, pairs = algebra._sparse[i][j]
            for k, c in pairs:
                rows.append([i, j, k, _text(c, s)])
    return rows


def cochain_rows(c):
    if c.degree != 2:
        raise ValueError("sparse entry rows are defined for 2-cochains")
    m = c.module.dim
    tuples, _ = tuple_basis(c.module.algebra.dim, 2)
    s, pairs = c.sparse_row
    rows = []
    for q, a in pairs:
        pos, comp = divmod(q, m)
        rows.append([*tuples[pos], _text(a, s), comp])
    return rows


def algebra_block(algebra):
    return {"dim": algebra.dim, "structure": structure_rows(algebra)}


def serialize_problem(pf):
    """Canonical plain-data document for a ProblemFile."""
    doc = {"schema": SCHEMA, "lie_algebra": algebra_block(pf.algebra)}
    doc["module"] = {
        "dim": pf.module.dim,
        "action": [grid_of(a) for a in pf.module.action],
    }
    doc["omega"] = cochain_rows(pf.omega)
    if pf.zeta is not None:
        block = {"matrix": grid_of(pf.zeta.matrix)}
        if pf.zeta.source != pf.algebra:
            block["g_algebra"] = algebra_block(pf.zeta.source)
        doc["zeta"] = block
    if pf.momentum is not None:
        doc["momentum"] = grid_of(pf.momentum)
    if pf.group_elements:
        doc["group_elements"] = [
            {"label": e.label, "ad": grid_of(e.ad), "rho_v": grid_of(e.rho_v)}
            for e in pf.group_elements
        ]
    if pf.noether is not None:
        block = {}
        flow = pf.noether.invariant_flow
        if flow is not None:
            block["invariant_flow"] = {
                "subalgebra": [vector_of(v) for v in flow.generators.columns()],
                "v": vector_of(flow.v),
                "xi": vector_of(flow.xi),
            }
        com = pf.noether.commuting
        if com is not None:
            inner = {
                "g1": [vector_of(v) for v in com.g1.columns()],
                "g2": [vector_of(v) for v in com.g2.columns()],
            }
            if com.j1 is not None:
                inner["J1"] = grid_of(com.j1)
            if com.j2 is not None:
                inner["J2"] = grid_of(com.j2)
            block["commuting"] = inner
        doc["noether"] = block
    if pf.extension is not None:
        doc["extension"] = pf.extension
    return doc


def _emit(x, indent):
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = " " * (indent + 2)
        parts = [
            f"{inner}{json.dumps(k)}: {_emit(v, indent + 2)}" for k, v in x.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + " " * indent + "}"
    if isinstance(x, list):
        if all(not isinstance(v, (dict, list)) for v in x):
            return json.dumps(x)
        inner = " " * (indent + 2)
        parts = [inner + _emit(v, indent + 2) for v in x]
        return "[\n" + ",\n".join(parts) + "\n" + " " * indent + "]"
    return json.dumps(x)


def render_json(data):
    """Deterministic JSON text: leaf arrays inline, containers indented."""
    return _emit(data, 0) + "\n"


def problem_to_text(pf):
    return render_json(serialize_problem(pf))

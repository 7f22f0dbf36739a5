"""Line-oriented text format for models: complexes, maps, chain data,
lattices, loop tables, and command metadata.

The format is hand-editable and diff-friendly: named sections in square
brackets, whitespace-separated integers, ``#`` comments, LF line endings.
Serialization is canonical, so parse(format(model)) reproduces the model
field for field and reports built from files are byte-stable.
"""

from __future__ import annotations

from .complexes import SimplicialComplex, SimplicialMap
from .errors import InputError
from .gf2 import Gf2Matrix, vec_from_bits
from .models import ModelFile


class _Lines:
    """Comment-stripping cursor with line numbers for diagnostics."""

    def __init__(self, text):
        self.raw = text.split("\n")
        self.pos = 0

    def next_content(self):
        while self.pos < len(self.raw):
            line = self.raw[self.pos]
            self.pos += 1
            body = line.split("#", 1)[0].strip()
            if body:
                return self.pos, body
        return None, None

    def peek_content(self):
        saved = self.pos
        ln, body = self.next_content()
        self.pos = saved
        return ln, body


def _ints(ln, body, expected=None):
    try:
        vals = [int(t) for t in body.split()]
    except ValueError:
        raise InputError(f"line {ln}: expected integers, got {body!r}") from None
    if expected is not None and len(vals) != expected:
        raise InputError(f"line {ln}: expected {expected} integers, got {len(vals)}")
    return vals


def _int(ln, body, what, lo=0, hi=None):
    """The one size or dimension index of a line, refused outside lo..hi."""
    v = _ints(ln, body, 1)[0]
    if v < lo or hi is not None and v > hi:
        span = f"{lo}..{hi}" if hi is not None else f"at least {lo}"
        raise InputError(f"line {ln}: {what} {v} out of range ({span})")
    return v


def _read_matrix_rows(lines, nrows, ncols, what):
    if ncols == 0:  # a matrix without columns is written without row lines
        return [[] for _ in range(nrows)]
    rows = []
    for _ in range(nrows):
        ln, body = lines.next_content()
        if body is None or body.startswith("["):
            raise InputError(f"line {ln or '?'}: {what} matrix ends prematurely")
        rows.append(_ints(ln, body, ncols))
    return rows


def _read_int_matrix(lines, nrows, ncols, what):
    from .intmat import IntMatrix

    return IntMatrix(_read_matrix_rows(lines, nrows, ncols, what), ncols)


def _read_gf2_matrix(lines, nrows, ncols, what):
    rows = _read_matrix_rows(lines, nrows, ncols, what)
    try:
        return Gf2Matrix.from_rows(rows, ncols)
    except InputError as e:
        raise InputError(f"{what}: {e}") from None


def parse_model(text: str) -> ModelFile:
    """Parse model text; diagnostics carry line numbers."""
    model = ModelFile()
    lines = _Lines(text)
    while True:
        ln, body = lines.next_content()
        if body is None:
            break
        if not (body.startswith("[") and body.endswith("]")):
            raise InputError(f"line {ln}: expected a [section] header, got {body!r}")
        header = body[1:-1].split()
        kind = header[0] if header else ""
        if kind == "complex":
            if len(header) != 2:
                raise InputError(f"line {ln}: [complex <name>] takes one name")
            _parse_complex(lines, model, header[1], ln)
        elif kind == "map":
            if len(header) != 4:
                raise InputError(f"line {ln}: [map <name> <src> <dst>] takes three names")
            _parse_map(lines, model, header[1], header[2], header[3], ln)
        elif kind == "chain":
            if len(header) != 2:
                raise InputError(f"line {ln}: [chain <name>] takes one name")
            _parse_chain(lines, model, header[1], ln)
        elif kind == "lattice":
            if len(header) != 2:
                raise InputError(f"line {ln}: [lattice <name>] takes one name")
            _parse_lattice(lines, model, header[1], ln)
        elif kind == "loops":
            if len(header) != 2:
                raise InputError(f"line {ln}: [loops <name>] takes one name")
            _parse_loops(lines, model, header[1], ln)
        elif kind == "commands":
            _parse_commands(lines, model)
        else:
            raise InputError(f"line {ln}: unknown section kind {kind!r}")
    return model


def _at_section(lines):
    _, body = lines.peek_content()
    return body is None or body.startswith("[")


def _parse_complex(lines, model, name, header_ln):
    vertices = None
    generators = []
    marks = {}
    while not _at_section(lines):
        ln, body = lines.next_content()
        tokens = body.split()
        if tokens[0] == "vertices":
            vertices = _int(ln, body[len("vertices"):], "vertex count")
        elif tokens[0] == "simplex":
            generators.append(tuple(_ints(ln, body[len("simplex"):])))
        elif tokens[0] == "cycle":
            rest = body[len("cycle"):].strip()
            if ":" not in rest:
                raise InputError(f"line {ln}: cycle line needs 'cycle <name> : simplices'")
            mark_name, payload = rest.split(":", 1)
            mark_name = mark_name.strip()
            simplices = []
            for part in payload.split(","):
                part = part.strip()
                if part:
                    simplices.append(tuple(_ints(ln, part)))
            marks[mark_name] = tuple(simplices)
        else:
            raise InputError(f"line {ln}: unknown complex entry {tokens[0]!r}")
    if vertices is None:
        raise InputError(f"line {header_ln}: complex {name!r} missing a vertices line")
    try:
        K = SimplicialComplex.from_simplices(vertices, generators)
    except InputError as e:
        raise InputError(f"complex {name!r}: {e}") from None
    for mark_name, simplices in marks.items():
        for s in simplices:
            if not K.has_simplex(s):
                raise InputError(
                    f"complex {name!r}: cycle {mark_name!r} uses missing simplex {s}"
                )
    model.complexes[name] = K
    if marks:
        model.cycles[name] = marks


def _parse_map(lines, model, name, src, dst, header_ln):
    if src not in model.complexes:
        raise InputError(f"line {header_ln}: map {name!r} references unknown complex {src!r}")
    if dst not in model.complexes:
        raise InputError(f"line {header_ln}: map {name!r} references unknown complex {dst!r}")
    images = []
    while not _at_section(lines):
        ln, body = lines.next_content()
        tokens = body.split()
        if tokens[0] != "images":
            raise InputError(f"line {ln}: map section expects 'images ...' lines")
        images.extend(_ints(ln, body[len("images"):]))
    try:
        f = SimplicialMap(model.complexes[src], model.complexes[dst], images)
    except InputError as e:
        raise InputError(f"map {name!r}: {e}") from None
    model.maps[name] = (src, dst, f)


def _parse_chain(lines, model, name, header_ln):
    from .homology import ChainComplexData

    ranks = None
    boundaries = {}
    int_boundaries = {}
    involution = {}
    pairing = None
    fixed_class = None
    fixed_betti = None
    while not _at_section(lines):
        ln, body = lines.next_content()
        tokens = body.split()
        key = tokens[0]
        if key == "ranks":
            ranks = [_int(ln, t, "rank") for t in tokens[1:]]
            if not ranks:
                raise InputError(f"line {ln}: a ranks line needs at least one rank")
        elif ranks is None:
            raise InputError(f"line {ln}: chain section must start with a ranks line")
        elif key == "boundary":
            k = _int(ln, body[len("boundary"):], "boundary", 1, len(ranks) - 1)
            boundaries[k] = _read_gf2_matrix(lines, ranks[k - 1], ranks[k], f"boundary {k}")
        elif key == "boundary_int":
            k = _int(ln, body[len("boundary_int"):], "boundary_int", 1, len(ranks) - 1)
            int_boundaries[k] = _read_int_matrix(
                lines, ranks[k - 1], ranks[k], f"boundary_int {k}"
            )
        elif key == "involution":
            k = _int(ln, body[len("involution"):], "involution", 0, len(ranks) - 1)
            involution[k] = _read_gf2_matrix(lines, ranks[k], ranks[k], f"involution {k}")
        elif key == "pairing":
            b = _int(ln, body[len("pairing"):], "pairing size")
            pairing = _read_gf2_matrix(lines, b, b, "pairing")
        elif key == "fixed_class":
            fixed_class = vec_from_bits(_ints(ln, body[len("fixed_class"):]))
        elif key == "fixed_betti":
            fixed_betti = _int(ln, body[len("fixed_betti"):], "fixed_betti")
        else:
            raise InputError(f"line {ln}: unknown chain entry {key!r}")
    if ranks is None:
        raise InputError(f"line {header_ln}: chain {name!r} missing ranks")
    n = len(ranks) - 1
    # boundaries are required; integer boundaries and involution maps come all or none
    for what, found, first in (("boundary", boundaries, 1),
                               ("boundary_int", int_boundaries, 1), ("involution", involution, 0)):
        for k in range(first, n + 1):
            if k not in found and (found or what == "boundary"):
                raise InputError(f"chain {name!r}: {what} {k} missing")
    try:
        data = ChainComplexData(
            ranks,
            [boundaries[k] for k in range(1, n + 1)],
            int_boundaries=[int_boundaries[k] for k in range(1, n + 1)]
            if int_boundaries
            else None,
            involution=[involution[k] for k in range(n + 1)] if involution else None,
            pairing=pairing,
            fixed_class=fixed_class,
            fixed_betti_total=fixed_betti,
        )
    except InputError as e:
        raise InputError(f"chain {name!r}: {e}") from None
    model.chains[name] = data


def _parse_lattice(lines, model, name, header_ln):
    from .lattices import QuotientTransferData, build_lattice

    rank = None
    gram = isometry = presentation = None
    marks = {}
    chi_real = None
    transfer = None
    while not _at_section(lines):
        ln, body = lines.next_content()
        tokens = body.split()
        key = tokens[0]
        if key == "rank":
            rank = _int(ln, body[len("rank"):], "rank")
        elif rank is None:
            raise InputError(f"line {ln}: lattice section must start with a rank line")
        elif key == "gram":
            gram = _read_int_matrix(lines, rank, rank, "gram")
        elif key == "isometry":
            isometry = _read_int_matrix(lines, rank, rank, "isometry")
        elif key == "mark":
            if len(tokens) < 2:
                raise InputError(f"line {ln}: mark needs a name")
            marks[tokens[1]] = tuple(_ints(ln, " ".join(tokens[2:]), rank))
        elif key == "chi_real":
            chi_real = _ints(ln, body[len("chi_real"):], 1)[0]
        elif key == "presentation":
            nrows = _int(ln, body[len("presentation"):], "presentation rows")
            presentation = _read_int_matrix(lines, nrows, rank, "presentation")
        elif key == "transfer":
            qrank = _int(ln, body[len("transfer"):], "transfer rank")
            ln2, body2 = lines.next_content()
            if body2 != "pull":
                raise InputError(f"line {ln2 or ln}: transfer block expects 'pull'")
            pull = _read_int_matrix(lines, rank, qrank, "pull")
            ln3, body3 = lines.next_content()
            if body3 != "push":
                raise InputError(f"line {ln3 or ln}: transfer block expects 'push'")
            push = _read_int_matrix(lines, qrank, rank, "push")
            transfer = QuotientTransferData(qrank, pull, push)
        else:
            raise InputError(f"line {ln}: unknown lattice entry {key!r}")
    if gram is None or isometry is None:
        raise InputError(f"line {header_ln}: lattice {name!r} needs gram and isometry")
    try:
        model.lattices[name] = build_lattice(
            gram, isometry, marks, presentation, chi_real, transfer
        )
    except InputError as e:
        raise InputError(f"lattice {name!r}: {e}") from None


def _parse_loops(lines, model, name, header_ln):
    from .qforms import LoopData, LoopTable

    kind = None
    rank = None
    gram = None
    entries = []
    checks = []

    def parse_loop_data(ln, k_str, lam_str, rc_str):
        try:
            k = int(k_str)
            rc = int(rc_str)
        except ValueError:
            raise InputError(f"line {ln}: loop counts must be integers") from None
        if lam_str == "-":
            lambdas = ()
        else:
            if not all(c in "01" for c in lam_str):
                raise InputError(f"line {ln}: lambda string must be bits or '-'")
            lambdas = tuple(int(c) for c in lam_str)
        return LoopData(k, lambdas, rc)

    while not _at_section(lines):
        ln, body = lines.next_content()
        tokens = body.split()
        key = tokens[0]
        if key == "kind":
            kind = tokens[1] if len(tokens) > 1 else ""
        elif key == "rank":
            rank = _int(ln, body[len("rank"):], "rank")
        elif key == "gram":
            if rank is None:
                raise InputError(f"line {ln}: rank must precede gram")
            gram = _read_gf2_matrix(lines, rank, rank, "loop gram")
        elif key == "loop":
            if len(tokens) != 4:
                raise InputError(f"line {ln}: loop lines are 'loop <k> <lambdas|-> <rc>'")
            entries.append(parse_loop_data(ln, tokens[1], tokens[2], tokens[3]))
        elif key == "check":
            if len(tokens) != 5:
                raise InputError(
                    f"line {ln}: check lines are 'check <classbits> <k> <lambdas|-> <rc>'"
                )
            if not all(c in "01" for c in tokens[1]):
                raise InputError(f"line {ln}: class bits must be 0/1")
            cls = vec_from_bits(int(c) for c in tokens[1])
            checks.append((cls, parse_loop_data(ln, tokens[2], tokens[3], tokens[4])))
        else:
            raise InputError(f"line {ln}: unknown loops entry {key!r}")
    if kind is None or gram is None:
        raise InputError(f"line {header_ln}: loops {name!r} needs kind and gram")
    try:
        model.loops[name] = LoopTable(kind, gram, tuple(entries), tuple(checks))
    except InputError as e:
        raise InputError(f"loops {name!r}: {e}") from None


def _parse_commands(lines, model):
    while not _at_section(lines):
        _, body = lines.next_content()
        model.commands.append(body)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _format_int_rows(M) -> list:
    # a matrix without columns gets no row lines: the reader skips blank lines
    return [" ".join(str(e) for e in row) for row in M.rows] if M.ncols else []


def _format_gf2_rows(M: Gf2Matrix) -> list:
    width = range(M.ncols)
    return [" ".join(str((r >> j) & 1) for j in width) for r in M.rows] if M.ncols else []


def format_model(model: ModelFile) -> str:
    """Canonical text for a model; inverse of :func:`parse_model`."""
    out = []
    for name, K in model.complexes.items():
        out.append(f"[complex {name}]")
        out.append(f"vertices {K.vertex_count}")
        for s in K.facets():
            out.append("simplex " + " ".join(str(v) for v in s))
        for mark, simplices in model.cycles.get(name, {}).items():
            body = ", ".join(" ".join(str(v) for v in s) for s in simplices)
            out.append(f"cycle {mark} : {body}")
        out.append("")
    for name, (src, dst, f) in model.maps.items():
        out.append(f"[map {name} {src} {dst}]")
        out.append("images " + " ".join(str(v) for v in f.images))
        out.append("")
    for name, data in model.chains.items():
        out.append(f"[chain {name}]")
        out.append("ranks " + " ".join(str(r) for r in data.ranks))
        n = data.dimension
        for k in range(1, n + 1):
            out.append(f"boundary {k}")
            out.extend(_format_gf2_rows(data.boundaries[k - 1]))
        if data.int_boundaries:
            for k in range(1, n + 1):
                out.append(f"boundary_int {k}")
                out.extend(_format_int_rows(data.int_boundaries[k - 1]))
        if data.involution:
            for k in range(n + 1):
                out.append(f"involution {k}")
                out.extend(_format_gf2_rows(data.involution[k]))
        if data.pairing is not None:
            out.append(f"pairing {data.pairing.nrows}")
            out.extend(_format_gf2_rows(data.pairing))
        if data.fixed_class is not None:
            width = data.pairing.nrows if data.pairing is not None else 0
            bits = [(data.fixed_class >> i) & 1 for i in range(width)]
            out.append("fixed_class " + " ".join(str(b) for b in bits))
        if data.fixed_betti_total is not None:
            out.append(f"fixed_betti {data.fixed_betti_total}")
        out.append("")
    for name, L in model.lattices.items():
        out.append(f"[lattice {name}]")
        out.append(f"rank {L.rank}")
        out.append("gram")
        out.extend(_format_int_rows(L.gram))
        out.append("isometry")
        out.extend(_format_int_rows(L.isometry))
        for mark, vec in L.marks.items():
            out.append(f"mark {mark} " + " ".join(str(x) for x in vec))
        if L.chi_real is not None:
            out.append(f"chi_real {L.chi_real}")
        if L.presentation is not None:
            out.append(f"presentation {L.presentation.nrows}")
            out.extend(_format_int_rows(L.presentation))
        if L.transfer is not None:
            out.append(f"transfer {L.transfer.quotient_rank}")
            out.append("pull")
            out.extend(_format_int_rows(L.transfer.p_pull))
            out.append("push")
            out.extend(_format_int_rows(L.transfer.p_push))
        out.append("")
    for name, table in model.loops.items():
        out.append(f"[loops {name}]")
        out.append(f"kind {table.kind}")
        out.append(f"rank {table.gram.nrows}")
        out.append("gram")
        out.extend(_format_gf2_rows(table.gram))
        for d in table.entries:
            lam = "".join(str(x) for x in d.lambdas) if d.k else "-"
            out.append(f"loop {d.k} {lam} {d.rc_intersections}")
        for cls, d in table.checks:
            bits = "".join(str((cls >> i) & 1) for i in range(table.gram.nrows))
            lam = "".join(str(x) for x in d.lambdas) if d.k else "-"
            out.append(f"check {bits} {d.k} {lam} {d.rc_intersections}")
        out.append("")
    if model.commands:
        out.append("[commands]")
        out.extend(model.commands)
        out.append("")
    return "\n".join(out)

"""Line-oriented text format for models: complexes, maps, chain data,
lattices, loop tables, and command metadata.

The format is hand-editable and diff-friendly: named sections in square
brackets, whitespace-separated integers, ``#`` comments, LF line endings.
Serialization is canonical, so parse(format(model)) reproduces the model
field for field and reports built from files are byte-stable.

This module reads complexes and maps, all that most model files hold.  The
readers of the other sections and the writer, ``format_model``, live in
``conjtop.modelsections``, loaded by the first such section or write; the
benchmark reads the writer from here.
"""

from __future__ import annotations

from .complexes import SimplicialComplex, SimplicialMap
from .errors import InputError
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
        elif kind in ("chain", "lattice", "loops", "commands"):
            from .modelsections import parse_section  # only files that hold such a section

            parse_section(lines, model, header, ln)
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


def __getattr__(name):
    # the writer lives in modelsections; the benchmark imports it here
    if name == "format_model":
        from .modelsections import format_model

        return format_model
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Command handlers: reports and the resolvers the groups share.

Every command produces a Report with a human section and a machine
section; every number that appears in the human text is mirrored as a
``key=value`` line, keys sorted, so reports are byte-stable and easy to
diff.  The handlers live in one submodule per group: ``spaces`` (homology,
fixed set, conjugation form, type), ``curves`` (dividing test,
semi-orientation, covers, curve comparison) and ``numbers`` (congruence,
lattice audit, quadratic forms).  A cold command compiles every module it
loads, so it loads only the group of its handler.  Nothing here imports
``conjtop.cli``, which runs as ``__main__`` under ``python -m``.
"""

from ..errors import InputError, Record


class Report:
    """Paired human/machine output; all numbers flow through items."""

    def __init__(self, command_echo: str):
        self.command = command_echo
        self.lines = []
        self.machine = {"command": command_echo}

    def item(self, key: str, value, label: str | None = None):
        text = _fmt(value)
        self.machine[key] = text
        self.lines.append(f"{label or key}: {text}")

    def note(self, text: str):
        # prose only; numeric content must go through item()
        if any(c.isdigit() for c in text):
            raise ValueError(f"numbers must go through item(), not note(): {text!r}")
        self.lines.append(text)

    def render(self, machine_only: bool = False) -> str:
        machine = "\n".join(f"{k}={self.machine[k]}" for k in sorted(self.machine))
        if machine_only:
            return machine + "\n"
        human = "\n".join([f"command: {self.command}"] + self.lines)
        return human + "\n--\n" + machine + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_fmt(v) for v in value) + ")"
    return str(value)


def _trace_lines(report) -> str:
    """An integrity report as sorted ``key=value`` lines.

    A dict reports its keys, nested dicts under dotted keys, and a record
    its fields; any other report is one ``report=<repr>`` line.
    """
    if isinstance(report, Record):
        report = report._asdict()
    if not isinstance(report, dict):
        return "" if report is None else f"report={report!r}\n"

    def flatten(d, prefix):
        for key, value in d.items():
            if isinstance(value, dict):
                yield from flatten(value, f"{prefix}{key}.")
            else:
                yield f"{prefix}{key}", value

    flat = dict(flatten(report, ""))
    return "".join(f"{k}={_fmt(flat[k])}\n" for k in sorted(flat))


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        raise InputError(f"no {kind} named {name!r}")
    return table[name]


def _resolve_involution(model, name: str):
    src, dst, tau = _lookup(model.maps, name, "map")
    if src != dst:
        raise InputError(f"map {name!r} is not a self-map")
    K = model.complexes[src]
    return K, tau, _marked_basis(model, src, K)


def _marked_basis(model, complex_name: str, K):
    marks = model.cycles.get(complex_name, {})
    basis = []
    i = 0
    while f"basis{i}" in marks:
        basis.append(_chain_bits(K, marks[f"basis{i}"]))
        i += 1
    return basis or None


def _chain_bits(K, simplices):
    bits = 0
    for s in simplices:
        bits |= 1 << K.index_of(tuple(s))
    return bits

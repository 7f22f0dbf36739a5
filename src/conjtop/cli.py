"""Command line frontend: dispatch, reports, exit codes.

Every command produces a Report with a human section and a machine
section; every number that appears in the human text is mirrored as a
``key=value`` line, keys sorted, so reports are byte-stable and easy to
diff.  Exit codes separate violated theorems (1) from malformed input (2).
"""

from __future__ import annotations

import argparse
import sys

from .errors import InputError, ModelIntegrityError, Record
from .gf2 import bits_of, characteristic_class, is_even, vec_from_bits


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


def _parse_vector(text: str):
    body = text.strip().strip("()")
    if not body:
        return ()
    try:
        return tuple(int(t) for t in body.replace(",", " ").split())
    except ValueError:
        raise InputError(f"cannot parse vector {text!r}") from None


def _coords_bits(vec, width):
    if len(vec) != width:
        raise InputError(f"vector has length {len(vec)}, expected {width}")
    bad = [v for v in vec if v not in (0, 1)]
    if bad:
        raise InputError(f"coordinate {bad[0]} is not a bit")
    return vec_from_bits(vec)


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        raise InputError(f"no {kind} named {name!r}")
    return table[name]


def _resolve_space(model, name: str):
    if name in model.complexes:
        return model.complexes[name]
    if name in model.chains:
        return model.chains[name]
    raise InputError(f"no complex or chain data named {name!r}")


def _resolve_involution(model, name: str):
    src, dst, tau = _lookup(model.maps, name, "map")
    if src != dst:
        raise InputError(f"map {name!r} is not a self-map")
    K = model.complexes[src]
    return K, tau, _marked_basis(model, src, K)


def _resolve_form_space(model, name: str):
    """(space, tau, basis) for a map name, or chain data carrying its involution."""
    if name not in model.maps and name in model.chains:
        return model.chains[name], None, None
    return _resolve_involution(model, name)


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


def _resolve_chain_arg(model, complex_name: str, K, text: str):
    """A chain argument: marked cycle name(s) or inline 'v v, v v' simplices.

    Comma-separated mark names are summed as mod-2 chains.
    """
    marks = model.cycles.get(complex_name, {})
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if parts and all(p in marks for p in parts):
        chain = set()
        for p in parts:
            chain.symmetric_difference_update(tuple(s) for s in marks[p])
        return sorted(chain)
    out = []
    for p in parts:
        try:
            out.append(tuple(int(t) for t in p.split()))
        except ValueError:
            raise InputError(
                f"{text!r} is neither a marked cycle of {complex_name!r} nor an "
                "inline simplex list"
            ) from None
    return out


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_homology(model, args, report):
    from .complexes import SimplicialComplex
    from .homology import betti_numbers

    space = _resolve_space(model, args.object)
    betti = betti_numbers(space)
    for k, b in enumerate(betti):
        report.item(f"betti.{k}", b, f"dim H_{k}")
    report.item("betti_total", sum(betti), "total Betti number")
    if isinstance(space, SimplicialComplex):
        report.item("chi", space.euler_characteristic(), "Euler characteristic")


def _cmd_fixed_set(model, args, report):
    from .homology import homology
    from .involutions import fixed_subcomplex

    K, tau, basis = _resolve_involution(model, args.object)
    data = fixed_subcomplex(K, tau, basis_cycles=basis)
    report.item("components", len(data.components), "fixed components")
    dims = tuple(sorted(c.dimension for c in data.components))
    report.item("component_dims", dims, "component dimensions")
    if data.mid_class is not None:
        width = homology(K, data.mid_dimension).betti
        report.item("fixed_class", bits_of(data.mid_class, width),
                    "middle-dimension class")


def _cmd_conj_form(model, args, report):
    from .involutions import involution_form, verify_fixed_class_is_characteristic

    K, tau, basis = _resolve_form_space(model, args.object)
    B = involution_form(K, tau, basis_cycles=basis)
    for i in range(B.dimension):
        report.item(f"gram.{i}", bits_of(B.gram.rows[i], B.dimension), f"Gram row {i}")
    report.item("even", is_even(B), "form is even")
    chi_cls = characteristic_class(B)
    report.item("characteristic_class", bits_of(chi_cls, B.dimension),
                "characteristic class")
    lemma = verify_fixed_class_is_characteristic(K, tau, basis_cycles=basis)
    report.item("fixed_realizes_characteristic", lemma["holds"],
                "fixed set realizes the characteristic class")
    if not lemma["holds"]:
        raise ModelIntegrityError(
            "fixed set does not realize the characteristic class", report=lemma
        )


def _cmd_classify(model, args, report):
    from .homology import homology
    from .involutions import classify_type

    K, tau, basis = _resolve_form_space(model, args.object)
    h_bits = None
    width = homology(K, K.dimension // 2).betti
    if args.h is not None:
        h_bits = _coords_bits(_parse_vector(args.h), width)
    verdict = classify_type(K, tau, h=h_bits, basis_cycles=basis)
    report.item("verdict", verdict.kind, "type")
    report.item("witness", bits_of(verdict.witness, width), "fixed-set class")


def _cmd_divide(model, args, report):
    from .coverings import dividing_test

    K, tau, basis = _resolve_involution(model, args.object)
    verdict = dividing_test(K, tau)
    report.item("dividing", verdict.dividing, "dividing")
    report.item("components", verdict.component_count, "complement components")
    if verdict.dividing:
        report.item("half_sizes",
                    tuple(sorted(len(h) for h in verdict.halves)),
                    "triangles per half")


def _cmd_orient(model, args, report):
    from .coverings import curve_complex_semiorientation

    K, tau, basis = _resolve_involution(model, args.object)
    semi = curve_complex_semiorientation(K, tau)
    edges = semi.carrier.simplices(1)
    report.item("fixed_edges", len(edges), "oriented fixed edges")
    directed = []
    for e, s in zip(edges, semi.signs):
        a, b = e if s > 0 else (e[1], e[0])
        directed.append(f"{a}>{b}")
    report.item("orientation", ";".join(directed), "canonical representative")
    report.note("the opposite representative is equally valid (semi-orientation)")


def _cmd_cover(model, args, report):
    from .coverings import branched_double_cover, double_cover_unbranched
    from .homology import betti_numbers

    K = _lookup(model.complexes, args.object, "complex")
    if (args.cut is None) == (args.cocycle is None):
        raise InputError("cover needs exactly one of --cut or --cocycle")
    if args.cut is not None:
        chain = _resolve_chain_arg(model, args.object, K, args.cut)
        cover = branched_double_cover(K, chain)
        branch_chi = cover.branch.euler_characteristic() if cover.branch else 0
        report.item("branch_chi", branch_chi, "branch locus Euler characteristic")
    else:
        w = _chain_bits(K, _resolve_chain_arg(model, args.object, K, args.cocycle))
        cover = double_cover_unbranched(K, w)
    report.item("base_chi", K.euler_characteristic(), "base Euler characteristic")
    report.item("total_chi", cover.total.euler_characteristic(),
                "total Euler characteristic")
    for k, b in enumerate(betti_numbers(cover.total)):
        report.item(f"total_betti.{k}", b, f"total dim H_{k}")
    report.item("deck_involution", True, "deck transformation verified")


def _cmd_orient_cover(model, args, report):
    from .coverings import orientation_cover
    from .homology import betti_numbers

    K = _lookup(model.complexes, args.object, "complex")
    if args.curve is None:
        raise InputError("orient-cover needs --curve")
    chain = _resolve_chain_arg(model, args.object, K, args.curve)
    cover, semi = orientation_cover(K, chain)
    report.item("total_chi", cover.total.euler_characteristic(),
                "total Euler characteristic")
    for k, b in enumerate(betti_numbers(cover.total)):
        report.item(f"total_betti.{k}", b, f"total dim H_{k}")
    report.item("orientable_total", True, "total space oriented coherently")
    report.item("deck_reverses", True, "deck transformation reverses the orientation")


def _cmd_compare(model, args, report):
    from .coverings import compare_mod_curves, flip_semiorientation

    K = _lookup(model.complexes, args.object, "complex")
    if args.y1 is None or args.y2 is None:
        raise InputError("compare needs --y1 and --y2")
    Y1 = _resolve_chain_arg(model, args.object, K, args.y1)
    Y2 = _resolve_chain_arg(model, args.object, K, args.y2)
    s1 = flip_semiorientation(K, Y1)
    s2 = flip_semiorientation(K, Y2)
    out = compare_mod_curves(K, Y1, Y2, s1, s2)
    report.item("agree_triangles", len(out["agree_part"]), "triangles where they agree")
    report.item("disagree_triangles", len(out["disagree_part"]),
                "triangles where they disagree")
    part_h, part_c = out["parts"]
    report.item("part_sizes", (len(part_h), len(part_c)), "bounding part sizes")


def _cmd_congruence(model, args, report):
    from .lattices import kharlamov_congruence

    if args.chi is None or args.type is None:
        raise InputError("congruence needs --chi and --type")
    trace = kharlamov_congruence(args.chi, args.type, args.h1_trivial)
    report.item("chi", trace.chi, "Euler characteristic of the real part")
    report.item("applicable", trace.applicable, "congruence applicable")
    report.item("self_intersection", trace.self_intersection_ambient,
                "self-intersection in the complexification (-chi)")
    report.item("self_intersection_quotient", trace.self_intersection_quotient,
                "self-intersection in the quotient (doubled)")
    report.item("divisible_by_16", trace.divisible_by_16, "quotient number divisible by 16")
    report.item("passes", trace.passes, "congruence satisfied")


def _cmd_lattice_audit(model, args, report):
    from .lattices import (
        alpha_chi_cross_check, conj_form_mod2, invariant_sublattices, orientation_class_check,
        torsion_audit, transfer_audit,
    )

    L = _lookup(model.lattices, args.object, "lattice")
    report.item("rank", L.rank, "lattice rank")
    plus, minus = invariant_sublattices(L)
    report.item("invariant_rank", len(plus), "invariant sublattice rank")
    report.item("anti_invariant_rank", len(minus), "anti-invariant sublattice rank")
    B = conj_form_mod2(L)
    report.item("conj_form_even", is_even(B), "mod-2 conjugation form even")
    try:
        chi_cls = characteristic_class(B)
        report.item("characteristic_class", bits_of(chi_cls, B.dimension),
                    "characteristic class")
    except InputError:
        report.note("conjugation form is degenerate; no characteristic class")
    tor = torsion_audit(L)
    report.item("torsion_checked", tor["checked"], "2-torsion audit ran")
    if L.transfer is not None:
        audit = transfer_audit(L)
        report.item("transfer_doubling", audit["composition_is_doubling"],
                    "push after pull doubles")
        report.item("transfer_injective", audit["pull_injective"], "pull injective")
        report.item("transfer_invariant_image", audit["image_invariant"],
                    "pull image invariant")
        report.item("doubled_invariants_covered", audit["doubled_invariants_in_image"],
                    "doubled invariant classes lie in the image")
        for mark, vec in sorted(L.marks.items()):
            if mark.startswith("cand"):
                ok = orientation_class_check(L, None, vec)
                report.item(f"orientation_class.{mark}", ok,
                            f"candidate {mark} {_fmt(vec)} is twice a pulled class")
    cross = alpha_chi_cross_check(L)
    if cross is not None:
        report.item("alpha_self_pairing", cross["self_pairing"],
                    "marked orientation class self-pairing")
        report.item("chi_real", cross["chi"], "marked real-part Euler characteristic")


def _cmd_qform(model, args, report):
    from .qforms import arf, brown, qform_from_loop_table

    table = _lookup(model.loops, args.object, "loop table")
    q = qform_from_loop_table(table)
    report.item("kind", table.kind, "form kind")
    report.item("dimension", q.dimension, "dimension")
    report.item("basis_values", q.values, "values on the basis")
    if table.kind == "spin":
        report.item("arf", arf(q), "Arf invariant")
    else:
        report.item("brown", brown(q), "Brown invariant (mod 8)")


# every argument a command can read, as the user spells it
_ARGUMENTS = {
    "object": {"help": "named object from the model or library"},
    "--h": {"help": "distinguished middle class, e.g. '(1,1)'"},
    "--chi": {"type": int, "help": "Euler characteristic of the real part"},
    "--type": {"choices": ("I_abs", "I_rel", "II"), "help": "surface type"},
    "--h1-trivial": {"action": "store_true",
                     "help": "assert trivial first mod-2 homology of the complexification"},
    "--cut": {"help": "cutting chain: marked cycle name or inline simplices"},
    "--cocycle": {"help": "1-cocycle: marked cycle name or inline edges"},
    "--curve": {"help": "closed curve: marked cycle name or inline edges"},
    "--y1": {"help": "first curve for compare"},
    "--y2": {"help": "second curve for compare"},
}

# command -> (handler, the arguments it reads, in the order its report echoes
# them); every command also takes --model and --machine
_COMMANDS = {
    "homology": (_cmd_homology, ("object",)),
    "fixed-set": (_cmd_fixed_set, ("object",)),
    "conj-form": (_cmd_conj_form, ("object",)),
    "classify": (_cmd_classify, ("object", "--h")),
    "divide": (_cmd_divide, ("object",)),
    "orient": (_cmd_orient, ("object",)),
    "cover": (_cmd_cover, ("object", "--cut", "--cocycle")),
    "orient-cover": (_cmd_orient_cover, ("object", "--curve")),
    "compare": (_cmd_compare, ("object", "--y1", "--y2")),
    "congruence": (_cmd_congruence, ("--chi", "--type", "--h1-trivial")),
    "lattice-audit": (_cmd_lattice_audit, ("object",)),
    "qform": (_cmd_qform, ("object",)),
}


def run(command: str, model, args) -> Report:
    """Dispatch one command against a model; raises on failures."""
    if command not in _COMMANDS:
        raise InputError(f"unknown command {command!r}")
    handler, arguments = _COMMANDS[command]
    echo = [command]
    for arg in arguments:
        val = getattr(args, arg.lstrip("-").replace("-", "_"), None)
        if val is True:
            echo.append(arg)
        elif val is not None and val is not False:
            echo.append(f"{arg} {val}" if arg.startswith("-") else val)
    report = Report(" ".join(echo))
    handler(model, args, report)
    return report


def _build_parser(command=None):
    """All twelve subcommands, with arguments only on ``command``'s parser.

    argparse makes a help formatter for every argument it adds, so a run
    adds only the arguments of the command it names; the top-level usage,
    help and choices are the same for every ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="conjtop",
        description="Topology of involutions on finite complexes: types, double "
        "covers, complex semi-orientations, congruences, quadratic invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, arguments) in _COMMANDS.items():
        # no prefix matching: it would read a stray --h as --help
        p = sub.add_parser(name, allow_abbrev=False)
        if name != command:
            continue
        for arg in arguments:
            p.add_argument(arg, **_ARGUMENTS[arg])
        p.add_argument("--model", help="model file (defaults to the bundled library)")
        p.add_argument("--machine", action="store_true",
                       help="print only the machine-readable section")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.model:
            from .modelfile import parse_model

            with open(args.model, "r", encoding="utf-8") as fh:
                model = parse_model(fh.read())
        elif hasattr(args, "object"):
            from .models import model_library

            model = model_library(args.object)  # only the group that defines it
        else:
            model = None  # congruence reads no object
        report = run(args.command, model, args)
    except InputError as e:
        sys.stdout.write(f"input error: {e}\n")
        return 2
    except ModelIntegrityError as e:
        sys.stdout.write(f"model integrity violation: {e}\n")
        if args.machine:
            sys.stdout.write(_trace_lines(e.report))
        return 1
    except (OSError, UnicodeDecodeError) as e:
        sys.stdout.write(f"input error: {e}\n")
        return 2
    sys.stdout.write(report.render(machine_only=args.machine))
    return 0


if __name__ == "__main__":
    sys.exit(main())

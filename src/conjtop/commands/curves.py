"""Handlers that read curves on a surface: the dividing test and
semi-orientations (§3.3), double covers and curve comparison."""

from ..errors import InputError
from . import _chain_bits, _lookup, _resolve_involution


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


def _cmd_divide(model, args, report):
    from ..orientations import dividing_test

    K, tau, basis = _resolve_involution(model, args.object)
    verdict = dividing_test(K, tau)
    report.item("dividing", verdict.dividing, "dividing")
    report.item("components", verdict.component_count, "complement components")
    if verdict.dividing:
        report.item("half_sizes",
                    tuple(sorted(len(h) for h in verdict.halves)),
                    "triangles per half")


def _cmd_orient(model, args, report):
    from ..orientations import curve_complex_semiorientation

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
    from ..coverings import branched_double_cover, double_cover_unbranched
    from ..homology import betti_numbers

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
    from ..coverings import orientation_cover
    from ..homology import betti_numbers

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
    from ..orientations import compare_mod_curves, flip_semiorientation

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

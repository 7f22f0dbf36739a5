"""Handlers that read no complex: Kharlamov's congruence (§2.3), lattice
audits and quadratic forms."""

from ..errors import InputError
from ..gf2 import bits_of, characteristic_class, is_even
from . import _fmt, _lookup


def _cmd_congruence(model, args, report):
    from ..lattices import kharlamov_congruence

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
    from ..lattices import (
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
                ok = orientation_class_check(L, vec)
                report.item(f"orientation_class.{mark}", ok,
                            f"candidate {mark} {_fmt(vec)} is twice a pulled class")
    cross = alpha_chi_cross_check(L)
    if cross is not None:
        report.item("alpha_self_pairing", cross["self_pairing"],
                    "marked orientation class self-pairing")
        report.item("chi_real", cross["chi"], "marked real-part Euler characteristic")


def _cmd_qform(model, args, report):
    from ..qforms import arf, brown, qform_from_loop_table

    table = _lookup(model.loops, args.object, "loop table")
    q = qform_from_loop_table(table)
    report.item("kind", table.kind, "form kind")
    report.item("dimension", q.dimension, "dimension")
    report.item("basis_values", q.values, "values on the basis")
    if table.kind == "spin":
        report.item("arf", arf(q), "Arf invariant")
    else:
        report.item("brown", brown(q), "Brown invariant (mod 8)")

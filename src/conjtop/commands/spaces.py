"""Handlers that read a space and its involution: homology, the fixed set,
the conjugation form and the type (§1.2)."""

from ..errors import InputError, ModelIntegrityError
from ..gf2 import bits_of, characteristic_class, is_even, vec_from_bits
from . import _resolve_involution


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


def _resolve_form_space(model, name: str):
    """(space, tau, basis) for a map name, or chain data carrying its involution."""
    if name not in model.maps and name in model.chains:
        return model.chains[name], None, None
    return _resolve_involution(model, name)


def _cmd_homology(model, args, report):
    from ..complexes import SimplicialComplex
    from ..homology import betti_numbers

    if args.object in model.complexes:
        space = model.complexes[args.object]
    elif args.object in model.chains:
        space = model.chains[args.object]
    else:
        raise InputError(f"no complex or chain data named {args.object!r}")
    betti = betti_numbers(space)
    for k, b in enumerate(betti):
        report.item(f"betti.{k}", b, f"dim H_{k}")
    report.item("betti_total", sum(betti), "total Betti number")
    if isinstance(space, SimplicialComplex):
        report.item("chi", space.euler_characteristic(), "Euler characteristic")


def _cmd_fixed_set(model, args, report):
    from ..homology import homology
    from ..involutions import fixed_subcomplex

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
    from ..involutions import involution_form, verify_fixed_class_is_characteristic

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
    from ..homology import homology
    from ..involutions import classify_type

    K, tau, basis = _resolve_form_space(model, args.object)
    h_bits = None
    width = homology(K, K.dimension // 2).betti
    if args.h is not None:
        h_bits = _coords_bits(_parse_vector(args.h), width)
    verdict = classify_type(K, tau, h=h_bits, basis_cycles=basis)
    report.item("verdict", verdict.kind, "type")
    report.item("witness", bits_of(verdict.witness, width), "fixed-set class")

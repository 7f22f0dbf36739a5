"""Analysis of involutions on closed even-dimensional complexes.

Regularity, the fixed point set and its middle-dimensional class, the
mod-2 bilinear form (x, y) -> x . t(y), its characteristic class and
evenness, and type classification of the fixed set's class.  The forms
load ``conjtop.duality`` when asked for; the orbit space and the audits
live in ``conjtop.smith``; the benchmark reads two of the audits from here.

All class coordinates refer to the canonical homology basis unless a
marked basis of cycles is supplied; bundled models mark geometric bases so
that reported coordinates match classical conventions.
"""

from __future__ import annotations

from .complexes import (
    SimplicialComplex, SimplicialMap, _levels, check_involution, pseudomanifold_check,
)
from .errors import InputError, ModelIntegrityError, Record
from .gf2 import BilinearFormGF2, Gf2Matrix, characteristic_class, gf2_invert, is_even
from .homology import ChainCarrier, homology, total_betti


def regularity_offender(K: SimplicialComplex, tau: SimplicialMap):
    """Lowest edge (v, tau(v)) of K, or None.  For an involution it is the first simplex
    that tau maps onto itself without fixing it pointwise: tau swaps two vertices of such
    a simplex, and the edge joining them comes before it in ``all_simplices`` order."""
    return next(((v, w) for v, w in enumerate(tau.images) if v < w and (v, w) in K._index), None)


def is_regular(K: SimplicialComplex, tau: SimplicialMap) -> bool:
    """Whether tau is an involution that fixes pointwise each simplex it maps onto itself."""
    return tau.is_involution() and regularity_offender(K, tau) is None


def check_regular_involution(K: SimplicialComplex, tau: SimplicialMap):
    """Refuse a map that is not a regular involution of K; O(vertices)."""
    check_involution(K, tau)
    if (bad := regularity_offender(K, tau)) is not None:
        raise InputError(f"involution is not regular: simplex {bad} maps onto itself")


class FixedComponent(Record):
    __slots__ = ("dimension", "cycle")  # cycle: fundamental cycle in the ambient middle chains


class FixedSetData(Record):
    # mid_class: coordinates, None when the ambient dimension is odd
    __slots__ = ("subcomplex", "components", "mid_dimension", "mid_cycle", "mid_class")


class _Basis:
    """Coordinate frame on H_mid: canonical or marked by explicit cycles."""

    def __init__(self, hom, basis_cycles=None):
        self.hom = hom
        self.marked = self.to_marked = None
        if basis_cycles is None:
            return
        basis_cycles = list(basis_cycles)
        if len(basis_cycles) != hom.betti:
            raise InputError(
                f"marked basis has {len(basis_cycles)} cycles, Betti number is {hom.betti}"
            )
        # row j holds the canonical coordinates of marked cycle j
        self.marked = Gf2Matrix(hom.betti, hom.betti,
                                [hom.coordinates_of(z) for z in basis_cycles])
        try:
            self.to_marked = gf2_invert(self.marked.transpose())
        except InputError:
            raise InputError("marked cycles do not form a homology basis") from None

    def coords(self, chain: int) -> int:
        c = self.hom.coordinates_of(chain)
        if self.to_marked is None:
            return c
        return self.to_marked.mul_vec(c)

    def transform_form(self, gram_canonical: Gf2Matrix) -> Gf2Matrix:
        if self.marked is None:
            return gram_canonical
        return self.marked * gram_canonical * self.marked.transpose()


def fixed_subcomplex(K: SimplicialComplex, tau: SimplicialMap,
                     basis_cycles=None) -> FixedSetData:
    """Pointwise-fixed subcomplex with its middle-dimensional class.

    Components of middle dimension contribute their fundamental cycles to
    the reported class; components of other dimensions are listed but not
    summed.  Requires a regular involution.

    The fixed set is remembered per map and shared by every later call and
    every analysis that needs it; regularity is checked on every call, and a
    refusal stores nothing.  ``mid_class`` follows ``basis_cycles`` on each call.
    """
    check_regular_involution(K, tau)
    if "fixed" not in tau._memo:
        tau._memo["fixed"] = _fixed_set(K, tau)
    F, components, mid, mid_cycle = tau._memo["fixed"]
    mid_class = None
    if mid is not None:
        mid_class = _Basis(homology(K, mid), basis_cycles).coords(mid_cycle)
    return FixedSetData(F, components, mid, mid_cycle, mid_class)


def _fixed_set(K: SimplicialComplex, tau: SimplicialMap):
    """(F, components, mid, mid_cycle) in one pass over the fixed simplices."""
    # a regular involution fixes pointwise each simplex it maps onto itself;
    # faces of fixed simplices are fixed, and faces stay in their component
    F = SimplicialComplex._trusted(K.vertex_count, _levels(
        group[i] for k, group in enumerate(K._by_dim)
        for i, j in enumerate(tau.index_images(k)) if i == j
    ))
    comps = F.components()
    comp_of = {v: i for i, vs in enumerate(comps) for v in vs}
    groups = [[] for _ in comps]
    for s in F.all_simplices():
        groups[comp_of[s[0]]].append(s)

    mid = K.dimension // 2 if K.dimension % 2 == 0 else None
    components = []
    mid_cycle = 0
    for group in groups:
        cdim = len(group[-1]) - 1
        cycle = None
        if cdim == mid:
            pseudomanifold_check(SimplicialComplex._trusted(K.vertex_count, _levels(group)))
            cycle = sum(1 << K.index_of(s) for s in group if len(s) == cdim + 1)
            mid_cycle ^= cycle
        components.append(FixedComponent(cdim, cycle))
    return F, tuple(components), mid, mid_cycle


def _middle_forms(space, tau=None):
    """(H_mid basis, intersection Gram, actor) of a carrier.

    The actor is what :func:`induced_map` takes for the involution: the
    chain data itself or ``tau``, which is checked first.  Odd chain data is
    refused for its dimension before a missing pairing.
    """
    from .duality import duality_data, intersection_form_matrix, middle_dimension

    if isinstance(space, ChainCarrier):
        mid = middle_dimension(space)
        if space.pairing is None:
            raise InputError("chain data has no intersection pairing")
        return homology(space, mid), space.pairing, space
    check_involution(space, tau)
    dd = duality_data(space, middle_dimension(space))
    return dd.hom, intersection_form_matrix(dd), tau


def involution_form(space, tau: SimplicialMap | None = None,
                    basis_cycles=None) -> BilinearFormGF2:
    """Mod-2 form (x, y) -> x . t(y) on middle homology.

    The Gram matrix is the intersection pairing times the matrix of the
    involution on middle homology, on either carrier: a complex pairs
    Poincare duals by cup products, chain data carries its pairing and
    involution chain maps.
    """
    from .duality import induced_map

    hom, pairing, actor = _middle_forms(space, tau)
    action = induced_map(actor, hom.dimension)
    gram = _Basis(hom, basis_cycles).transform_form(pairing * action)
    if not gram.is_symmetric():
        raise ModelIntegrityError("involution form is not symmetric", report=gram)
    return BilinearFormGF2(gram)


def _fixed_facts(space, tau, basis_cycles=None, total=False):
    """Middle class of the fixed set plus its top dimension (None for chain
    data), or with ``total`` its total Betti number in place of the class.
    """
    if isinstance(space, ChainCarrier):
        value = space.fixed_betti_total if total else space.fixed_class
        if value is None:
            what = "fixed-set Betti numbers" if total else "the class of its fixed set"
            raise InputError(f"chain data does not carry {what}")
        return value, None
    data = fixed_subcomplex(space, tau, basis_cycles=basis_cycles)
    value = total_betti(data.subcomplex) if total else data.mid_class
    return value, max((c.dimension for c in data.components), default=-1)


def verify_fixed_class_is_characteristic(space, tau=None, basis_cycles=None):
    """Check that the fixed set realizes the characteristic class of the form.

    Returns a report dict with both classes; ``holds`` is the verdict.
    Rejects fixed sets of dimension above the middle (the statement does
    not apply there, e.g. for the identity involution).
    """
    from .duality import middle_dimension

    mid = middle_dimension(space)
    fixed_class, max_dim = _fixed_facts(space, tau, basis_cycles)
    if max_dim is not None and max_dim > mid:
        raise InputError(f"fixed set has dimension {max_dim} above the middle dimension {mid}")
    B = involution_form(space, tau, basis_cycles=basis_cycles)
    chi = characteristic_class(B)
    return {
        "holds": chi == fixed_class,
        "fixed_class": fixed_class,
        "characteristic_class": chi,
        "dimension": B.dimension,
    }


class TypeVerdict(Record):
    # kind: "I_abs" | "I_rel" | "II"; witness: the fixed-set class; compared_against: h, or None
    __slots__ = ("kind", "witness", "compared_against")

    def __str__(self):
        return self.kind


def classify_type(space, tau=None, h: int | None = None, basis_cycles=None) -> TypeVerdict:
    """Type of the involution data from the class of its fixed set.

    I_abs when the fixed set bounds (class zero), I_rel when the class
    equals a caller-supplied distinguished class h, otherwise II.
    """
    fixed_class, _ = _fixed_facts(space, tau, basis_cycles)
    if fixed_class is None:
        raise InputError("type classification needs an even-dimensional carrier")
    if fixed_class == 0:
        return TypeVerdict("I_abs", 0, h)
    if h is not None and fixed_class == h:
        return TypeVerdict("I_rel", fixed_class, h)
    return TypeVerdict("II", fixed_class, h)


def __getattr__(name):
    # the benchmark imports is_even (bound by the gf2 import) and two smith audits here
    if name in ("harnack_audit", "smith_kernel_bound"):
        from . import smith

        return getattr(smith, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

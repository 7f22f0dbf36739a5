"""Analysis of involutions on closed even-dimensional complexes.

Covers the geometry and the homological side of a real structure:
regularity, the quotient and the orbit chain complex that the Smith
sequence reads, the fixed point set and its middle-dimensional class, the
mod-2 bilinear form (x, y) -> x . t(y), its characteristic class and
evenness, type classification of the fixed set's class, the Harnack-style
Betti bound with M-detection, the Smith sequence kernel bound in dimension
four, and parity obstructions to bounding.

All class coordinates refer to the canonical homology basis unless a
marked basis of cycles is supplied; bundled models mark geometric bases so
that reported coordinates match classical conventions.
"""

from __future__ import annotations

from .complexes import (
    SimplicialComplex, SimplicialMap, _levels, barycentric_subdivide, check_involution,
    pseudomanifold_check,
)
from .errors import InputError, ModelIntegrityError, Record
from .gf2 import (
    BilinearFormGF2, Gf2Matrix, characteristic_class, gf2_invert, is_even, reduce_columns,
)
from .homology import (
    ChainComplexData,
    duality_data,
    homology,
    induced_map,
    intersection_form_matrix,
    middle_dimension,
    total_betti,
)


def regularity_offender(K: SimplicialComplex, tau: SimplicialMap):
    """First simplex mapped onto itself without being fixed pointwise."""
    im = tau.images
    for k in range(K.dimension + 1):
        group = K.simplices(k)
        for i, j in enumerate(tau.index_images(k)):
            if i == j and any(im[v] != v for v in group[i]):
                return group[i]
    return None


def is_regular(K: SimplicialComplex, tau: SimplicialMap) -> bool:
    return regularity_offender(K, tau) is None


def check_regular_involution(K: SimplicialComplex, tau: SimplicialMap):
    """Refuse a map that is not a regular involution of K.

    The regularity scan runs once per map: a map that carries a cached
    fixed set (see :func:`fixed_subcomplex`) has already passed it.
    """
    check_involution(K, tau)
    if tau._fixed is None:
        bad = regularity_offender(K, tau)
        if bad is not None:
            raise InputError(f"involution is not regular: simplex {bad} maps onto itself")


def quotient_by_involution(K: SimplicialComplex, tau: SimplicialMap):
    """Orbit complex of a regular involution, with the projection map.

    Simplices of the quotient are the orbit images of simplices of K.  The
    construction refuses when the involution is not regular, and also when
    two simplices that are not exchanged by the involution would collapse
    to the same orbit image (the classical failure that one or two
    barycentric subdivisions repair; see :func:`regularize`).
    """
    check_regular_involution(K, tau)

    reps = sorted({min(v, tau(v)) for v in range(K.vertex_count)})
    rep_rank = {v: i for i, v in enumerate(reps)}

    def orbit_vertex(v):
        return rep_rank[min(v, tau(v))]

    # the orbit image of a face is a face of the orbit image: closed
    image_to_source = {}
    for s in K.all_simplices():
        img = tuple(sorted(orbit_vertex(v) for v in s))
        if len(set(img)) < len(img):
            raise InputError(f"simplex {s} contains a vertex orbit twice")
        prev = image_to_source.get(img)
        if prev is not None and prev != s and prev != tau.map_simplex(s):
            raise InputError(
                "quotient collision: simplices "
                f"{prev} and {s} share an orbit image; subdivide first"
            )
        if prev is None or s < prev:
            image_to_source[img] = s

    Q = SimplicialComplex._trusted(len(reps), _levels(image_to_source))
    proj = SimplicialMap._trusted(K, Q, (orbit_vertex(v) for v in range(K.vertex_count)))
    return Q, proj


def orbit_chain_boundaries(K: SimplicialComplex, tau: SimplicialMap):
    """Mod-2 chain complex of the orbit space of a regular involution.

    Basis in each dimension: orbits of simplices (fixed simplices are
    singleton orbits).  This is the Delta-complex chain model of the
    quotient space; it stays valid when two non-exchanged simplices share
    an orbit image, the situation where the simplicial quotient refuses.
    Returns (boundaries, fixed_flags): boundary matrices indexed by orbit
    bases and, per dimension, a bit mask of the orbit classes lying in the
    fixed subcomplex.
    """
    check_regular_involution(K, tau)

    reps = []  # per dimension: the index in K of each orbit's first simplex
    orbit_of = []  # per dimension: the orbit number of each simplex of K
    fixed_flags = []
    for k in range(K.dimension + 1):
        lst, of, mask = [], [0] * K.n_simplices(k), 0
        # simplices are indexed in sorted order, so i <= j is s <= tau(s)
        for i, j in enumerate(tau.index_images(k)):
            if i <= j:
                if i == j:  # fixed pointwise, as the involution is regular
                    mask |= 1 << len(lst)
                of[i] = of[j] = len(lst)
                lst.append(i)
        reps.append(lst)
        orbit_of.append(of)
        fixed_flags.append(mask)

    boundaries = []
    for k in range(1, K.dimension + 1):
        faces, of = K.face_indices(k), orbit_of[k - 1]
        rows = [0] * len(reps[k - 1])
        bit = 1
        for i in reps[k]:
            for f in faces[i]:
                rows[of[f]] ^= bit
            bit <<= 1
        boundaries.append(Gf2Matrix._trusted(len(rows), len(reps[k]), tuple(rows)))
    return boundaries, fixed_flags


def regularize(K: SimplicialComplex, tau: SimplicialMap):
    """Subdivide at most twice until the involution admits a quotient."""
    check_involution(K, tau)
    for _ in range(3):
        try:
            quotient_by_involution(K, tau)
            return K, tau
        except InputError:
            pass
        K, tau = barycentric_subdivide(K, tau)
    raise InputError("involution still irregular after two barycentric subdivisions")


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

    The fixed set is computed once per map and shared by every later call
    and every analysis that needs it, which is safe because complexes and
    maps are immutable.  ``mid_class`` is not cached: it follows
    ``basis_cycles`` on each call.
    """
    check_regular_involution(K, tau)
    if tau._fixed is None:
        tau._fixed = _fixed_set(K, tau)
    F, components, mid, mid_cycle = tau._fixed
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


def _middle_forms(space, tau=None, act=True):
    """(H_mid basis, intersection Gram, actor) of a carrier.

    The actor is what :func:`induced_map` takes for the involution: the
    chain data itself or ``tau``.  With ``act`` the involution is checked
    first, and odd chain data is refused before a missing pairing.
    """
    if isinstance(space, ChainComplexData):
        if act:
            middle_dimension(space)
        if space.pairing is None:
            raise InputError("chain data has no intersection pairing")
        return homology(space, middle_dimension(space)), space.pairing, space
    if act:
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
    hom, pairing, actor = _middle_forms(space, tau)
    action = induced_map(actor, hom.dimension)
    gram = _Basis(hom, basis_cycles).transform_form(pairing * action)
    if not gram.is_symmetric():
        raise ModelIntegrityError("involution form is not symmetric", report=gram)
    return BilinearFormGF2(gram)


def intersection_form(space, basis_cycles=None) -> BilinearFormGF2:
    """Mod-2 intersection form on middle homology."""
    hom, pairing, _ = _middle_forms(space, act=False)
    return BilinearFormGF2(_Basis(hom, basis_cycles).transform_form(pairing))


def _fixed_facts(space, tau, basis_cycles=None, total=False):
    """Middle class of the fixed set plus its top dimension (None for chain
    data), or with ``total`` its total Betti number in place of the class.
    """
    if isinstance(space, ChainComplexData):
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


class HarnackReport(Record):
    __slots__ = ("fixed_total_betti", "space_total_betti", "is_m")


def harnack_audit(space, tau=None) -> HarnackReport:
    """Total mod-2 Betti comparison between fixed set and ambient space.

    Equality means an M-object; a fixed set with larger total Betti number
    violates the Smith-theoretic bound and cannot arise from an involution,
    so it is flagged as a model-integrity failure.
    """
    fix_total, _ = _fixed_facts(space, tau, total=True)
    space_total = total_betti(space)
    if fix_total > space_total:
        raise ModelIntegrityError(
            "fixed set total Betti exceeds the ambient total: "
            "not realizable as a conjugation involution",
            report={"fixed": fix_total, "space": space_total},
        )
    return HarnackReport(fix_total, space_total, fix_total == space_total)


class SmithReport(Record):
    __slots__ = ("kernel_dimension", "h1_trivial", "asserted", "quotient_table")

    def __eq__(self, other):  # the quotient table is reported but not compared
        if type(other) is not type(self):
            return NotImplemented
        return self._asdict() | {"quotient_table": 0} == other._asdict() | {"quotient_table": 0}

    def __hash__(self):
        return hash((self.kernel_dimension, self.h1_trivial, self.asserted))


def _smith_verdict(kernel_dimension: int, h1_trivial: bool, table=None) -> bool:
    """Assert the kernel bound when the hypothesis holds."""
    if h1_trivial and kernel_dimension > 1:
        raise ModelIntegrityError(
            f"inclusion kernel has dimension {kernel_dimension} > 1 "
            "despite trivial first homology",
            report={"kernel": kernel_dimension, "table": table},
        )
    return h1_trivial


def smith_kernel_bound(K: SimplicialComplex, tau: SimplicialMap) -> SmithReport:
    """Kernel of H_2(Fix) -> H_2(K) for a 4-dimensional carrier.

    When H_1(K) vanishes the kernel dimension is asserted to be at most 1;
    otherwise the number is only reported.  The report carries the ranks
    of the relative homology of (K/tau, Fix) in dimensions 4, 3, 2, the
    groups appearing in the Smith sequence argument.
    """
    if isinstance(K, ChainComplexData):
        raise InputError("the Smith kernel bound needs a geometric complex")
    if K.dimension != 4:
        raise InputError(f"expected a 4-dimensional complex, got dimension {K.dimension}")
    h1_trivial = homology(K, 1).betti == 0
    F = fixed_subcomplex(K, tau).subcomplex
    fix_h2 = homology(F, 2)
    amb = homology(K, 2)
    # reindex fixed 2-cycles into the ambient chain group
    ambient_bit = [1 << K.index_of(s) for s in F.simplices(2)]
    images = [
        amb.coordinates_of(sum(b for j, b in enumerate(ambient_bit) if (z >> j) & 1))
        for z in fix_h2.cycles
    ]
    kernel_dim = fix_h2.betti - len(reduce_columns(images)[0])

    boundaries, fixed_flags = orbit_chain_boundaries(K, tau)
    orbits = ChainComplexData._trusted([boundaries[0].nrows] + [b.ncols for b in boundaries],
                                       boundaries)
    table = {k: homology(orbits, k, rel=fixed_flags).betti for k in (4, 3, 2)}
    asserted = _smith_verdict(kernel_dim, h1_trivial, table)
    return SmithReport(kernel_dim, h1_trivial, asserted, table)


class ObstructionVerdict(Record):
    __slots__ = ("obstructed", "reason", "witness")


def parity_obstruction(d: int, B: BilinearFormGF2, invariant_class: int) -> ObstructionVerdict:
    """Odd order or degree obstructs bounding in the complexification.

    The caller supplies a conjugation-invariant class whose self-pairing
    must equal d mod 2; with odd d the form takes a nonzero value on it,
    so the form is not even and the fixed set cannot bound.
    """
    if invariant_class >> B.dimension:
        raise InputError("witness class has too many coordinates")
    self_val = B.value(invariant_class, invariant_class)
    if self_val != d % 2:
        raise InputError(
            f"witness validation failed: self-pairing {self_val} does not match order {d}"
        )
    if d % 2 == 1:
        return ObstructionVerdict(True, "odd order cannot bound in complexification",
                                  invariant_class)
    return ObstructionVerdict(False, "no obstruction from parity", None)


def check_m_variety_even_form(space, tau=None, basis_cycles=None) -> dict:
    """M-object with even intersection form must have a bounding fixed set.

    Evaluates the three predicates, asserts the implication, and when the
    input is an M-object additionally asserts the mechanism behind it: the
    involution acts as the identity on mod-2 homology in every dimension.
    """
    harnack = harnack_audit(space, tau)
    hom, pairing, actor = _middle_forms(space, tau, act=False)
    even = is_even(BilinearFormGF2(_Basis(hom, basis_cycles).transform_form(pairing)))
    fixed_class, _ = _fixed_facts(space, tau, basis_cycles)
    report = {
        "is_m": harnack.is_m,
        "even_intersection_form": even,
        "fixed_class": fixed_class,
        "vacuous": not (harnack.is_m and even),
        "trivial_action_checked": False,
    }
    if harnack.is_m:
        n = space.dimension
        for k in range(n + 1):
            hk = homology(space, k)
            if hk.betti == 0:
                continue
            if induced_map(actor, k) != Gf2Matrix.identity(hk.betti):
                raise ModelIntegrityError(
                    f"M-object whose involution acts nontrivially on H_{k}",
                    report=report,
                )
        report["trivial_action_checked"] = True
    if harnack.is_m and even and fixed_class != 0:
        raise ModelIntegrityError(
            "M-object with even intersection form whose fixed set does not bound",
            report=report,
        )
    return report

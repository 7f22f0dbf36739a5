"""Smith theory of an involution: the orbit space and the audits built on it.

The quotient, the orbit chain complex and regularization by subdivision;
the Harnack-style Betti bound with M-detection, the Smith kernel bound in
dimension four and the even-form check of M-objects.  The Smith sequence
reads (orbit space, Fix) through ranks only, so the kernel bound's table
counts them from coboundary rows and builds no basis.  No ``conjtop``
command runs them, so they live apart from ``conjtop.involutions``, from
which the benchmark reads two of the audits.
"""

from .chains import ChainComplexData
from .complexes import SimplicialComplex, SimplicialMap, barycentric_subdivide, check_involution
from .duality import induced_map
from .errors import InputError, ModelIntegrityError, Record
from .gf2 import BilinearFormGF2, Gf2Matrix, is_even, reduce_columns
from .homology import _reduction, homology, total_betti
from .involutions import (
    _Basis, _fixed_facts, _middle_forms, check_regular_involution, fixed_subcomplex,
)


def quotient_by_involution(K: SimplicialComplex, tau: SimplicialMap):
    """Orbit complex of a regular involution, with the projection map.

    Simplices of the quotient are the orbit images of simplices of K.  The
    construction refuses when the involution is not regular, and also when
    two simplices that are not exchanged by the involution would collapse
    to the same orbit image (the classical failure that one or two
    barycentric subdivisions repair; see :func:`regularize`).  A regular
    involution joins no vertex to its image, so orbit images keep their dimension.
    """
    check_regular_involution(K, tau)

    orbit, count = [0] * K.vertex_count, 0  # orbits numbered by their lower vertex
    for v, w in enumerate(tau.images):
        if v <= w:
            orbit[v] = orbit[w] = count
            count += 1

    # per dimension, the first simplex index of each orbit image: closed under faces
    levels = []
    for k in range(K.dimension + 1):
        group, images, first = K.simplices(k), tau.index_images(k), {}
        for i, s in enumerate(group):
            j = first.setdefault(tuple(sorted(map(orbit.__getitem__, s))), i)
            if j != i and j != images[i]:
                raise InputError(f"quotient collision: simplices {group[j]} and {s} "
                                 "share an orbit image; subdivide first")
        levels.append(first)

    Q = SimplicialComplex._trusted(count, levels)
    return Q, SimplicialMap._trusted(K, Q, orbit)


def orbit_chain_boundaries(K: SimplicialComplex, tau: SimplicialMap):
    """Mod-2 chain complex of the orbit space of a regular involution.

    Basis in each dimension: orbits of simplices (fixed simplices are
    singleton orbits).  This is the Delta-complex chain model of the
    quotient space; it stays valid when two non-exchanged simplices share
    an orbit image, the situation where the simplicial quotient refuses.
    Returns (boundaries, fixed_flags), two tuples: boundary matrices indexed
    by orbit bases and, per dimension, a bit mask of the orbit classes lying
    in the fixed subcomplex.  They are remembered per map and shared with
    :func:`smith_kernel_bound`; regularity is checked on every call, and a
    refusal stores nothing.
    """
    check_regular_involution(K, tau)
    if "orbit" not in tau._memo:
        tau._memo["orbit"] = _orbit_chains(K, tau)
    return tau._memo["orbit"]


def _orbit_chains(K: SimplicialComplex, tau: SimplicialMap):
    """Orbit boundaries and fixed flags of a regular involution, as tuples."""
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
    return tuple(boundaries), tuple(fixed_flags)


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
    groups appearing in the Smith sequence argument: the kernel sizes of the
    relative coboundary reductions of the orbit chains, stored as rows, with
    the fixed flags as masks (closed by construction), building no basis.
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
    table = {k: len(_reduction(orbits, k, True, fixed_flags)[1]) for k in (4, 3, 2)}
    asserted = _smith_verdict(kernel_dim, h1_trivial, table)
    return SmithReport(kernel_dim, h1_trivial, asserted, table)


class ObstructionVerdict(Record):
    __slots__ = ("obstructed", "reason", "witness")


def check_m_variety_even_form(space, tau=None, basis_cycles=None) -> dict:
    """M-object with even intersection form must have a bounding fixed set.

    Evaluates the three predicates, asserts the implication, and when the
    input is an M-object additionally asserts the mechanism behind it: the
    involution acts as the identity on mod-2 homology in every dimension.
    """
    harnack = harnack_audit(space, tau)
    hom, pairing, actor = _middle_forms(space, tau)
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

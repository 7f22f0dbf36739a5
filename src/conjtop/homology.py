"""Mod-2 homology and cohomology of complexes, induced maps, cup products.

Works over two kinds of carrier: a :class:`SimplicialComplex`, or abstract
:class:`ChainComplexData` for spaces whose triangulations are too large to
write down, such as the orbit complex of an involution.  Both carriers run
the same code for absolute and relative homology, cohomology, induced maps
and the middle-dimensional forms; only geometric operations (quotients,
covers, fixed sets) and cup products on cochains require an actual complex.

Homology bases are echelon-canonical, so cycles and coordinates are
reproducible.  Every path (absolute, relative, orbit, cohomology) feeds
boundary columns to one lowest-bit column reduction, ``reduce_columns``.
The boundary into dimension k yields a pivot map of the boundaries B whose
pivots are those a row echelon form of B picks; each class of Z/B has one
representative vanishing on them.  The boundary out of dimension k yields
cycles with distinct lowest bits; those whose lowest bit is not a pivot of
B are such representatives, one per class of a basis, and their reduced
row echelon form (``gf2.echelon``, the same reduction back-substituted) is
the canonical basis.  A chain is reduced against the pivot map, lowest
pivot first, to find its representative.  The intersection form on middle
homology is read from the cup and evaluation matrices of
:func:`duality_data`; no Poincare dual cochain is built, and the cup
matrix is one pass over the top simplices, whatever the number of classes.
"""

from __future__ import annotations

from .complexes import SimplicialComplex, SimplicialMap, fundamental_class
from .errors import InputError, Record
from .gf2 import Gf2Matrix, dot, echelon, gf2_invert, reduce_by_pivots, reduce_columns


class ChainComplexData:
    """Abstract GF(2) chain complex, optionally with involution data.

    ``boundaries[k]`` is the boundary from k-chains to (k-1)-chains for
    k = 1..n; ``ranks`` fixes the chain ranks in dimensions 0..n.  Optional
    fields: integer boundary matrices, an involution chain map per
    dimension, the Gram matrix of the intersection pairing on the
    canonical middle homology basis, the middle-dimension class of the
    fixed point set in those coordinates, and the total mod-2 Betti number
    of the fixed point set.
    """

    __slots__ = (
        "ranks",
        "boundaries",
        "int_boundaries",
        "involution",
        "pairing",
        "fixed_class",
        "fixed_betti_total",
        "_cols_cache",
        "_faces_cache",
        "_red_cache",
        "_hom_cache",
        "_coh_cache",
    )

    def __init__(
        self,
        ranks,
        boundaries,
        int_boundaries=None,
        involution=None,
        pairing=None,
        fixed_class=None,
        fixed_betti_total=None,
    ):
        ranks = tuple(int(r) for r in ranks)
        n = len(ranks) - 1
        boundaries = tuple(boundaries)
        if len(boundaries) != n:
            raise InputError(f"expected {n} boundary matrices, got {len(boundaries)}")
        for k, M in enumerate(boundaries, start=1):
            if (M.nrows, M.ncols) != (ranks[k - 1], ranks[k]):
                raise InputError(f"boundary {k} has shape {M.nrows}x{M.ncols}")
        for k in range(1, n):
            if not (boundaries[k - 1] * boundaries[k]).is_zero():
                raise InputError(f"boundary composition in dimension {k + 1} is nonzero")
        int_boundaries = tuple(int_boundaries) if int_boundaries else None
        if int_boundaries:
            for k, (M, B) in enumerate(zip(int_boundaries, boundaries), start=1):
                if (M.nrows, M.ncols) != (B.nrows, B.ncols):
                    raise InputError(f"integer boundary {k} shape mismatch")
                if M.mod2() != B:
                    raise InputError(f"integer boundary {k} does not reduce to the GF(2) one")
        if involution is not None:
            involution = tuple(involution)
            if len(involution) != n + 1:
                raise InputError("involution needs one chain map per dimension")
            for k, T in enumerate(involution):
                if (T.nrows, T.ncols) != (ranks[k], ranks[k]):
                    raise InputError(f"involution chain map {k} has the wrong shape")
                if T * T != Gf2Matrix.identity(ranks[k]):
                    raise InputError(f"involution chain map {k} does not square to identity")
            for k in range(1, n + 1):
                if involution[k - 1] * boundaries[k - 1] != boundaries[k - 1] * involution[k]:
                    raise InputError(f"involution does not commute with boundary {k}")
        self._setup(ranks, boundaries, int_boundaries, involution, pairing, fixed_class,
                    fixed_betti_total)
        if pairing is not None:
            b = homology(self, middle_dimension(self)).betti
            if (pairing.nrows, pairing.ncols) != (b, b):
                raise InputError(
                    f"pairing is {pairing.nrows}x{pairing.ncols}, middle Betti is {b}"
                )
            if not pairing.is_symmetric():
                raise InputError("intersection pairing must be symmetric")
        if fixed_class is not None and pairing is not None:
            if fixed_class >> self.pairing.nrows:
                raise InputError("fixed class has more coordinates than the middle Betti")

    @classmethod
    def _trusted(cls, ranks, boundaries) -> "ChainComplexData":
        """Chain complex from boundaries of the stated shapes that compose to
        zero by construction (orbit chains of a simplicial involution);
        nothing is re-checked."""
        C = cls.__new__(cls)
        C._setup(tuple(ranks), tuple(boundaries))
        return C

    def _setup(self, ranks, boundaries, int_boundaries=None, involution=None, pairing=None,
               fixed_class=None, fixed_betti_total=None):
        self.ranks = ranks
        self.boundaries = boundaries
        self.int_boundaries = int_boundaries
        self.involution = involution
        self.pairing = pairing
        self.fixed_class = fixed_class
        self.fixed_betti_total = fixed_betti_total
        self._cols_cache = {}
        self._faces_cache = {}
        self._red_cache = {}
        self._hom_cache = {}
        self._coh_cache = {}

    @property
    def dimension(self):
        return len(self.ranks) - 1

    def boundary_matrix(self, k):
        if 1 <= k <= self.dimension:
            return self.boundaries[k - 1]
        rows = self.ranks[k - 1] if 0 <= k - 1 <= self.dimension else 0
        cols = self.ranks[k] if 0 <= k <= self.dimension else 0
        return Gf2Matrix.zeros(rows, cols)

    def boundary_columns(self, k):
        """Columns of the boundary out of dimension k, as bit vectors."""
        if k not in self._cols_cache:
            self._cols_cache[k] = tuple(sum(1 << i for i in f) for f in self.face_indices(k))
        return self._cols_cache[k]

    def face_indices(self, k):
        """Rows of the set bits of each boundary column out of dimension k,
        ascending, scattered from the set bits of the rows in one pass; the
        columns and the relative restrictions are read from them."""
        if k not in self._faces_cache:
            M = self.boundary_matrix(k)
            faces = [[] for _ in range(M.ncols)]
            for i, r in enumerate(M.rows):
                while r:
                    low = r & -r
                    faces[low.bit_length() - 1].append(i)
                    r ^= low
            self._faces_cache[k] = tuple(map(tuple, faces))
        return self._faces_cache[k]

    def n_simplices(self, k):
        return self.ranks[k] if 0 <= k <= self.dimension else 0

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplexData)
            and self.ranks == other.ranks
            and self.boundaries == other.boundaries
            and self.int_boundaries == other.int_boundaries
            and self.involution == other.involution
            and self.pairing == other.pairing
            and self.fixed_class == other.fixed_class
            and self.fixed_betti_total == other.fixed_betti_total
        )


class HomologyBasis:
    """Canonical basis of a homology group with coordinate services.

    ``cycles`` are bit-packed chains over the complex's k-simplices (or
    over the restricted simplices when ``chart`` is set by a relative
    computation).  The boundaries are kept as a lowest-bit pivot map.
    """

    __slots__ = ("dimension", "n_chains", "betti", "cycles", "chart", "_b_pivots", "_b_mask",
                 "_h_pivots")

    def __init__(self, dimension, n_chains, cycles, b_pivots, b_mask, h_pivots, chart=None):
        self.dimension = dimension
        self.n_chains = n_chains
        self.cycles = tuple(cycles)
        self.betti = len(self.cycles)
        self.chart = chart
        self._b_pivots = b_pivots
        self._b_mask = b_mask
        self._h_pivots = tuple(h_pivots)

    def coordinates_of(self, chain: int) -> int:
        """Coordinates of a cycle's class in this basis (bit-packed)."""
        if chain >> self.n_chains:
            raise InputError("chain has more coordinates than there are simplices")
        v = reduce_by_pivots(chain, self._b_pivots, self._b_mask)
        coords = 0
        for i, (row, p) in enumerate(zip(self.cycles, self._h_pivots)):
            if (v >> p) & 1:
                coords |= 1 << i
                v ^= row
        if v != 0:
            raise InputError("chain is not a cycle (its class has no coordinates)")
        return coords

    def __repr__(self):
        return f"HomologyBasis(dim={self.dimension}, betti={self.betti})"


def _quotient_basis(dimension, n_chains, boundaries, cycles, chart=None):
    """Echelon-canonical basis of Z/B from two column reductions.

    ``boundaries`` reduces the boundary into dimension k (its pivot map
    spans B); ``cycles`` reduces the boundary out of it (its kernel vectors
    span Z with B).  Callers reduce the boundaries first, so that the cycle
    reduction can clear their pivots.
    """
    b_pivots = boundaries[0]
    # Kernel vectors use only their own and pivot-keeping columns, and a pivot of B, the
    # lowest bit of a cycle, has a zero column: those off B's pivots vanish on them.
    reps = [z for j, z in cycles[1].items() if j not in b_pivots]
    h_rows, h_pivots = echelon(reps)
    mask = sum(1 << p for p in b_pivots)
    return HomologyBasis(dimension, n_chains, h_rows, b_pivots, mask, h_pivots, chart=chart)


def _reduction(space, k, co=False):
    """Cached reduction of the boundary columns out of dimension k, or with
    ``co`` of the coboundary out of degree k (the rows of the boundary into
    k + 1).

    The map one step toward the top (the boundary into k, or the coboundary
    into degree k) is reduced first whenever it is nonzero, so its pivots
    are always there to clear, whatever order the degrees are asked in.
    """
    cache = space._red_cache
    if (co, k) not in cache:
        # the map into k: the boundary out of k + 1, or the coboundary out of k - 1
        d, up = (k, k - 1) if co else (k + 1, k + 1)
        image = _reduction(space, up, co)[0] if 1 <= d <= space.dimension else ()
        cols = space.boundary_matrix(k + 1).rows if co else space.boundary_columns(k)
        cache[co, k] = reduce_columns(cols, image)
    return cache[co, k]


def _restrict_columns(space, k, keep_cols, keep_rows):
    """The kept boundary columns out of dimension k, each restricted to the
    kept rows renumbered in order, read from the face indices."""
    pos = [0] * space.n_simplices(k - 1)
    for r, i in enumerate(keep_rows):
        pos[i] = 1 << r
    faces = space.face_indices(k)
    return [sum(map(pos.__getitem__, faces[j])) for j in keep_cols]


def _rel_masks(space, rel):
    """The cells of ``rel`` as one bit mask per dimension 0..n, checked to be closed."""
    n = space.dimension
    if isinstance(space, ChainComplexData):
        masks = list(rel) if isinstance(rel, (list, tuple)) else []
        if len(masks) != n + 1 or any(
            not isinstance(m, int) or m < 0 or m >> r for m, r in zip(masks, space.ranks)
        ):
            raise InputError(f"rel must be {n + 1} cell masks within the chain ranks")
        for k in range(1, n + 1):
            rows = space.boundaries[k - 1].rows
            if any(r & masks[k] for i, r in enumerate(rows) if not (masks[k - 1] >> i) & 1):
                raise InputError(f"rel cells are not closed under the boundary {k}")
        return masks
    if isinstance(rel, SimplicialComplex):
        if not space.contains_subcomplex(rel):
            raise InputError("rel is not a subcomplex of the ambient complex")
        rel_simplices = rel.all_simplices()
    else:
        rel_simplices = set(tuple(s) for s in rel)
        sub = space.subcomplex(rel_simplices)
        if set(sub.all_simplices()) != rel_simplices:
            raise InputError("rel simplices are not closed under faces")
    masks = [0] * (n + 1)
    for s in rel_simplices:
        masks[len(s) - 1] |= 1 << space.index_of(s)
    return masks


def homology(space, k: int, rel=None) -> HomologyBasis:
    """Canonical mod-2 homology basis in dimension k.

    ``space`` is a SimplicialComplex or ChainComplexData.  ``rel`` switches
    to relative homology of the pair: for a complex, a subcomplex or a list
    of simplices closed under faces; for chain data, one bit mask of cells
    per dimension 0..n, closed under the boundaries.  Both become the same
    masks, and the chain complex spanned by the cells outside them is
    reduced.  Relative bases carry a ``chart`` listing which cells of the
    ambient space index their coordinates.
    """
    if not isinstance(space, (SimplicialComplex, ChainComplexData)):
        raise InputError(f"unsupported space type {type(space).__name__}")
    if rel is None:
        cache = space._hom_cache
        if k not in cache:
            cache[k] = _quotient_basis(
                k, space.n_simplices(k), _reduction(space, k + 1), _reduction(space, k)
            )
        return cache[k]

    masks = _rel_masks(space, rel)
    keep_km1, keep_k, keep_kp1 = (
        [j for j in range(space.n_simplices(kk)) if not (masks[kk] >> j) & 1]
        for kk in (k - 1, k, k + 1)
    )
    boundaries = reduce_columns(_restrict_columns(space, k + 1, keep_kp1, keep_k))
    cycles = reduce_columns(_restrict_columns(space, k, keep_k, keep_km1), boundaries[0])
    return _quotient_basis(k, len(keep_k), boundaries, cycles, chart=tuple(keep_k))


def middle_dimension(space) -> int:
    """Half the dimension of an even-dimensional carrier; odd ones are refused."""
    if space.dimension % 2 == 0:
        return space.dimension // 2
    raise InputError("middle dimension undefined for odd-dimensional data"
                     if isinstance(space, ChainComplexData)
                     else "operation requires an even-dimensional space")


def betti_numbers(space):
    n = space.dimension
    return tuple(homology(space, k).betti for k in range(n + 1))


def total_betti(space) -> int:
    return sum(betti_numbers(space))


def cohomology(space, k: int) -> HomologyBasis:
    """Canonical mod-2 cohomology basis in dimension k."""
    cache = space._coh_cache
    if k not in cache:
        cache[k] = _quotient_basis(
            k, space.n_simplices(k),
            _reduction(space, k - 1, co=True), _reduction(space, k, co=True),
        )
    return cache[k]


def is_cocycle(space, k: int, cochain: int) -> bool:
    """True when the coboundary, the sum of the boundary rows at the cochain's bits, is 0."""
    row = Gf2Matrix(1, space.n_simplices(k), (cochain,)) * space.boundary_matrix(k + 1)
    return row.rows[0] == 0


def chain_map_image(f: SimplicialMap, k: int, chain: int) -> int:
    """Push a k-chain through a simplicial map; degenerate images drop out."""
    images = f.index_images(k)
    out = 0
    while chain:
        i = images[(chain & -chain).bit_length() - 1]
        chain &= chain - 1
        if i >= 0:
            out ^= 1 << i
    return out


def induced_map(f_or_data, k: int) -> Gf2Matrix:
    """Matrix of the induced map on mod-2 homology in dimension k.

    Accepts a SimplicialMap, or ChainComplexData carrying an involution
    chain map.  Columns are coordinates of the images of the canonical
    source basis cycles in the canonical target basis.
    """
    if isinstance(f_or_data, ChainComplexData):
        if f_or_data.involution is None:
            raise InputError("chain data carries no involution chain map")
        source = target = f_or_data

        def push(z):
            return f_or_data.involution[k].mul_vec(z)
    else:
        source, target = f_or_data.source, f_or_data.target

        def push(z):
            return chain_map_image(f_or_data, k, z)
    src, dst = homology(source, k), homology(target, k)
    cols = [dst.coordinates_of(push(z)) for z in src.cycles]
    return Gf2Matrix(len(cols), dst.betti, cols).transpose()


def _cup_matrix(K: SimplicialComplex, k: int, left, right) -> list:
    """Front-face/back-face products on the tops of K in the global vertex
    order: bit j of row i evaluates ``left[i]`` (degree k) cup ``right[j]``
    (degree n-k).

    Each k-simplex and each (n-k)-simplex gets the bitset of the cochains of
    its side that contain it; one pass over the tops XORs the back face's
    bitset into the row of each cochain holding the front face.  Callers
    check first that the tops form the fundamental cycle.
    """
    n = K.dimension
    front_of, back_of = [0] * K.n_simplices(k), [0] * K.n_simplices(n - k)
    for holders, cochains in ((front_of, left), (back_of, right)):
        for j, c in enumerate(cochains):
            while c:
                holders[(c & -c).bit_length() - 1] |= 1 << j
                c &= c - 1
    rows = [0] * len(left)
    tops, get = K.simplices(n), K._index.__getitem__
    for f, b in zip(map(get, [s[: k + 1] for s in tops]), map(get, [s[k:] for s in tops])):
        a, r = front_of[f], back_of[b]
        while a and r:
            rows[(a & -a).bit_length() - 1] ^= r
            a &= a - 1
    return rows


def cup_pairing(K: SimplicialComplex, k: int, a: int, b: int) -> int:
    """Cup-product pairing of two cocycles of complementary degrees: the
    1 x 1 case of the pass that builds the cup matrix of :func:`duality_data`."""
    n = K.dimension
    if not 0 <= k <= n:
        raise InputError(f"degree {k} out of range for a {n}-complex")
    if a >> K.n_simplices(k) or b >> K.n_simplices(n - k):
        raise InputError("cochain width does not match the simplex count")
    if not is_cocycle(K, k, a):
        raise InputError("first argument is not a cocycle")
    if not is_cocycle(K, n - k, b):
        raise InputError("second argument is not a cocycle")
    fundamental_class(K)
    return _cup_matrix(K, k, (a,), (b,))[0]


class DualityData(Record):
    """Canonical bases in degree k with the cup matrix C of H^k against
    H^(n-k), its inverse, and the evaluation matrix E of H^k on H_k."""

    __slots__ = ("hom", "coh", "cup", "cup_inv", "eval_matrix")


def duality_data(K: SimplicialComplex, k: int) -> DualityData:
    """Duality package in degree k of a closed pseudomanifold.

    The cup matrix C of the canonical H^k and H^(n-k) bases is one pass
    over the tops (:func:`_cup_matrix`).  Raises when the cup pairing
    between degrees k and n-k degenerates or the evaluation pairing is
    singular; such inputs fail the duality audit and the middle-dimension
    form is not defined for them.
    """
    n = K.dimension
    fundamental_class(K)
    hom = homology(K, k)
    coh = cohomology(K, k)
    coh_dual = cohomology(K, n - k)
    if hom.betti != coh.betti:
        raise InputError("evaluation pairing is degenerate (betti mismatch)")
    cup = Gf2Matrix(coh.betti, coh_dual.betti, _cup_matrix(K, k, coh.cycles, coh_dual.cycles))
    eval_matrix = Gf2Matrix(
        coh.betti,
        hom.betti,
        (
            sum(dot(ci, zj) << j for j, zj in enumerate(hom.cycles))
            for ci in coh.cycles
        ),
    )
    if coh.betti != coh_dual.betti:
        raise InputError(
            f"duality audit failed: betti {coh.betti} in degree {k} vs "
            f"{coh_dual.betti} in degree {n - k}"
        )
    try:
        cup_inv = gf2_invert(cup)
    except InputError:
        raise InputError(
            f"duality audit failed: cup pairing degenerate in degree {k}"
        ) from None
    try:
        gf2_invert(eval_matrix)
    except InputError:
        raise InputError("evaluation pairing between cohomology and homology is singular")
    return DualityData(hom, coh, cup, cup_inv, eval_matrix)


def duality_audit(K: SimplicialComplex) -> bool:
    """Cup-pairing nondegeneracy check in every degree; True or raises."""
    n = K.dimension
    for k in range(n + 1):
        duality_data(K, k)
    return True


def intersection_form_matrix(dd: DualityData) -> Gf2Matrix:
    """Mod-2 intersection form on the canonical basis of middle homology.

    In the middle degree C pairs the H^k basis with itself.  The Poincare
    dual of class j has coordinates L e_j with L = C^-1 E, so the form is
    L^T C L, which is L^T E because C L = E.
    """
    return (dd.cup_inv * dd.eval_matrix).transpose() * dd.eval_matrix

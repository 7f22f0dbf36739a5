"""Mod-2 homology and cohomology of complexes.

Works over two kinds of carrier: a :class:`SimplicialComplex`, or abstract
chain data (``conjtop.chains``) for spaces whose triangulations are too
large to write down, such as the orbit complex of an involution.  Both run
the same code for absolute and relative homology and cohomology, and each
keeps its columns, reductions and absolute bases in its one ``_memo`` dict,
under keys such as ``("reduction", co, k)`` and ``("homology", k)``.  Induced
maps, cup products and forms live in ``conjtop.duality``, apart, because a cold
command compiles every module it loads; the benchmark reads ``duality_data`` here.

Every path (absolute, relative, orbit, cohomology) feeds the carrier's
boundary columns, relative ones with the subspace masked out, to one
lowest-bit column reduction, ``reduce_columns``; Betti numbers are its pivot
counts.  The boundary into dimension k yields a pivot map of the
boundaries B whose pivots are those a row echelon form of B picks; each
class of Z/B has one representative vanishing on them.  The boundary out
of dimension k yields cycles with distinct lowest bits; those whose lowest
bit is not a pivot of B are such representatives, one per class, and
their reduced row echelon form (``gf2.echelon``, the same reduction
back-substituted) is the echelon-canonical basis, reproducible across
runs.  A chain finds its representative by the pivot map, lowest pivot first.
"""

from __future__ import annotations

from itertools import compress

from .complexes import SimplicialComplex
from .errors import InputError
from .gf2 import Gf2Matrix, echelon, reduce_by_pivots, reduce_columns


class ChainCarrier:
    """Base of ``ChainComplexData``, which is told from a complex by this class
    without loading ``conjtop.chains``."""

    __slots__ = ()


class HomologyBasis:
    """Canonical basis of a homology group with coordinate services.

    ``cycles`` are bit-packed chains over the complex's k-simplices.  The
    boundaries are kept as a lowest-bit pivot map; in a relative basis it
    also holds the subspace's k-cells as unit columns, which coordinates ignore.
    """

    __slots__ = ("dimension", "n_chains", "betti", "cycles", "_b_pivots", "_b_mask", "_h_pivots")

    def __init__(self, dimension, n_chains, cycles, b_pivots, b_mask, h_pivots):
        self.dimension = dimension
        self.n_chains = n_chains
        self.cycles = tuple(cycles)
        self.betti = len(self.cycles)
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


def _quotient_basis(dimension, n_chains, boundaries, cycles):
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
    return HomologyBasis(dimension, n_chains, h_rows, b_pivots, mask, h_pivots)


def _reduction(space, k, co=False):
    """Remembered reduction of the boundary columns out of dimension k, or with
    ``co`` of the coboundary out of degree k (the rows of the boundary into
    k + 1).

    The map one step toward the top (the boundary into k, or the coboundary
    into degree k) is reduced first whenever it is nonzero, so its pivots
    are always there to clear, whatever order the degrees are asked in.
    """
    memo = space._memo
    if ("reduction", co, k) not in memo:
        # the map into k: the boundary out of k + 1, or the coboundary out of k - 1
        d, up = (k, k - 1) if co else (k + 1, k + 1)
        image = _reduction(space, up, co)[0] if 1 <= d <= space.dimension else ()
        cols = space.boundary_matrix(k + 1).rows if co else space.boundary_columns(k)
        memo["reduction", co, k] = reduce_columns(cols, image)
    return memo["reduction", co, k]


def _cells_off(masks, k, n):
    """Cells 0..n-1 outside ``masks[k]`` (all if k is out of range), in one pass over it."""
    mask = masks[k] if 0 <= k < len(masks) else 0
    return list(compress(range(n), map("0".__eq__, format(mask | 1 << n, "b")[:0:-1])))


def _rel_masks(space, rel):
    """The cells of ``rel`` as one bit mask per dimension 0..n, checked to be closed."""
    n = space.dimension
    if isinstance(space, ChainCarrier):
        masks = list(rel) if isinstance(rel, (list, tuple)) else []
        if len(masks) != n + 1 or any(
            not isinstance(m, int) or m < 0 or m >> r for m, r in zip(masks, space.ranks)
        ):
            raise InputError(f"rel must be {n + 1} cell masks within the chain ranks")
        for k in range(1, n + 1):
            rows = space.boundaries[k - 1].rows
            outside = map(rows.__getitem__, _cells_off(masks, k - 1, len(rows)))
            if any(map(masks[k].__and__, outside)):
                raise InputError(f"rel cells are not closed under the boundary {k}")
        return masks
    if not isinstance(rel, SimplicialComplex) or not space.contains_subcomplex(rel):
        raise InputError("rel must be a subcomplex of the ambient complex")
    return [sum(1 << space.index_of(s) for s in rel.simplices(k)) for k in range(n + 1)]


def homology(space, k: int, rel=None) -> HomologyBasis:
    """Canonical mod-2 homology basis in dimension k.

    ``space`` is a SimplicialComplex or ChainComplexData.  ``rel`` switches
    to relative homology of the pair: for a complex, a subcomplex; for chain
    data, one bit mask of cells per dimension 0..n, closed under the
    boundaries.  Anything else is an InputError.  Both become the same
    masks, cleared from the ambient boundary columns (the subspace's own
    columns vanish).  Its k-cells join the boundary pivots as unit columns,
    so a relative basis is in ambient coordinates and ignores chains on them.
    """
    if not isinstance(space, (SimplicialComplex, ChainCarrier)):
        raise InputError(f"unsupported space type {type(space).__name__}")
    if rel is None:
        if ("homology", k) not in space._memo:
            space._memo["homology", k] = _quotient_basis(
                k, space.n_simplices(k), _reduction(space, k + 1), _reduction(space, k))
        return space._memo["homology", k]

    masks = _rel_masks(space, rel)
    n_k = space.n_simplices(k)
    off_k, off_km1 = (~masks[d] if 0 <= d < len(masks) else -1 for d in (k, k - 1))
    pivots = reduce_columns(list(map(off_k.__and__, space.boundary_columns(k + 1))))[0]
    pivots.update((j, 1 << j) for j in set(range(n_k)).difference(_cells_off(masks, k, n_k)))
    cycles = reduce_columns(list(map(off_km1.__and__, space.boundary_columns(k))), pivots)
    return _quotient_basis(k, n_k, (pivots,), cycles)


def betti_numbers(space):
    """Betti numbers 0..n: n_k less the pivot counts of the cached reductions into and out of k."""
    rank = [len(_reduction(space, k)[0]) for k in range(space.dimension + 2)]
    return tuple(space.n_simplices(k) - rank[k] - rank[k + 1] for k in range(len(rank) - 1))


def total_betti(space) -> int:
    return sum(betti_numbers(space))


def cohomology(space, k: int) -> HomologyBasis:
    """Canonical mod-2 cohomology basis in dimension k."""
    if ("cohomology", k) not in space._memo:
        space._memo["cohomology", k] = _quotient_basis(
            k, space.n_simplices(k),
            _reduction(space, k - 1, co=True), _reduction(space, k, co=True))
    return space._memo["cohomology", k]


def is_cocycle(space, k: int, cochain: int) -> bool:
    """True when the coboundary, the sum of the boundary rows at the cochain's bits, is 0."""
    row = Gf2Matrix(1, space.n_simplices(k), (cochain,)) * space.boundary_matrix(k + 1)
    return row.rows[0] == 0


def __getattr__(name):
    # the duality layer lives in duality; the benchmark imports one name of it here
    if name == "duality_data":
        from .duality import duality_data

        return duality_data
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

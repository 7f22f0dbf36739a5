"""Mod-2 homology and cohomology of complexes.

Works over two kinds of carrier: a :class:`SimplicialComplex`, or abstract
chain data (``conjtop.chains``) for spaces whose triangulations are too
large to write down, such as the orbit complex of an involution.  Both run
the same code for absolute and relative homology and cohomology, and each
keeps its columns, reductions and bases in its one ``_memo`` dict, under
keys such as ``("reduction", co, k, masks)`` and ``("homology", k, masks)``,
``masks`` being ``()`` when absolute.  Induced maps, cup products and forms
live in ``conjtop.duality``, apart, because a cold command compiles every
module it loads; the benchmark reads ``duality_data`` here.

Every path (absolute, relative, orbit, cohomology, the Smith table) feeds
the carrier's boundary columns or rows, the subspace's cells cleared, to one
remembered lowest-bit column reduction, ``_reduction``; Betti numbers are
its kernel sizes.  The boundary into dimension k yields a pivot map of the
boundaries B whose pivots are those a row echelon form of B picks; each
class of Z/B has one representative vanishing on them.  The boundary out
of dimension k yields cycles with distinct lowest bits; those whose lowest
bit is not a pivot of B are such representatives, one per class, and
their reduced row echelon form (``gf2.echelon``, the same reduction
back-substituted) is the echelon-canonical basis, reproducible across
runs.  A chain finds its representative by the pivot map, lowest pivot first.
"""

from __future__ import annotations

from itertools import compress, count

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


def _reduction(space, k, co=False, masks=()):
    """Remembered reduction of the boundary columns out of dimension k, or with
    ``co`` of the coboundary out of degree k (the rows of the boundary into
    k + 1); ``masks``, one cell mask per dimension, makes it relative.

    The map one step toward the top (the boundary into k, or the coboundary
    into degree k) is reduced first whenever it is nonzero, so its pivots
    are always there to clear, whatever order the degrees are asked in.
    Relative, the rel k-cells are cleared too, and boundary columns lose
    their rel (k-1)-bits, those cells joining the pivot map as unit columns:
    the next degree clears them, and a relative basis ignores chains on rel.
    Either way the kernel keeps one vector per class, so its size is b_k.
    """
    memo, key = space._memo, ("reduction", co, k, masks)
    if key not in memo:
        # the map into k: the boundary out of k + 1, or the coboundary out of k - 1
        d, up = (k, k - 1) if co else (k + 1, k + 1)
        clear = _reduction(space, up, co, masks)[0] if 1 <= d <= space.dimension else ()
        cols = space.boundary_matrix(k + 1).rows if co else space.boundary_columns(k)
        if masks:
            rel, below = (masks[j] if 0 <= j < len(masks) else 0 for j in (k, k - 1))
            clear = set(_cells(rel)).union(clear)
            cols = cols if co else [c & ~below if c & below else c for c in cols]
        memo[key] = reduce_columns(cols, clear)
        if masks and not co:
            memo[key][0].update((j, 1 << j) for j in _cells(below))
    return memo[key]


def _cells(mask):
    """The cells of a mask: the indices of its set bits, ascending."""
    return compress(count(), map("1".__eq__, reversed(format(mask, "b"))))


def _rel_masks(space, rel):
    """The cells of ``rel`` as one bit mask per dimension 0..n, checked to be closed."""
    n = space.dimension
    if isinstance(space, ChainCarrier):
        masks = tuple(rel) if isinstance(rel, (list, tuple)) else ()
        if len(masks) != n + 1 or any(
            not isinstance(m, int) or m < 0 or m >> r for m, r in zip(masks, space.ranks)
        ):
            raise InputError(f"rel must be {n + 1} cell masks within the chain ranks")
        for k in range(1, n + 1):
            cols, off = space.boundary_columns(k), ~masks[k - 1]
            if any(off & cols[j] for j in _cells(masks[k])):
                raise InputError(f"rel cells are not closed under the boundary {k}")
        return masks
    if not isinstance(rel, SimplicialComplex) or not space.contains_subcomplex(rel):
        raise InputError("rel must be a subcomplex of the ambient complex")
    return tuple(sum(1 << space.index_of(s) for s in rel.simplices(k)) for k in range(n + 1))


def homology(space, k: int, rel=None) -> HomologyBasis:
    """Canonical mod-2 homology basis in dimension k.

    ``space`` is a SimplicialComplex or ChainComplexData.  ``rel`` switches
    to relative homology of the pair: for a complex, a subcomplex; for chain
    data, one bit mask of cells per dimension 0..n, closed under the
    boundaries.  Anything else is an InputError, checked on every call.  Both
    become the same masks, which the remembered reductions clear; the basis is
    in ambient coordinates and remembered per (k, masks).
    """
    if not isinstance(space, (SimplicialComplex, ChainCarrier)):
        raise InputError(f"unsupported space type {type(space).__name__}")
    masks = () if rel is None else _rel_masks(space, rel)
    key = "homology", k, masks
    if key not in space._memo:
        pair = _reduction(space, k + 1, False, masks), _reduction(space, k, False, masks)
        space._memo[key] = _quotient_basis(k, space.n_simplices(k), *pair)
    return space._memo[key]


def betti_numbers(space):
    """Betti numbers 0..n: kernel sizes of the reductions out of k, n_k - rank in - rank out."""
    return tuple(len(_reduction(space, k)[1]) for k in range(space.dimension + 1))


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

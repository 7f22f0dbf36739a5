"""The abstract chain carrier, for spaces whose triangulations are too large
to write down: homology reads it through the same code as a complex.

Only a ``[chain]`` model section, the ``t4_chain`` model and the orbit
complex of the Smith kernel bound build one, so it lives apart from
``conjtop.homology``, which tells it from a complex by its base class; what
homology derives from it is kept in its ``_memo`` dict, under a complex's keys.
"""

from .complexes import _integers
from .errors import InputError
from .gf2 import Gf2Matrix
from .homology import ChainCarrier, homology


class ChainComplexData(ChainCarrier):
    """Abstract GF(2) chain complex, optionally with involution data.

    ``boundaries[k]`` is the boundary from k-chains to (k-1)-chains for
    k = 1..n; ``ranks`` fixes the chain ranks in dimensions 0..n.  Optional
    fields: integer boundary matrices, an involution chain map per
    dimension, the Gram matrix of the intersection pairing on the
    canonical middle homology basis, the middle-dimension class of the
    fixed point set in those coordinates, and the total mod-2 Betti number
    of the fixed point set.  Homology keeps its columns, reductions and bases in ``_memo``.
    """

    _FIELDS = ("ranks", "boundaries", "int_boundaries", "involution", "pairing", "fixed_class",
               "fixed_betti_total")
    __slots__ = _FIELDS + ("_memo",)

    def __init__(self, ranks, boundaries, int_boundaries=None, involution=None, pairing=None,
                 fixed_class=None, fixed_betti_total=None):
        ranks = _integers(ranks, "chain ranks must be integers")
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
            if n % 2:  # duality.middle_dimension's check, without loading duality
                raise InputError("middle dimension undefined for odd-dimensional data")
            b = homology(self, n // 2).betti
            if (pairing.nrows, pairing.ncols) != (b, b):
                raise InputError(f"pairing is {pairing.nrows}x{pairing.ncols}, middle Betti is {b}")
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
        self._memo = {}

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
        if ("columns", k) not in self._memo:
            self._memo["columns", k] = tuple(self.boundary_matrix(k).columns())
        return self._memo["columns", k]

    def n_simplices(self, k):
        return self.ranks[k] if 0 <= k <= self.dimension else 0

    def __eq__(self, other):
        return isinstance(other, ChainComplexData) \
            and all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)


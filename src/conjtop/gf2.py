"""Exact linear algebra over GF(2) with bit-packed rows.

A row is a Python integer used as a bit vector (bit ``j`` is column ``j``),
so a row update is one word-level XOR no matter how wide the matrix is.
Vectors use the same encoding.  One elimination serves every caller:
:func:`reduce_columns`, the lowest-bit column reduction behind homology.
A rank is its pivot count; kernels, solutions and inverses take the
reduced row echelon form from :func:`echelon`, which back-substitutes its
pivot rows.  The reduced echelon form of a span is unique, so every
echelon basis is reproducible across runs.  Symmetric bilinear forms, with
their evenness and characteristic class, are GF(2) linear algebra too.
"""

from __future__ import annotations

from .errors import InputError, Record


def vec_from_bits(bits) -> int:
    """Pack an iterable of 0/1 entries into a bit-vector integer."""
    v = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise InputError(f"GF(2) entry must be 0 or 1, got {b!r}")
        if b:
            v |= 1 << j
    return v


def bits_of(v: int, n: int) -> tuple:
    """Unpack a bit-vector integer into an n-tuple of 0/1."""
    return tuple((v >> j) & 1 for j in range(n))


def dot(u: int, v: int) -> int:
    """Parity of the overlap of two bit vectors."""
    return (u & v).bit_count() & 1


class Gf2Matrix:
    """Immutable matrix over GF(2).

    Rows are stored bit-packed; entries are read as ``M[i, j]``.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows):
        rows = tuple(rows)
        if len(rows) != nrows:
            raise InputError(f"expected {nrows} rows, got {len(rows)}")
        mask = (1 << ncols) - 1
        for r in rows:
            if r & ~mask:
                raise InputError("row has bits beyond the declared width")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _trusted(cls, nrows: int, ncols: int, rows: tuple) -> "Gf2Matrix":
        """Matrix from a tuple of ``nrows`` rows that fit ``ncols`` columns by
        construction (boundaries, transposes, products, sums); not re-checked."""
        M = cls.__new__(cls)
        M.nrows, M.ncols, M.rows = nrows, ncols, rows
        return M

    @classmethod
    def from_rows(cls, entry_rows, ncols=None) -> "Gf2Matrix":
        entry_rows = [list(r) for r in entry_rows]
        if ncols is None:
            ncols = len(entry_rows[0]) if entry_rows else 0
        for r in entry_rows:
            if len(r) != ncols:
                raise InputError("ragged rows in matrix literal")
        return cls(len(entry_rows), ncols, (vec_from_bits(r) for r in entry_rows))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Gf2Matrix":
        return cls(nrows, ncols, (0,) * nrows)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, n, (1 << i for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise InputError(f"index {ij} out of range")
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        v = 0
        for i, r in enumerate(self.rows):
            if (r >> j) & 1:
                v |= 1 << i
        return v

    def columns(self) -> list:
        """All columns as bit-packed vectors, scattered from the rows' set bits."""
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= bit
                r ^= low
        return cols

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix._trusted(self.ncols, self.nrows, tuple(self.columns()))

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector, both bit-packed."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def __mul__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.ncols != other.nrows:
            raise InputError("dimension mismatch in matrix product")
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                k = (rr & -rr).bit_length() - 1
                acc ^= other.rows[k]
                rr &= rr - 1
            out.append(acc)
        return Gf2Matrix._trusted(self.nrows, other.ncols, tuple(out))

    def __add__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("dimension mismatch in matrix sum")
        return Gf2Matrix._trusted(
            self.nrows, self.ncols, tuple(a ^ b for a, b in zip(self.rows, other.rows))
        )

    def __eq__(self, other):
        return (
            isinstance(other, Gf2Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join("".join(str(b) for b in bits_of(r, self.ncols)) for r in self.rows)
        return f"Gf2Matrix({self.nrows}x{self.ncols}: {body})"

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self == self.transpose()

    def diagonal_vector(self) -> int:
        v = 0
        for i in range(min(self.nrows, self.ncols)):
            if (self.rows[i] >> i) & 1:
                v |= 1 << i
        return v


def reduce_columns(cols, clear=()):
    """Lowest-bit column reduction of bit-packed columns.

    Columns are taken last to first; while a column's lowest set bit is
    the pivot of an earlier reduced column, that column is added.  Returns
    ``(pivots, kernel)``: ``pivots`` maps each pivot to its reduced column,
    its keys being the pivots a row echelon form of the columns picks;
    ``kernel`` maps each column reduced to zero to the additions that did
    it, a kernel vector whose lowest set bit is that column.  Indices in
    ``clear`` are skipped: columns known to reduce to zero, such as the
    pivots of the next boundary map up (the clearing of Chen and Kerber).
    """
    reduced = {}
    kernel = {}
    for j in range(len(cols) - 1, -1, -1):
        if j in clear:
            continue
        c = cols[j]
        v = 1 << j
        while c:
            low = (c & -c).bit_length() - 1
            hit = reduced.get(low)
            if hit is None:
                reduced[low] = (c, v)
                break
            c ^= hit[0]
            v ^= hit[1]
        else:
            kernel[j] = v
    return {p: cv[0] for p, cv in reduced.items()}, kernel


def reduce_by_pivots(v: int, pivots, mask: int) -> int:
    """Representative of v modulo the span of a lowest-bit pivot map.

    ``mask`` has the bits of the pivots.  Each step clears the lowest pivot
    bit of v and touches only higher bits, so the result is the unique
    vector of the coset that vanishes on every pivot.
    """
    m = v & mask
    while m:
        v ^= pivots[(m & -m).bit_length() - 1]
        m = v & mask
    return v


def echelon(rows):
    """Reduced row echelon form of bit-packed rows.

    Returns (nonzero reduced rows, pivot column per row), pivots ascending.
    :func:`reduce_columns` leaves one row per pivot, its lowest set bit;
    back-substitution, highest pivot first, clears the other pivot bits.
    """
    pivots, _ = reduce_columns(list(rows))
    mask = 0
    for p in sorted(pivots, reverse=True):
        pivots[p] = reduce_by_pivots(pivots[p], pivots, mask)
        mask |= 1 << p
    order = sorted(pivots)
    return [pivots[p] for p in order], order


def gf2_rank(M: Gf2Matrix) -> int:
    """Rank of M over GF(2)."""
    return len(reduce_columns(M.rows)[0])


def gf2_kernel_basis(M: Gf2Matrix):
    """Echelon basis of {x : Mx = 0}, as bit-packed vectors."""
    return _echelon_kernel(*echelon(M.rows), M.ncols)


def _echelon_kernel(rows, pivots, n):
    """Kernel basis over the first n columns of an RREF, one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        x = 1 << free
        for row, p in zip(rows, pivots):
            if (row >> free) & 1:
                x |= 1 << p
        basis.append(x)
    return basis


def gf2_solve(M: Gf2Matrix, b: int):
    """Solve Mx = b over GF(2).

    ``b`` is a bit-packed vector of length ``M.nrows``.  Returns ``None``
    when the system is inconsistent, else ``(x, kernel_basis)`` where x is
    the particular solution with all free variables zero.
    """
    if b >> M.nrows:
        raise InputError("right-hand side longer than the number of rows")
    n = M.ncols
    rows, pivots = echelon(r | ((b >> i) & 1) << n for i, r in enumerate(M.rows))
    if pivots and pivots[-1] == n:
        return None
    x = 0
    for row, p in zip(rows, pivots):
        if (row >> n) & 1:
            x |= 1 << p
    return x, _echelon_kernel(rows, pivots, n)


def gf2_invert(M: Gf2Matrix) -> Gf2Matrix:
    """Inverse of a square matrix; raises InputError when singular."""
    if M.nrows != M.ncols:
        raise InputError("only square matrices can be inverted")
    n = M.nrows
    rows, pivots = echelon(r | (1 << (n + i)) for i, r in enumerate(M.rows))
    if pivots and pivots[-1] >= n:
        raise InputError("matrix is singular over GF(2)")
    mask = (1 << n) - 1
    return Gf2Matrix(n, n, ((row >> n) & mask for row in rows))


class BilinearFormGF2(Record):
    """Symmetric bilinear form on a finite GF(2) space, given by its Gram."""

    __slots__ = ("gram",)

    def __init__(self, gram: Gf2Matrix):
        if gram.nrows != gram.ncols:
            raise InputError("Gram matrix must be square")
        if not gram.is_symmetric():
            raise InputError("Gram matrix must be symmetric")
        super().__init__(gram)

    @property
    def dimension(self) -> int:
        return self.gram.nrows

    def value(self, x: int, y: int) -> int:
        return dot(self.gram.mul_vec(y), x)

    def __repr__(self):
        return f"BilinearFormGF2({self.gram!r})"


def is_even(B: BilinearFormGF2) -> bool:
    """True when the form vanishes on every diagonal value.

    Over GF(2) the diagonal of the Gram matrix determines all values
    B(x, x), so evenness is a diagonal check.
    """
    return B.gram.diagonal_vector() == 0


def characteristic_class(B: BilinearFormGF2) -> int:
    """The unique vector with B(chi, x) = B(x, x) for all x.

    Exists and is unique exactly when B is nondegenerate; degenerate
    inputs are refused with a kernel witness when one exists.
    """
    d = B.gram.diagonal_vector()
    sol = gf2_solve(B.gram, d)
    if sol is None:
        raise InputError("degenerate form: no characteristic vector exists")
    x, kernel = sol
    if kernel:
        raise InputError(
            "degenerate form: characteristic vector not unique "
            f"(kernel witness {bits_of(kernel[0], B.dimension)})"
        )
    return x

"""Exact integer matrices and Smith normal form.

Everything runs on Python integers, so entry blow-up during elimination
is harmless.  No floating point enters at any stage.

Smith normal form pivots on the smallest nonzero |entry| of the remaining
block, ties by row-major position, so (D, U, V) are deterministic.  The
search computes a row's minimum |entry| when it reaches the row, keeps it
through swaps, forgets it when a pivot pass touches the row, and stops at
the first row whose minimum is 1.  Each pivot makes one row pass and one
column pass over supports read once: the pivot row's nonzero columns, its
nonzero entries in U and in V, and the rows with a nonzero in the pivot
column.  V is kept transposed, so a column operation on it is a sparse row
operation.  A diagonal that already divides in order skips the pair pass.
U and V are built on request only, and ``det`` audits each transform a
call builds.  ``invariant_factors`` needs neither: it first eliminates unit
pivots on sparse columns, as Dumas, Heckenbach, Saunders and Welker (2003) do.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain, compress
from operator import index

from .errors import InputError, ModelIntegrityError
from .gf2 import Gf2Matrix, reduce_columns


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        """``ncols`` declares the width, which a matrix without rows needs."""
        rows = tuple(map(tuple, rows))
        if not set(map(type, chain.from_iterable(rows))) <= {int}:  # no 2.5 or "3"; True is 1
            try:
                rows = tuple(tuple(map(index, r)) for r in rows)
            except TypeError as e:
                raise InputError(f"integer matrix entry: {e}") from None
        widths = {len(r) for r in rows} | ({ncols} if ncols is not None else set())
        if len(widths) > 1:
            raise InputError("ragged rows in integer matrix")
        self.nrows = len(rows)
        self.ncols = widths.pop() if widths else 0
        self.rows = rows

    @classmethod
    def _trusted(cls, nrows: int, ncols: int, rows: tuple) -> "IntMatrix":
        """Matrix from a tuple of ``nrows`` integer rows of width ``ncols`` by
        construction (Smith forms, products, sums, transposes); not re-checked."""
        M = cls.__new__(cls)
        M.nrows, M.ncols, M.rows = nrows, ncols, rows
        return M

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._trusted(nrows, ncols, ((0,) * ncols,) * nrows)

    @classmethod
    def identity(cls, n):
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        return cls([[0] * i + [e] + [0] * (len(entries) - 1 - i) for i, e in enumerate(entries)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows \
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.rows))!r})"

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise InputError("dimension mismatch in matrix product")
            cols = other.transpose().rows
            return IntMatrix._trusted(self.nrows, other.ncols, tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows
            ))
        raise TypeError("expected IntMatrix")

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("dimension mismatch in matrix sum")
        return IntMatrix._trusted(self.nrows, self.ncols, tuple(
            tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)
        ))

    def __sub__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("dimension mismatch in matrix difference")
        return IntMatrix._trusted(self.nrows, self.ncols, tuple(
            tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)
        ))

    def scale(self, c):
        return IntMatrix._trusted(self.nrows, self.ncols,
                                  tuple(tuple(c * e for e in r) for r in self.rows))

    def transpose(self):
        rows = tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols
        return IntMatrix._trusted(self.ncols, self.nrows, rows)

    def mul_vec(self, v):
        v = list(v)
        if len(v) != self.ncols:
            raise InputError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def is_symmetric(self):
        return self.nrows == self.ncols and self == self.transpose()

    def mod2(self):
        return Gf2Matrix.from_rows([[e & 1 for e in r] for r in self.rows], self.ncols)

    def diagonal_entries(self):
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))


def det(M: IntMatrix) -> int:
    """Exact determinant: unit pivots first, then lazy fraction-free Bareiss.

    A +-1 at or below the diagonal pivots without division, over its row's
    support; the first column without one hands the trailing block to
    Bareiss.  There a row with a zero in the pivot column is left alone, and
    ``lag[i]`` keeps the pivot current at its last update: its true Bareiss
    row is ``a[i] * prev // lag[i]``, so its next update divides by
    ``lag[i]``, exactly, because the true entries are integer minors."""
    if M.nrows != M.ncols:
        raise InputError("determinant of a non-square matrix")
    n = M.nrows
    a = [list(r) for r in M.rows]
    sign = 1  # the product of the unit pivots and the swap signs so far
    for k in range(n):
        piv = k if a[k][k] in (1, -1) else next(
            (i for i in range(k + 1, n) if a[i][k] in (1, -1)), None)
        if piv is None:
            break
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        sign *= p
        below = [i for i in range(k + 1, n) if a[i][k]]
        if below:
            cols = _support(ak, k + 1)
            for i in below:
                ai = a[i]
                f = ai[k] * p  # the multiplier ai[k] / p, since p * p == 1
                for j in cols:
                    ai[j] -= f * ak[j]
    else:
        return sign
    a = [row[k:] for row in a[k:]]
    n = len(a)
    lag, prev = [1] * n, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    lag[k], lag[i] = lag[i], lag[k]
                    sign = -sign
                    break
            else:
                return 0
        if lag[k] != prev:
            a[k][k:] = [x * prev // lag[k] for x in a[k][k:]]
        p = a[k][k]
        rest = a[k][k + 1:]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            if f:
                d = lag[i]
                ai[k + 1:] = [(x * p - f * y) // d for x, y in zip(ai[k + 1:], rest)]
                lag[i] = p
        prev = p
    return sign * a[n - 1][n - 1] * prev // lag[n - 1]


def _support(row, lo=0):
    return list(compress(range(lo, len(row)), row[lo:]))


def smith_normal_form(M: IntMatrix, *, with_u=False, with_v=False):
    """Smith normal form: returns (D, U, V) with U*M*V = D.

    D is diagonal with nonnegative entries d_i satisfying d_i | d_{i+1}.
    U and V are unimodular, each None unless asked for (``with_u``,
    ``with_v``), and asking changes neither D nor the other.  Pivots are
    deterministic (smallest |entry|, ties by row-major position).  Raises
    :class:`ModelIntegrityError` when ``det`` finds a transform it built not unimodular.
    """
    m, n = M.nrows, M.ncols
    a = [list(r) for r in M.rows]
    # identity rows; empty for a transform not asked for, so its updates touch no column
    u = [[0] * i + [1] + [0] * (m - 1 - i) if with_u else [] for i in range(m)]
    vt = [[0] * i + [1] + [0] * (n - 1 - i) if with_v else [] for i in range(n)]  # V transposed
    # mins[i] is None until a search computes the smallest nonzero |entry| of
    # a[i][t:] at step t; column swaps keep it, and a finished step leaves column t zero below row t
    mins = [None] * m

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        mins[i], mins[j] = mins[j], mins[i]

    def swap_cols(t, j):
        if j == t:
            return
        for row in a[t:]:  # rows above t are zero from column t on
            row[t], row[j] = row[j], row[t]
        vt[t], vt[j] = vt[j], vt[t]

    def add_row(src, dst, c, cols, ucols):
        # row dst += c * row src, over the supports of row src in a and u
        ad, asrc, ud, usrc = a[dst], a[src], u[dst], u[src]
        for j in cols:
            ad[j] += c * asrc[j]
        for j in ucols:
            ud[j] += c * usrc[j]

    def add_col(src, dst, c, rows, vcols):
        # column dst += c * column src, over its nonzero rows in a and in V
        for i in rows:
            a[i][dst] += c * a[i][src]
        vd, vsrc = vt[dst], vt[src]
        for j in vcols:
            vd[j] += c * vsrc[j]

    def find_pivot(t):
        # the first row of smallest minimum, each minimum computed when the
        # search reaches its row, a 1 ending the search; that row's first column
        best = pi = 0
        for i in range(t, m):
            if (b := mins[i]) is None:
                b = mins[i] = min(map(abs, filter(None, a[i][t:])), default=0)
            if b and not 0 < best <= b:
                best, pi = b, i
                if b == 1:
                    break
        return (pi, next(j for j in range(t, n) if abs(a[pi][j]) == best)) if best else None

    r = min(m, n)
    for t in range(r):
        while (pos := find_pivot(t)) is not None:
            swap_rows(t, pos[0])
            swap_cols(t, pos[1])
            at, p = a[t], a[t][t]
            cols, ucols, vcols = _support(at, t), _support(u[t]), _support(vt[t])
            below = [i for i in range(t + 1, m) if a[i][t]]
            for i in below:
                add_row(t, i, -(a[i][t] // p), cols, ucols)
            rows = [t] + [i for i in below if a[i][t]]
            for j in cols[1:]:
                add_col(t, j, -(at[j] // p), rows, vcols)
            for i in (t, *below):  # the rows add_row and add_col touched
                mins[i] = None
            if len(rows) == 1 and not any(at[j] for j in cols[1:]):
                break
            # residues smaller than |p| remain, in rows whose minimum the next
            # search recomputes: the next pivot is strictly smaller, so the search ends

    def fix_pair(t, s):
        # replace diag entries (a_t, a_s) by (gcd, +-lcm); only rows/cols
        # t and s are touched and they carry no other nonzero entries
        add_col(s, t, 1, [s], _support(vt[s]))
        while a[s][t] != 0:
            add_row(s, t, -(a[t][t] // a[s][t]), _support(a[s], t), _support(u[s]))
            swap_rows(t, s)
        if a[t][s] != 0:
            add_col(t, s, -(a[t][s] // a[t][t]), [t], _support(vt[t]))

    # zero diagonal entries trail (the block is zero once no pivot is found, and fix_pair keeps
    # both nonzero), so dt == 0 means ds == 0; a diagonal dividing in order has no pair to fix
    if any(a[t][t] and a[t + 1][t + 1] % a[t][t] for t in range(r - 1)):
        for t in range(r):
            for s in range(t + 1, r):
                dt, ds = a[t][t], a[s][s]
                if dt != 0 and ds % dt != 0:
                    fix_pair(t, s)

    for i in range(r):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
            u[i] = [-x for x in u[i]]

    D = IntMatrix._trusted(m, n, tuple(map(tuple, a)))
    U = IntMatrix._trusted(m, m, tuple(map(tuple, u))) if with_u else None
    V = IntMatrix._trusted(n, n, tuple(zip(*vt))) if with_v else None
    dets = {name: det(T) for name, T in (("det_U", U), ("det_V", V)) if T is not None}
    if not all(d in (1, -1) for d in dets.values()):
        raise ModelIntegrityError("transform matrices lost unimodularity", report=dets)
    return D, U, V


def invariant_factors(M: IntMatrix):
    """Nonzero diagonal of the Smith form, units first.

    Columns are stored sparsely, and a heap keyed by row length yields the
    sparsest row holding a +-1 entry; the unit in its sparsest column is the
    pivot.  A unit pivot splits off a factor 1: the Schur update subtracts
    its column, scaled by the pivot row's entries, from the other columns
    of that row, and the pivot's row and column are dropped.  The remainder,
    its zero rows and columns left out, goes to :func:`smith_normal_form`,
    which builds no transform for it.  On every call the number of odd
    factors must equal the rank of M over GF(2), or
    :class:`ModelIntegrityError` is raised.
    """
    m, n = M.nrows, M.ncols
    cols = [{} for _ in range(n)]  # column j: {row: nonzero entry}
    rows = [set() for _ in range(m)]  # row i: its nonzero columns
    odd = [0] * n  # column j mod 2, bit-packed
    for i, r in enumerate(M.rows):
        for j in compress(range(n), r):
            x = r[j]
            cols[j][i] = x
            rows[i].add(j)
            if x & 1:
                odd[j] |= 1 << i
    heap = [(len(s), i) for i, s in enumerate(rows) if s]
    heapify(heap)
    units = 0
    while heap:
        k, r = heappop(heap)
        row = rows[r]
        if k != len(row):  # a stale entry, or an eliminated row
            continue
        c = min((j for j in row if cols[j][r] in (1, -1)),
                key=lambda j: (len(cols[j]), j), default=None)
        if c is None:  # pushed again if an update changes it
            continue
        pivot_col = cols[c]
        p = pivot_col.pop(r)
        others = [(i, x * p) for i, x in pivot_col.items()]  # x * p == x / p
        for j in row:
            if j == c:
                continue
            col = cols[j]
            f = col.pop(r)
            for i, x in others:
                y = col.get(i, 0) - f * x
                if y:
                    col[i] = y
                    rows[i].add(j)
                else:
                    del col[i]
                    rows[i].discard(j)
        for i, _ in others:
            rows[i].discard(c)
            if rows[i]:
                heappush(heap, (len(rows[i]), i))
        cols[c], rows[r] = {}, set()
        units += 1
    live_rows = [i for i in range(m) if rows[i]]
    live_cols = [j for j in range(n) if cols[j]]
    position = {i: k for k, i in enumerate(live_rows)}
    rest = [[0] * len(live_cols) for _ in live_rows]
    for k, j in enumerate(live_cols):
        for i, x in cols[j].items():
            rest[position[i]][k] = x
    D, _, _ = smith_normal_form(IntMatrix._trusted(
        len(live_rows), len(live_cols), tuple(map(tuple, rest))))
    factors = (1,) * units + tuple(d for d in D.diagonal_entries() if d)
    parity = {"odd_factors": sum(d & 1 for d in factors),
              "rank_mod2": len(reduce_columns(odd)[0])}
    if parity["odd_factors"] != parity["rank_mod2"]:
        raise ModelIntegrityError("invariant factors disagree with the rank mod 2",
                                  report=parity)
    return factors


def int_kernel_basis(M: IntMatrix):
    """Basis of the integer kernel of M: columns of V (asked for; U is not) over zero diagonals."""
    D, _, V = smith_normal_form(M, with_v=True)
    return [col for j, col in enumerate(V.transpose().rows) if j >= D.nrows or D[j, j] == 0]

"""Exact integer matrices and Smith normal form.

Everything runs on Python integers, so entry blow-up during elimination
is harmless.  No floating point enters at any stage.

Smith normal form pivots on the smallest nonzero |entry| of the remaining
block, ties by row-major position, so (D, U, V) are deterministic.  The
search takes each row's minimum with builtins and stops at the first row
whose minimum is 1, so a pivot costs one builtin pass per remaining row at
worst.  Column additions touch only rows with a nonzero source entry.
Every call audits U and V exactly with ``det``: fraction-free Bareiss
elimination, O(n^3) big-integer steps at worst, done a row at a time and
skipping a row only where its update is the identity.
"""

from __future__ import annotations

from .errors import InputError


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(map(int, r)) for r in rows)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise InputError("ragged rows in integer matrix")
        self.nrows = len(rows)
        self.ncols = widths.pop() if widths else 0
        self.rows = rows

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

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
            cols = list(zip(*other.rows)) if other.rows else []
            return IntMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
            )
        raise TypeError("expected IntMatrix")

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("dimension mismatch in matrix sum")
        return IntMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("dimension mismatch in matrix difference")
        return IntMatrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def scale(self, c):
        return IntMatrix([[c * e for e in r] for r in self.rows])

    def transpose(self):
        return IntMatrix(list(zip(*self.rows)) if self.rows else [[]] * self.ncols)

    def mul_vec(self, v):
        v = list(v)
        if len(v) != self.ncols:
            raise InputError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def is_symmetric(self):
        return self.nrows == self.ncols and self == self.transpose()

    def mod2(self):
        from .gf2 import Gf2Matrix

        return Gf2Matrix.from_rows([[e & 1 for e in r] for r in self.rows], self.ncols)

    def diagonal_entries(self):
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))


def det(M: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if M.nrows != M.ncols:
        raise InputError("determinant of a non-square matrix")
    n = M.nrows
    if n == 0:
        return 1
    a = [list(r) for r in M.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        p = a[k][k]
        rest = a[k][k + 1:]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            # with f == 0 the update is x -> x * p // prev: the identity iff
            # p == prev; columns up to k are never read again
            if f or p != prev:
                ai[k + 1:] = [(x * p - f * y) // prev for x, y in zip(ai[k + 1:], rest)]
        prev = p
    return sign * a[n - 1][n - 1]


def smith_normal_form(M: IntMatrix):
    """Smith normal form with transforms: returns (D, U, V) with U*M*V = D.

    D is diagonal with nonnegative entries d_i satisfying d_i | d_{i+1};
    U and V are unimodular.  Pivot choice is deterministic (smallest
    absolute value, ties by row-major position) so outputs are stable.
    """
    m, n = M.nrows, M.ncols
    a = [list(r) for r in M.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a + v:
            if row[src]:
                row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        # a row's smallest |e| is taken at C speed; no entry beats a 1
        best, pi = 0, None
        for i in range(t, m):
            e = min(map(abs, filter(None, a[i][t:])), default=0)
            if e and (not best or e < best):
                best, pi = e, i
                if e == 1:
                    break
        if not best:
            return None
        row = a[pi]
        return pi, next(j for j in range(t, n) if abs(row[j]) == best)

    r = min(m, n)
    for t in range(r):
        while True:
            pos = find_pivot(t)
            if pos is None:
                break
            swap_rows(t, pos[0])
            swap_cols(t, pos[1])
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        dirty = True
            if not dirty:
                break
            # residues remain; re-pick a strictly smaller pivot

    def fix_pair(t, s):
        # replace diag entries (a_t, a_s) by (gcd, +-lcm); only rows/cols
        # t and s are touched and they carry no other nonzero entries
        add_col(s, t, 1)
        while a[s][t] != 0:
            add_row(s, t, -(a[t][t] // a[s][t]))
            swap_rows(t, s)
        if a[t][s] != 0:
            add_col(t, s, -(a[t][s] // a[t][t]))

    for t in range(r):
        for s in range(t + 1, r):
            dt, ds = a[t][t], a[s][s]
            if dt == 0 and ds != 0:
                swap_rows(t, s)
                swap_cols(t, s)
            elif dt != 0 and ds % dt != 0:
                fix_pair(t, s)

    for i in range(r):
        if a[i][i] < 0:
            negate_row(i)

    D, U, V = IntMatrix(a), IntMatrix(u), IntMatrix(v)
    if det(U) not in (1, -1) or det(V) not in (1, -1):
        raise AssertionError("transform matrices lost unimodularity")
    return D, U, V


def invariant_factors(M: IntMatrix):
    """Nonzero diagonal of the Smith form."""
    D, _, _ = smith_normal_form(M)
    return tuple(d for d in D.diagonal_entries() if d != 0)


def int_solve(M: IntMatrix, b):
    """One integer solution of Mx = b, or None when unsolvable."""
    b = list(b)
    if len(b) != M.nrows:
        raise InputError("right-hand side length mismatch")
    D, U, V = smith_normal_form(M)
    c = U.mul_vec(b)
    r = min(M.nrows, M.ncols)
    y = [0] * M.ncols
    for i in range(M.nrows):
        d = D[i, i] if i < r else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < M.ncols:
                y[i] = c[i] // d
    return V.mul_vec(y)


def int_kernel_basis(M: IntMatrix):
    """Basis of the integer kernel of M (columns of V over zero diagonals)."""
    D, _, V = smith_normal_form(M)
    r = min(M.nrows, M.ncols)
    basis = []
    for j in range(M.ncols):
        d = D[j, j] if j < r else 0
        if d == 0:
            basis.append(tuple(V[i, j] for i in range(M.ncols)))
    return basis

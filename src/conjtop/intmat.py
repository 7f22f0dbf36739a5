"""Exact integer matrices and Smith normal form.

Everything runs on Python integers, so entry blow-up during elimination
is harmless.  No floating point enters at any stage.

Smith normal form pivots on the smallest nonzero |entry| of the remaining
block, ties by row-major position, so (D, U, V) are deterministic.  The
search takes each row's minimum with builtins and stops at the first row
whose minimum is 1.  Each pivot then makes one row pass and one column pass,
both over supports read once: the pivot row's nonzero columns, the nonzero
entries of its row of U, and the rows with a nonzero in the pivot column.
V is kept transposed, so its column operations are sparse row operations
and a column swap exchanges two rows.  Every call audits U and V exactly
with ``det``: Bareiss elimination that rescales a row only when it next
has a nonzero in the pivot column.
"""

from __future__ import annotations

from .errors import InputError


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        """``ncols`` declares the width, which a matrix without rows needs."""
        rows = tuple(tuple(map(int, r)) for r in rows)
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
        from .gf2 import Gf2Matrix

        return Gf2Matrix.from_rows([[e & 1 for e in r] for r in self.rows], self.ncols)

    def diagonal_entries(self):
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))


def det(M: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination, rescaled lazily.

    A row with a zero in the pivot column is left alone, and ``lag[i]`` keeps
    the pivot current at its last update: its true Bareiss row is
    ``a[i] * prev // lag[i]``, so its next update divides by ``lag[i]``,
    exactly, because the true entries are integer minors."""
    if M.nrows != M.ncols:
        raise InputError("determinant of a non-square matrix")
    n = M.nrows
    if n == 0:
        return 1
    a = [list(r) for r in M.rows]
    lag = [1] * n
    sign = prev = 1
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
    return [j for j, x in enumerate(row[lo:], lo) if x]


def smith_normal_form(M: IntMatrix):
    """Smith normal form with transforms: returns (D, U, V) with U*M*V = D.

    D is diagonal with nonnegative entries d_i satisfying d_i | d_{i+1};
    U and V are unimodular.  Pivot choice is deterministic (smallest
    absolute value, ties by row-major position) so outputs are stable.
    """
    m, n = M.nrows, M.ncols
    a = [list(r) for r in M.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    vt = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # V transposed

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(t, j):
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
        return pi, next(j for j in range(t, n) if abs(a[pi][j]) == best)

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
            if len(rows) == 1 and not any(at[j] for j in cols[1:]):
                break
            # residues remain; re-pick a strictly smaller pivot

    def fix_pair(t, s):
        # replace diag entries (a_t, a_s) by (gcd, +-lcm); only rows/cols
        # t and s are touched and they carry no other nonzero entries
        add_col(s, t, 1, [s], _support(vt[s]))
        while a[s][t] != 0:
            add_row(s, t, -(a[t][t] // a[s][t]), _support(a[s], t), _support(u[s]))
            swap_rows(t, s)
        if a[t][s] != 0:
            add_col(t, s, -(a[t][s] // a[t][t]), [t], _support(vt[t]))

    # zero diagonal entries trail (the block is zero once no pivot is
    # found, and fix_pair keeps both entries nonzero), so dt == 0 means ds == 0
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
    U = IntMatrix._trusted(m, m, tuple(map(tuple, u)))
    V = IntMatrix._trusted(n, n, tuple(zip(*vt)))
    if det(U) not in (1, -1) or det(V) not in (1, -1):
        raise AssertionError("transform matrices lost unimodularity")
    return D, U, V


def invariant_factors(M: IntMatrix):
    """Nonzero diagonal of the Smith form."""
    D, _, _ = smith_normal_form(M)
    return tuple(d for d in D.diagonal_entries() if d != 0)


def int_solve(M: IntMatrix, b):
    """One integer solution of Mx = b, or None when unsolvable."""
    return snf_solve(smith_normal_form(M), b)


def snf_solve(snf, b):
    """``int_solve`` from M's Smith form (D, U, V): one audited SNF, many right-hand sides."""
    D, U, V = snf
    b = list(b)
    if len(b) != D.nrows:
        raise InputError("right-hand side length mismatch")
    y = [0] * D.ncols
    for i, c in enumerate(U.mul_vec(b)):
        d = D[i, i] if i < D.ncols else 0
        if (c % d if d else c) != 0:
            return None
        if d:
            y[i] = c // d
    return V.mul_vec(y)


def int_kernel_basis(M: IntMatrix):
    """Basis of the integer kernel of M (columns of V over zero diagonals)."""
    D, _, V = smith_normal_form(M)
    return [col for j, col in enumerate(V.transpose().rows) if j >= D.nrows or D[j, j] == 0]

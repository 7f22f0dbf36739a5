"""Quadratic refinements of the mod-2 intersection form of a surface.

Z2-valued forms refine by q(x+y) = q(x) + q(y) + x.y and carry the Arf
invariant; Z4-valued forms refine by q(x+y) = q(x) + q(y) + 2(x.y) and
carry the Brown invariant, the direction of their Gauss sum.  Both are
read off one orthogonal splitting in polynomial time.  Loop data (counts,
linking numbers, crossing counts with a distinguished curve) feeds the
two closed formulas that produce such forms on the real part of a surface.
"""

from __future__ import annotations

from .errors import InputError, Record
from .gf2 import Gf2Matrix, bits_of


def _check_gram(gram: Gf2Matrix):
    if gram.nrows != gram.ncols:
        raise InputError("intersection Gram matrix must be square")
    if not gram.is_symmetric():
        raise InputError("intersection Gram matrix must be symmetric")


class QForm2(Record):
    """Z2-valued quadratic form on a GF(2) space with a fixed pairing.

    The law q(x+y) = q(x) + q(y) + x.y is consistent only over an even
    pairing (substitute y = x), so the Gram diagonal must vanish.
    """

    __slots__ = ("gram", "values")

    def __init__(self, gram: Gf2Matrix, values):
        _check_gram(gram)
        if gram.diagonal_vector() != 0:
            raise InputError("Z2 quadratic refinements require an even pairing")
        values = tuple(int(v) for v in values)
        if len(values) != gram.nrows:
            raise InputError("need one basis value per dimension")
        if any(v not in (0, 1) for v in values):
            raise InputError("Z2 form values must be 0 or 1")
        super().__init__(gram, values)

    @property
    def dimension(self) -> int:
        return self.gram.nrows


class QForm4(Record):
    """Z4-valued quadratic form; basis values must refine the pairing."""

    __slots__ = ("gram", "values")

    def __init__(self, gram: Gf2Matrix, values):
        _check_gram(gram)
        values = tuple(int(v) % 4 for v in values)
        if len(values) != gram.nrows:
            raise InputError("need one basis value per dimension")
        for i, v in enumerate(values):
            if v % 2 != gram[i, i]:
                raise InputError(
                    f"parity violation at basis vector {i}: q = {v} but self-pairing "
                    f"is {gram[i, i]}"
                )
        super().__init__(gram, values)

    dimension = QForm2.dimension


def _expand(q, x: int, scale: int) -> int:
    """q(x) through the quadratic law, one basis vector at a time, unreduced;
    the Gram is symmetric, so pairing e_i with the running class is row i."""
    if x >> q.dimension:
        raise InputError("class vector has too many coordinates")
    rows, values = q.gram.rows, q.values
    total = acc = 0
    while x:
        i = (x & -x).bit_length() - 1
        x &= x - 1
        total += values[i] + scale * ((rows[i] & acc).bit_count() & 1)
        acc |= 1 << i
    return total


def evaluate_q2(q: QForm2, x: int) -> int:
    """Value on a class, expanded through the quadratic law."""
    return _expand(q, x, 1) & 1


def evaluate_q4(q: QForm4, x: int) -> int:
    """Value on a class in Z4, expanded through the quadratic law."""
    return _expand(q, x, 2) & 3


def _orthogonal_blocks(gram: Gf2Matrix, values):
    """Split a Z4-valued form into orthogonal blocks (a, q(a), c, q(c)).

    c != 0: an even hyperbolic pair, b(a, c) = 1; c == 0: a rank-1 block
    when q(a) is odd, else a lies in the radical of what is left.  Each
    working vector travels with its Gram image G.x and its value, so a
    pairing is one AND and a popcount, and projecting the rest onto the
    complement of a block is XOR plus q(y + x) = q(y) + q(x) + 2 b(y, x).
    Odd vectors go first; with none left the first vector pairs with its
    first partner, which on an even pairing is the greedy symplectic basis
    with lowest-index tie-breaks.  A Z2 form enters with values doubled.
    """
    xs = [1 << i for i in range(gram.nrows)]
    gs = list(gram.rows)
    qs = list(values)
    while xs:
        i = next((i for i, v in enumerate(qs) if v & 1), 0)
        a, ga, qa = xs.pop(i), gs.pop(i), qs.pop(i)
        if qa & 1:
            yield a, qa, 0, 0
            for j, y in enumerate(xs):
                if (y & ga).bit_count() & 1:  # y -> y + a
                    xs[j] = y ^ a
                    gs[j] ^= ga
                    qs[j] = (qs[j] + qa + 2) & 3
            continue
        j = next((j for j, y in enumerate(xs) if (y & ga).bit_count() & 1), None)
        if j is None:
            yield a, qa, 0, 0
            continue
        c, gc, qc = xs.pop(j), gs.pop(j), qs.pop(j)
        yield a, qa, c, qc
        for j, y in enumerate(xs):
            # y -> y + s a + t c, where q gains s q(a) + t q(c) + 2 s t
            s = (y & gc).bit_count() & 1
            t = (y & ga).bit_count() & 1
            if s | t:
                xs[j] = y ^ (-s & a) ^ (-t & c)
                gs[j] ^= (-s & ga) ^ (-t & gc)
                qs[j] = (qs[j] + s * qa + t * qc + 2 * (s & t)) & 3


def arf(q: QForm2) -> int:
    """Arf invariant: sum of q(a_i) q(b_i) over a symplectic basis, read
    off the splitting pass, where a pair counts when both doubled values are 2.
    A ``QForm2`` Gram is even and cannot be reassigned, so no odd check is
    needed: a vector without a partner means the pairing is degenerate."""
    total = 0
    for _, qa, c, qc in _orthogonal_blocks(q.gram, [2 * v for v in q.values]):
        if not c:
            raise InputError("pairing is degenerate: no symplectic partner found")
        total += qa & qc
    return (total >> 1) & 1


def brown(q: QForm4) -> int:
    """Brown invariant in Z8: the direction of the Gauss sum of i^q(x).

    The sum is multiplicative over orthogonal sums, so one splitting pass
    reads it in O(n^3 / w) word operations: a rank-1 block with q = 1 or 3
    has sum 1 + i or 1 - i (+1 or -1), an even hyperbolic pair -2 when
    q = 2 on both vectors (+4) and 2 otherwise, a radical vector 2 when
    q = 0 and 0 when q = 2, which leaves the invariant undefined.
    """
    total = 0
    for _, qa, c, qc in _orthogonal_blocks(q.gram, q.values):
        if c:
            total += 4 if qa == qc == 2 else 0
        elif qa & 1:
            total += 2 - qa
        elif qa:
            raise InputError(
                "Gauss sum vanishes: q is nonzero on the radical of the pairing"
            )
    return total % 8


class LoopData(Record):
    """Loop count, per-loop linking numbers, and crossing count with RC."""

    __slots__ = ("k", "lambdas", "rc_intersections")

    def __init__(self, k, lambdas, rc_intersections=0):
        super().__init__(k, tuple(int(x) & 1 for x in lambdas), rc_intersections)
        if len(self.lambdas) != self.k:
            raise InputError(f"expected {self.k} linking numbers, got {len(self.lambdas)}")
        if self.rc_intersections < 0:
            raise InputError("crossing count cannot be negative")


def spin_value_from_loops(d: LoopData) -> int:
    """Loop count plus total linking, mod 2."""
    return (d.k + sum(d.lambdas)) % 2


def pin_value_from_loops(d: LoopData) -> int:
    """Twice the linking sum plus twice the loop count plus crossings, mod 4."""
    return (2 * sum(d.lambdas) + 2 * d.k + d.rc_intersections) % 4


class LoopTable(Record):
    """Per-basis loop data plus optional redundant entries for cross-checks."""

    # kind: "spin" | "pin"; checks: pairs (class bits, LoopData)
    __slots__ = ("kind", "gram", "entries", "checks")

    def __init__(self, kind, gram, entries, checks=()):
        super().__init__(kind, gram, entries, checks)
        if self.kind not in ("spin", "pin"):
            raise InputError(f"unknown loop table kind {self.kind!r}")
        if len(self.entries) != self.gram.nrows:
            raise InputError("need one loop entry per basis class")


def qform_from_loop_table(table: LoopTable):
    """Assemble the quadratic form a loop table describes.

    Spin tables produce a QForm2, pin tables a QForm4.  Redundant entries
    for non-basis classes are evaluated through the quadratic law and must
    agree with their own formula value; a mismatch means the linking data
    is not consistent with any quadratic form and is rejected.
    """
    if table.kind == "spin":
        values = [spin_value_from_loops(d) for d in table.entries]
        q = QForm2(table.gram, values)
        evaluate = evaluate_q2
        formula = spin_value_from_loops
    else:
        values = [pin_value_from_loops(d) for d in table.entries]
        q = QForm4(table.gram, values)
        evaluate = evaluate_q4
        formula = pin_value_from_loops
    for cls, data in table.checks:
        expected = formula(data)
        got = evaluate(q, cls)
        if got != expected:
            raise InputError(
                f"redundant entry for class {bits_of(cls, q.dimension)} evaluates to "
                f"{got} but its loop data gives {expected}: inconsistent linking data"
            )
    return q

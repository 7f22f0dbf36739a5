"""Quadratic refinements of the mod-2 intersection form of a surface.

Z2-valued forms refine by q(x+y) = q(x) + q(y) + x.y and carry the Arf
invariant; Z4-valued forms refine by q(x+y) = q(x) + q(y) + 2(x.y) and
carry the Brown invariant, computed here by an exact Gauss sum in the
Gaussian integers.  Loop data (counts, linking numbers, crossing counts
with a distinguished curve) feeds the two closed formulas that produce
such forms on the real part of a surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .gf2 import Gf2Matrix, bits_of

BROWN_MAX_DIM = 16  # the Gauss sum enumerates 2^n classes


def _check_gram(gram: Gf2Matrix):
    if gram.nrows != gram.ncols:
        raise InputError("intersection Gram matrix must be square")
    if not gram.is_symmetric():
        raise InputError("intersection Gram matrix must be symmetric")


class QForm2:
    """Z2-valued quadratic form on a GF(2) space with a fixed pairing.

    The law q(x+y) = q(x) + q(y) + x.y is consistent only over an even
    pairing (substitute y = x), so the Gram diagonal must vanish.
    """

    __slots__ = ("dimension", "gram", "values")

    def __init__(self, gram: Gf2Matrix, values):
        _check_gram(gram)
        if gram.diagonal_vector() != 0:
            raise InputError("Z2 quadratic refinements require an even pairing")
        values = tuple(int(v) for v in values)
        if len(values) != gram.nrows:
            raise InputError("need one basis value per dimension")
        if any(v not in (0, 1) for v in values):
            raise InputError("Z2 form values must be 0 or 1")
        self.dimension = gram.nrows
        self.gram = gram
        self.values = values

    def pairing(self, x: int, y: int) -> int:
        return (self.gram.mul_vec(y) & x).bit_count() & 1


class QForm4:
    """Z4-valued quadratic form; basis values must refine the pairing."""

    __slots__ = ("dimension", "gram", "values")

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
        self.dimension = gram.nrows
        self.gram = gram
        self.values = values

    def pairing(self, x: int, y: int) -> int:
        return (self.gram.mul_vec(y) & x).bit_count() & 1


def evaluate_q2(q: QForm2, x: int) -> int:
    """Value on a class, expanded through the quadratic law."""
    if x >> q.dimension:
        raise InputError("class vector has too many coordinates")
    total = 0
    acc = 0
    xx = x
    while xx:
        i = (xx & -xx).bit_length() - 1
        xx &= xx - 1
        total = (total + q.values[i] + q.pairing(acc, 1 << i)) & 1
        acc |= 1 << i
    return total


def evaluate_q4(q: QForm4, x: int) -> int:
    """Value on a class in Z4, expanded through the quadratic law."""
    if x >> q.dimension:
        raise InputError("class vector has too many coordinates")
    total = 0
    acc = 0
    xx = x
    while xx:
        i = (xx & -xx).bit_length() - 1
        xx &= xx - 1
        total = (total + q.values[i] + 2 * q.pairing(acc, 1 << i)) % 4
        acc |= 1 << i
    return total


def symplectic_basis(gram: Gf2Matrix):
    """Symplectic basis (a_1, b_1, ..., a_g, b_g) of an even nondegenerate form.

    Greedy pivoting with lowest-index tie-breaks; raises on odd or
    degenerate pairings.
    """
    n = gram.nrows
    if gram.diagonal_vector() != 0:
        raise InputError("pairing is odd: no symplectic basis exists")

    def pair(x, y):
        return (gram.mul_vec(y) & x).bit_count() & 1

    remaining = [1 << i for i in range(n)]
    pairs = []
    while remaining:
        a = remaining[0]
        partner = None
        for j, cand in enumerate(remaining[1:], start=1):
            if pair(a, cand):
                partner = j
                break
        if partner is None:
            raise InputError("pairing is degenerate: no symplectic partner found")
        b = remaining.pop(partner)
        remaining.pop(0)
        remaining = [
            g ^ (pair(g, b) and a) ^ (pair(g, a) and b) for g in remaining
        ]
        remaining = [g for g in remaining if g]
        pairs.append((a, b))
    return pairs


def arf(q: QForm2) -> int:
    """Arf invariant: sum of q(a_i) q(b_i) over a symplectic basis."""
    pairs = symplectic_basis(q.gram)
    total = 0
    for a, b in pairs:
        total ^= evaluate_q2(q, a) & evaluate_q2(q, b)
    return total


def brown(q: QForm4) -> int:
    """Brown invariant in Z8 via the exact Gauss sum.

    Sums i^q(x) over all classes using integer pairs (re, im); the result
    must have squared modulus 2^n and lie in one of the eight directions,
    anything else signals data that is not a quadratic refinement.
    """
    n = q.dimension
    if n > BROWN_MAX_DIM:
        raise InputError(f"Gauss sum limited to dimension {BROWN_MAX_DIM}")
    # Gray-code walk keeps each step to one quadratic-law update
    rows, values = q.gram.rows, q.values
    counts = [1, 0, 0, 0]  # classes per value of q; x = 0 has q = 0
    val = 0
    acc = 0
    for g in range(1, 1 << n):
        i = (g & -g).bit_length() - 1  # the bit where codes g - 1 and g differ
        # q(acc + e_i) = q(acc) + q(e_i) + 2 pairing(acc, e_i); the Gram
        # matrix is symmetric, so the pairing with e_i is row i against acc
        val = (val + values[i] + 2 * ((rows[i] & acc).bit_count() & 1)) & 3
        acc ^= 1 << i
        counts[val] += 1
    re, im = counts[0] - counts[2], counts[1] - counts[3]
    norm = re * re + im * im
    if norm == 0:
        raise InputError(
            "Gauss sum vanishes: the values are not those of a quadratic form"
        )
    if norm & (norm - 1):
        raise InputError(
            "Gauss sum modulus is not a power of two: input is not a quadratic form"
        )
    return _direction_eighth(re, im)


def _direction_eighth(re: int, im: int) -> int:
    if im == 0:
        return 0 if re > 0 else 4
    if re == 0:
        return 2 if im > 0 else 6
    if abs(re) != abs(im):
        raise InputError("Gauss sum points off the eight lattice directions")
    if re > 0:
        return 1 if im > 0 else 7
    return 3 if im > 0 else 5


@dataclass(frozen=True)
class LoopData:
    """Loop count, per-loop linking numbers, and crossing count with RC."""

    k: int
    lambdas: tuple
    rc_intersections: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(int(x) & 1 for x in self.lambdas))
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


@dataclass(frozen=True)
class LoopTable:
    """Per-basis loop data plus optional redundant entries for cross-checks."""

    kind: str  # "spin" | "pin"
    gram: Gf2Matrix
    entries: tuple
    checks: tuple = ()  # pairs (class bits, LoopData)

    def __post_init__(self):
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

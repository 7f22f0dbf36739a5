"""Integer middle-homology data of a surface: lattice, isometry, transfer.

The lattice side never computes quotient-space homology; push/pull data
for the quotient projection comes with the lattice and is audited against
the identities it must satisfy (composition is multiplication by two,
injectivity, invariance of the image, divisibility of doubled invariant
classes).  Doubling carries the rest: pull x = 0 gives 2x = push(pull x)
= 0, so pull is injective, and beta = pull(delta) gives push(beta) =
2 delta, so beta lies in the image of pull exactly when
pull(push(beta) // 2) = beta.  No Smith form of pull is needed.

Kharlamov's congruence (section 2.3: chi = 0 mod 8 for a bounding type I_abs
surface with trivial H_1) is Euler-characteristic arithmetic, so it is here;
``conjtop.intmat`` is imported where it is used, which the congruence never is.
"""

from __future__ import annotations

from .errors import InputError, ModelIntegrityError, Record
from .gf2 import BilinearFormGF2


class QuotientTransferData(Record):
    """Push/pull matrices along the double projection, carried by a lattice."""

    # p_pull: quotient -> ambient, the transfer (inverse Hopf) map; p_push the other way
    __slots__ = ("quotient_rank", "p_pull", "p_push")


class IntegerLattice(Record):
    """Unimodular-free integer lattice with an involutive isometry."""

    __slots__ = ("rank", "gram", "isometry", "marks", "presentation", "chi_real", "transfer")

    def __init__(self, rank, gram, isometry, marks=None, presentation=None, chi_real=None,
                 transfer=None):
        super().__init__(rank, gram, isometry, {} if marks is None else marks, presentation,
                         chi_real, transfer)

    def pairing(self, x, y) -> int:
        return sum(a * b for a, b in zip(x, self.gram.mul_vec(y)))


def build_lattice(
    gram: IntMatrix,
    isometry: IntMatrix,
    marks=None,
    presentation: IntMatrix | None = None,
    chi_real: int | None = None,
    transfer: QuotientTransferData | None = None,
) -> IntegerLattice:
    """Validate and assemble lattice data; every failed identity is named."""
    from .intmat import IntMatrix, integer_vector

    n = gram.nrows
    if gram.ncols != n:
        raise InputError("Gram matrix must be square")
    if not gram.is_symmetric():
        raise InputError("Gram matrix must be symmetric")
    if (isometry.nrows, isometry.ncols) != (n, n):
        raise InputError("isometry has the wrong shape")
    if isometry * isometry != IntMatrix.identity(n):
        raise InputError("isometry does not square to the identity")
    if isometry.transpose() * gram * isometry != gram:
        raise InputError("supplied map is not an isometry of the Gram matrix")
    marks = dict(marks or {})
    for name, vec in marks.items():
        vec = integer_vector(vec, f"marked class {name!r}")
        if len(vec) != n:
            raise InputError(f"marked class {name!r} has length {len(vec)}, rank is {n}")
        marks[name] = vec
    if transfer is not None:
        q = transfer.quotient_rank
        if (transfer.p_pull.nrows, transfer.p_pull.ncols) != (n, q):
            raise InputError("transfer pull matrix has the wrong shape")
        if (transfer.p_push.nrows, transfer.p_push.ncols) != (q, n):
            raise InputError("transfer push matrix has the wrong shape")
    return IntegerLattice(n, gram, isometry, marks, presentation, chi_real, transfer)


def invariant_sublattices(L: IntegerLattice):
    """Integer bases of ker(T - I) and ker(T + I)."""
    from .intmat import IntMatrix, int_kernel_basis

    T, I = L.isometry, IntMatrix.identity(L.rank)
    return tuple(int_kernel_basis(T - I)), tuple(int_kernel_basis(T + I))


def conj_form_mod2(L: IntegerLattice) -> BilinearFormGF2:
    """Reduction mod 2 of the twisted pairing (x, y) -> x . T(y)."""
    return BilinearFormGF2((L.gram * L.isometry).mod2())


def _doubling_transfer(L: IntegerLattice) -> QuotientTransferData:
    """The lattice's transfer data, once push after pull is checked to be doubling."""
    from .intmat import IntMatrix

    Q = L.transfer
    if Q is None:
        raise InputError("the lattice carries no transfer data")
    comp = Q.p_push * Q.p_pull
    if comp != IntMatrix.identity(Q.quotient_rank).scale(2):
        raise ModelIntegrityError("push after pull is not multiplication by 2",
                                  report={"composition": comp})
    return Q


def transfer_audit(L: IntegerLattice) -> dict:
    """Verify the push/pull identities of the lattice's transfer data.

    Checks, each by exact matrix arithmetic: push after pull is doubling,
    the image of pull is invariant, and twice any invariant class alpha lies
    in the image of pull, which under doubling reads pull(push(alpha)) =
    2 alpha.  Injectivity of pull follows from doubling.  The only Smith
    form is that of T - I, for the invariant classes.
    """
    from .intmat import IntMatrix, int_kernel_basis

    Q = _doubling_transfer(L)
    T_minus_I = L.isometry - IntMatrix.identity(L.rank)
    fixed = T_minus_I * Q.p_pull
    if any(any(e != 0 for e in row) for row in fixed.rows):
        raise ModelIntegrityError("image of pull is not invariant under the isometry",
                                  report={"defect": fixed})
    invariant = int_kernel_basis(T_minus_I)
    for alpha in invariant:
        if Q.p_pull.mul_vec(Q.p_push.mul_vec(alpha)) != tuple(2 * a for a in alpha):
            raise ModelIntegrityError("twice an invariant class escapes the image of pull",
                                      report={"alpha": alpha})
    return {"composition_is_doubling": True, "pull_injective": True, "image_invariant": True,
            "doubled_invariants_in_image": True, "invariant_rank": len(invariant)}


def orientation_class_check(L: IntegerLattice, alpha) -> bool:
    """Is alpha twice a pulled-back class?  Exactly the complex orientations are.

    Once push after pull is checked to be doubling, alpha = 2 pull(delta)
    forces push(alpha) = 4 delta, so alpha is such a class exactly when
    2 pull(push(alpha) // 4) = alpha.  False is a legitimate verdict, not
    an error.
    """
    from .intmat import integer_vector

    Q = _doubling_transfer(L)
    alpha = integer_vector(alpha, "class vector")
    if len(alpha) != L.rank:
        raise InputError("class vector has the wrong length")
    delta = [p // 4 for p in Q.p_push.mul_vec(alpha)]
    return tuple(2 * b for b in Q.p_pull.mul_vec(delta)) == alpha


def order_obstruction(L: IntegerLattice, d: int, beta) -> "ObstructionVerdict":
    """Odd order forbids bounding, as a witness validated exactly over Z shows.

    ``beta`` must be invariant under the isometry with self-pairing d; then
    beta . tau(beta) = d, so for odd d the form ``conj_form_mod2(L)`` is odd.
    """
    from .intmat import integer_vector
    from .smith import ObstructionVerdict

    beta = integer_vector(beta, "witness vector")
    if len(beta) != L.rank:
        raise InputError("witness vector has the wrong length")
    if L.isometry.mul_vec(beta) != beta:
        raise InputError("witness is not invariant under the isometry")
    self_pairing = L.pairing(beta, beta)
    if self_pairing != d:
        raise InputError(
            f"witness validation failed: self-pairing {self_pairing}, expected {d}"
        )
    if d % 2 == 1:
        return ObstructionVerdict(True, "odd order cannot bound in complexification", beta)
    return ObstructionVerdict(False, "no obstruction from parity", None)


def torsion_audit(L: IntegerLattice) -> dict:
    """Check the absence of 2-torsion where a presentation permits.

    With no presentation matrix the audit records the assumption instead
    of proving it.  Odd torsion is harmless for mod-2 arguments and
    passes; an even invariant factor flags every transfer-based check as
    unsound for this input.
    """
    from .intmat import invariant_factors

    if L.presentation is None:
        return {"checked": False, "assumption": "no 2-torsion (presentation not supplied)"}
    factors = invariant_factors(L.presentation)
    even = [f for f in factors if f % 2 == 0]
    if even:
        raise ModelIntegrityError(
            "2-torsion present: transfer-based checks are unsound for this input",
            report={"invariant_factors": factors},
        )
    return {"checked": True, "invariant_factors": factors}


def alpha_chi_cross_check(L: IntegerLattice) -> dict | None:
    """Self-pairing of the marked orientation class against -chi, when both exist."""
    if L.chi_real is None or "alpha" not in L.marks:
        return None
    alpha = L.marks["alpha"]
    self_pairing = L.pairing(alpha, alpha)
    ok = self_pairing == -L.chi_real
    if not ok:
        raise ModelIntegrityError(
            "marked orientation class has self-pairing "
            f"{self_pairing}, expected { -L.chi_real}",
            report={"alpha": alpha, "chi": L.chi_real},
        )
    return {"self_pairing": self_pairing, "chi": L.chi_real}


class KharlamovTrace(Record):
    # self_intersection_ambient is -chi; the quotient's doubles it, per the covering argument
    __slots__ = ("chi", "self_intersection_ambient", "self_intersection_quotient",
                 "divisible_by_16", "applicable", "passes")


def kharlamov_congruence(chi: int, kind, h1_trivial: bool) -> KharlamovTrace:
    """Euler characteristic congruence mod 8 for bounding real surfaces.

    Applicable to type I_abs with trivial first mod-2 homology of the
    complexification.  The trace follows the 4-fold covering argument:
    the self-intersection downstairs is -chi, doubling into the quotient,
    where divisibility by 16 is forced; hence chi = 0 mod 8.  A violation
    is a model-integrity error carrying the trace.
    """
    if not isinstance(kind, str):
        from .involutions import TypeVerdict

        kind = kind.kind if isinstance(kind, TypeVerdict) else kind
    if kind not in ("I_abs", "I_rel", "II"):
        raise InputError(f"unknown type {kind!r}")
    applicable = kind == "I_abs" and h1_trivial
    s_ca = -chi
    s_quot = 2 * s_ca
    divisible = s_quot % 16 == 0
    passes = (not applicable) or chi % 8 == 0
    trace = KharlamovTrace(chi, s_ca, s_quot, divisible, applicable, passes)
    if applicable and not passes:
        raise ModelIntegrityError(
            f"Euler characteristic {chi} is not divisible by 8 for a bounding surface",
            report=trace,
        )
    return trace

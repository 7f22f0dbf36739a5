import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conjtop.intmat
from conftest import int_solve, snf_solve
from conjtop.cli import main
from conjtop.errors import InputError, ModelIntegrityError
from conjtop.gf2 import Gf2Matrix, characteristic_class, is_even
from conjtop.intmat import IntMatrix, int_kernel_basis, smith_normal_form
from conjtop.lattices import (
    IntegerLattice,
    QuotientTransferData,
    alpha_chi_cross_check,
    build_lattice,
    conj_form_mod2,
    invariant_sublattices,
    order_obstruction,
    orientation_class_check,
    torsion_audit,
    transfer_audit,
)
from conjtop.modelfile import parse_model
from conjtop.modelsections import format_model

HYP = IntMatrix([[0, 1], [1, 0]])
SWAP = IntMatrix([[0, 1], [1, 0]])


def test_build_lattice_quadric():
    L = build_lattice(HYP, SWAP)
    assert L.rank == 2


def test_build_rejects_non_isometry():
    T = IntMatrix([[1, 1], [0, -1]])
    assert T * T == IntMatrix.identity(2)
    with pytest.raises(InputError, match="isometry"):
        build_lattice(IntMatrix.identity(2).scale(3), T)


def test_build_rejects_non_involution():
    T = IntMatrix([[0, -1], [1, 0]])
    with pytest.raises(InputError, match="square"):
        build_lattice(HYP, T)


def test_invariant_sublattices_quadric(library):
    L = library.lattices["quadric_lattice"]
    plus, minus = invariant_sublattices(L)
    assert len(plus) == 1 and len(minus) == 1
    (p,) = plus
    (m,) = minus
    assert p[0] == p[1] != 0  # spans (1, 1)
    assert m[0] == -m[1] != 0  # spans (1, -1)


def test_invariant_sublattices_identity_cases():
    L = build_lattice(HYP, IntMatrix.identity(2))
    plus, minus = invariant_sublattices(L)
    assert len(plus) == 2 and len(minus) == 0
    L2 = build_lattice(HYP, IntMatrix.identity(2).scale(-1))
    plus2, minus2 = invariant_sublattices(L2)
    assert len(plus2) == 0 and len(minus2) == 2


def test_conj_form_mod2_quadric(library):
    L = library.lattices["quadric_lattice"]
    B = conj_form_mod2(L)
    assert B.gram == Gf2Matrix.identity(2)
    assert characteristic_class(B) == 0b11
    assert not is_even(B)


def test_conj_form_mod2_t4(library):
    L = library.lattices["t4_lattice"]
    B = conj_form_mod2(L)
    assert is_even(B)
    assert characteristic_class(B) == 0


def test_conj_form_with_identity_is_gram():
    L = build_lattice(HYP, IntMatrix.identity(2))
    assert conj_form_mod2(L).gram == Gf2Matrix.from_rows([[0, 1], [1, 0]])
    assert is_even(conj_form_mod2(L))


def test_transfer_audit_quadric(library):
    L = library.lattices["quadric_lattice"]
    report = transfer_audit(L)
    assert report["composition_is_doubling"]
    assert report["pull_injective"]
    assert report["image_invariant"]
    assert report["doubled_invariants_in_image"]
    assert report["invariant_rank"] == 1


def test_transfer_audit_rejects_wrong_composition():
    bad = QuotientTransferData(1, IntMatrix([[1], [1]]), IntMatrix([[1, 2]]))
    L = build_lattice(HYP, SWAP, transfer=bad)
    with pytest.raises(ModelIntegrityError, match="multiplication by 2"):
        transfer_audit(L)


def test_orientation_class_check_requires_doubling():
    """The membership test relies on push after pull being doubling, so it
    checks that first: without it, (2, 2) = 2 pull(push(2, 2) // 4) here."""
    bad = QuotientTransferData(1, IntMatrix([[1], [1]]), IntMatrix([[1, 2]]))
    L = build_lattice(HYP, SWAP, transfer=bad)
    with pytest.raises(ModelIntegrityError, match="multiplication by 2"):
        orientation_class_check(L, (2, 2))


def test_transfer_audit_rejects_non_injective_pull():
    bad = QuotientTransferData(1, IntMatrix([[0], [0]]), IntMatrix([[1, 1]]))
    L = build_lattice(HYP, SWAP, transfer=bad)
    with pytest.raises(ModelIntegrityError):
        transfer_audit(L)


def test_transfer_audit_rejects_non_invariant_image():
    gram = IntMatrix.identity(2)
    T = IntMatrix.diagonal([1, -1])
    bad = QuotientTransferData(1, IntMatrix([[0], [1]]), IntMatrix([[0, 2]]))
    L = build_lattice(gram, T, transfer=bad)
    with pytest.raises(ModelIntegrityError, match="invariant"):
        transfer_audit(L)


def test_transfer_audits_read_the_lattice_transfer_only():
    L = build_lattice(HYP, SWAP)
    for audit in (lambda: transfer_audit(L), lambda: orientation_class_check(L, (2, 2))):
        with pytest.raises(InputError, match="carries no transfer data"):
            audit()


def test_orientation_class_check_quadric(library):
    L = library.lattices["quadric_lattice"]
    assert orientation_class_check(L, (0, 0))
    assert orientation_class_check(L, (2, 2))
    assert orientation_class_check(L, (-2, -2))
    assert not orientation_class_check(L, (1, 1))
    assert not orientation_class_check(L, (2, 0))


def test_orientation_class_symmetry(library):
    L = library.lattices["quadric_lattice"]
    for alpha in ((2, 2), (4, 4), (0, 0)):
        a = orientation_class_check(L, alpha)
        b = orientation_class_check(L, tuple(-x for x in alpha))
        assert a == b


def test_order_obstruction():
    gram = IntMatrix([[3]])
    L = build_lattice(gram, IntMatrix.identity(1))
    verdict = order_obstruction(L, 3, (1,))
    assert verdict.obstructed and verdict.witness == (1,)
    gram4 = IntMatrix([[4]])
    L4 = build_lattice(gram4, IntMatrix.identity(1))
    assert not order_obstruction(L4, 4, (1,)).obstructed


def test_order_obstruction_validation():
    L = build_lattice(IntMatrix([[3]]), IntMatrix.identity(1))
    with pytest.raises(InputError, match="self-pairing"):
        order_obstruction(L, 5, (1,))
    L2 = build_lattice(IntMatrix.identity(2), IntMatrix.diagonal([1, -1]))
    with pytest.raises(InputError, match="invariant"):
        order_obstruction(L2, 1, (0, 1))


@pytest.mark.parametrize("entry", [0.9, 1.7, 2.5, 2.0, "2"])
def test_lattice_vectors_that_are_not_integral_are_refused(library, entry):
    """A class vector, a witness or a mark is never truncated: a float or a
    string, even one with an integer value, is a one-line InputError."""
    L = library.lattices["quadric_lattice"]
    checks = [(lambda: orientation_class_check(L, [entry, entry]), "class vector entry"),
              (lambda: order_obstruction(L, 2, [entry, entry]), "witness vector entry"),
              (lambda: build_lattice(HYP, SWAP, {"alpha": (entry, entry)}),
               "marked class 'alpha' entry")]
    for call, text in checks:
        with pytest.raises(InputError, match=text) as err:
            call()
        assert "\n" not in str(err.value)
    assert not orientation_class_check(L, [True, True])  # a bool reads as 1
    assert order_obstruction(L, 2, (True, 1)).obstructed is False
    assert build_lattice(HYP, SWAP, {"alpha": [2, 2]}).marks == {"alpha": (2, 2)}


def test_torsion_audit_free_lattice(library):
    L = library.lattices["quadric_lattice"]
    rep = torsion_audit(L)
    assert not rep["checked"]


def test_torsion_audit_with_presentation():
    L = build_lattice(HYP, SWAP, presentation=IntMatrix([[3, 0], [0, 1]]))
    rep = torsion_audit(L)
    assert rep["checked"]
    L2 = build_lattice(HYP, SWAP, presentation=IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ModelIntegrityError, match="2-torsion"):
        torsion_audit(L2)


def test_alpha_chi_cross_check(library):
    L = library.lattices["t4_lattice"]
    rep = alpha_chi_cross_check(L)
    assert rep == {"self_pairing": 0, "chi": 0}
    quad = library.lattices["quadric_lattice"]
    assert alpha_chi_cross_check(quad) is None  # no chi marked


def test_alpha_chi_cross_check_violation():
    L = build_lattice(HYP, SWAP, marks={"alpha": (1, 1)}, chi_real=4)
    with pytest.raises(ModelIntegrityError):
        alpha_chi_cross_check(L)


def swap_lattice(k, seed):
    """k hyperbolic planes with the swap and the transfer pulling each
    quotient class back to (1, 1), under a seeded unimodular basis change P."""
    n = 2 * k
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    rng = random.Random(seed)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in P:  # P <- P (I + c e_j e_i^T), Pinv <- (I - c e_j e_i^T) Pinv
            row[i] += c * row[j]
        Pinv[j] = [a - c * b for a, b in zip(Pinv[j], Pinv[i])]
    P, Pinv = IntMatrix(P), IntMatrix(Pinv)
    gram = swap = IntMatrix([[int(i ^ 1 == j) for j in range(n)] for i in range(n)])
    pull = IntMatrix([[int(i // 2 == b) for b in range(k)] for i in range(n)])
    transfer = QuotientTransferData(k, Pinv * pull, pull.transpose() * P)
    return build_lattice(P.transpose() * gram * P, Pinv * swap * P, transfer=transfer)


@pytest.fixture
def snf_calls(monkeypatch):
    """The matrices of every audited Smith form made while the fixture is live."""
    seen = []

    def counting_snf(M, **transforms):
        seen.append(M)
        return smith_normal_form(M, **transforms)

    monkeypatch.setattr(conjtop.intmat, "smith_normal_form", counting_snf)
    return seen


def test_transfer_audit_factors_only_t_minus_i(snf_calls, library):
    """Doubling stands in for a Smith form of pull: the only one left is that
    of T - I, for the invariant classes."""
    cases = [library.lattices["quadric_lattice"]] + [swap_lattice(k, k) for k in (1, 2, 3, 4)]
    for L in cases:
        snf_calls.clear()
        assert transfer_audit(L) == {
            "composition_is_doubling": True,
            "pull_injective": True,
            "image_invariant": True,
            "doubled_invariants_in_image": True,
            "invariant_rank": L.rank // 2,
        }
        assert snf_calls == [L.isometry - IntMatrix.identity(L.rank)]


def test_lattice_audit_command_makes_three_smith_forms(snf_calls, library, capsys):
    """T - I and T + I for the invariant sublattices, T - I again in the
    transfer audit, and none for the orientation candidates."""
    L = library.lattices["quadric_lattice"]
    assert any(mark.startswith("cand") for mark in L.marks)
    assert main(["lattice-audit", "quadric_lattice"]) == 0
    capsys.readouterr()
    I = IntMatrix.identity(L.rank)
    assert snf_calls == [L.isometry - I, L.isometry + I, L.isometry - I]


def former_transfer_audit(L):
    """The Smith-form route the transfer identity replaced: one audited
    Smith form of pull for the injectivity check and every solve."""
    Q = L.transfer
    comp = Q.p_push * Q.p_pull
    if comp != IntMatrix.identity(Q.quotient_rank).scale(2):
        raise ModelIntegrityError("push after pull is not multiplication by 2",
                                  report={"composition": comp})
    report = {"composition_is_doubling": True}
    pull_snf = smith_normal_form(Q.p_pull, with_u=True, with_v=True)
    factors = tuple(d for d in pull_snf[0].diagonal_entries() if d != 0)
    if len(factors) != Q.quotient_rank:
        raise ModelIntegrityError("pull map is not injective", report={"factors": factors})
    report["pull_injective"] = True
    T = L.isometry
    fixed = (T - IntMatrix.identity(L.rank)) * Q.p_pull
    if any(any(e != 0 for e in row) for row in fixed.rows):
        raise ModelIntegrityError("image of pull is not invariant under the isometry",
                                  report={"defect": fixed})
    report["image_invariant"] = True
    invariant = int_kernel_basis(T - IntMatrix.identity(L.rank))
    for alpha in invariant:
        if snf_solve(pull_snf, [2 * a for a in alpha]) is None:
            raise ModelIntegrityError("twice an invariant class escapes the image of pull",
                                      report={"alpha": alpha})
    report["doubled_invariants_in_image"] = True
    report["invariant_rank"] = len(invariant)
    return report


def former_orientation_class_check(L, alpha):
    Q = L.transfer
    return all(a % 2 == 0 for a in alpha) and int_solve(Q.p_pull, [a // 2 for a in alpha]) \
        is not None


def outcome(f, *args):
    try:
        return f(*args)
    except ModelIntegrityError as e:
        return str(e), e.report


def perturbed(L, part, rng):
    """L with one entry of push, pull or T moved, with T = I, or with push or pull moved
    along a rank-one term that keeps push after pull doubling: push + u v^T
    with v^T pull = 0, or pull + x y^T with push x = 0."""
    T, Q = L.isometry, L.transfer
    n, q = L.rank, Q.quotient_rank

    def bump(M):
        rows = [list(r) for r in M.rows]
        rows[rng.randrange(M.nrows)][rng.randrange(M.ncols)] += rng.choice((-2, -1, 1, 2))
        return IntMatrix(rows, M.ncols)

    def outer(u, v):
        return IntMatrix([[a * b for b in v] for a in u], len(v))

    def kernel_vector(M):
        terms = [(rng.choice((-1, 1)), c) for c in int_kernel_basis(M)]
        return [sum(a * c[i] for a, c in terms) for i in range(M.ncols)]

    if part == "T":
        T = bump(T)
    elif part == "T=I":  # every class invariant: the doubled ones outside the image fail
        T = IntMatrix.identity(n)
    elif part == "push":
        Q = QuotientTransferData(q, Q.p_pull, bump(Q.p_push))
    elif part == "pull":
        Q = QuotientTransferData(q, bump(Q.p_pull), Q.p_push)
    elif part == "push_kernel":
        u = [rng.randint(-2, 2) for _ in range(q)]
        push = Q.p_push + outer(u, kernel_vector(Q.p_pull.transpose()))
        Q = QuotientTransferData(q, Q.p_pull, push)
    elif part == "pull_kernel":
        y = [rng.randint(-2, 2) for _ in range(q)]
        Q = QuotientTransferData(q, Q.p_pull + outer(kernel_vector(Q.p_push), y), Q.p_push)
    # built through the constructor, as a changed record must be
    return IntegerLattice(L.rank, L.gram, T, L.marks, L.presentation, L.chi_real, Q)


@given(st.integers(1, 4), st.integers(0, 10**6),
       st.sampled_from(("none", "T", "T=I", "push", "pull", "push_kernel", "pull_kernel")))
@settings(max_examples=150, deadline=None)
def test_transfer_identity_matches_the_smith_form_route(k, seed, part):
    rng = random.Random(seed)
    L = perturbed(swap_lattice(k, seed), part, rng)
    Q = L.transfer
    n = L.rank
    doubling = Q.p_push * Q.p_pull == IntMatrix.identity(k).scale(2)
    got = outcome(transfer_audit, L)
    alphas = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
    for _ in range(3):
        delta = [rng.randint(-3, 3) for _ in range(k)]
        alpha = [2 * a for a in Q.p_pull.mul_vec(delta)]
        alphas += [alpha, [a + 2 * rng.randint(-1, 1) for a in alpha]]
    if doubling:
        assert got == outcome(former_transfer_audit, L)
        for alpha in alphas:
            assert orientation_class_check(L, alpha) \
                == former_orientation_class_check(L, alpha)
    else:
        assert got[0] == "push after pull is not multiplication by 2"
        for alpha in alphas:
            with pytest.raises(ModelIntegrityError, match="not multiplication by 2"):
                orientation_class_check(L, alpha)


def test_failing_audit_names_the_same_witness():
    """T = I, pull = (1, 0)^T, push = (2, 5): doubling and invariance hold, and
    (0, 1) is the first invariant class whose double escapes the image."""
    L = build_lattice(HYP, IntMatrix.identity(2), transfer=QuotientTransferData(
        1, IntMatrix([[1], [0]]), IntMatrix([[2, 5]])))
    got = outcome(transfer_audit, L)
    assert got == outcome(former_transfer_audit, L)
    assert got == ("twice an invariant class escapes the image of pull", {"alpha": (0, 1)})


ZERO_TRANSFER_MODEL = """[lattice L]
rank 2
gram
0 1
1 0
isometry
-1 0
0 -1
transfer 0
pull
push
"""


def test_zero_rank_transfer_builds_audits_and_round_trips():
    minus = IntMatrix.diagonal([-1, -1])
    transfer = QuotientTransferData(0, IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 2))
    L = build_lattice(HYP, minus, transfer=transfer)
    assert (L.transfer.p_push.nrows, L.transfer.p_push.ncols) == (0, 2)
    assert transfer_audit(L)["invariant_rank"] == 0
    model = parse_model(ZERO_TRANSFER_MODEL)
    assert model.lattices["L"] == L
    assert format_model(model) == ZERO_TRANSFER_MODEL
    assert parse_model(format_model(model)) == model

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_sum_z2, block_sum_z4, direct_sum, random_basis, rebased
from conjtop.errors import InputError
from conjtop.gf2 import Gf2Matrix, dot, gf2_rank
from conjtop.qforms import (
    LoopData,
    LoopTable,
    QForm2,
    QForm4,
    arf,
    brown,
    evaluate_q2,
    evaluate_q4,
    pin_value_from_loops,
    qform_from_loop_table,
    spin_value_from_loops,
)

HYP = Gf2Matrix.from_rows([[0, 1], [1, 0]])


def brute_force_q2(values, gram, x, order):
    """Second expansion oracle: accumulate in an arbitrary index order."""
    total = 0
    acc = 0
    for i in order:
        if (x >> i) & 1:
            pair = (gram.mul_vec(1 << i) & acc).bit_count() & 1
            total = (total + values[i] + pair) % 2
            acc |= 1 << i
    return total


def random_symmetric(r, n, nondegenerate=False, even=False):
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = r.randint(0, 1)
            if even:
                g[i][i] = 0
        gram = Gf2Matrix.from_rows(g)
        if not nondegenerate or gf2_rank(gram) == n:
            return gram


def test_q2_zero_class():
    q = QForm2(HYP, [1, 1])
    assert evaluate_q2(q, 0) == 0


def test_q2_hyperbolic_law():
    q = QForm2(HYP, [0, 0])
    assert evaluate_q2(q, 0b11) == 1  # q(a+b) = 0 + 0 + 1


def test_q2_against_second_expansion_order():
    r = random.Random(42)
    for _ in range(100):
        n = 6
        gram = random_symmetric(r, n, even=True)
        values = [r.randint(0, 1) for _ in range(n)]
        q = QForm2(gram, values)
        x = r.getrandbits(n)
        order = list(range(n))
        r.shuffle(order)
        assert evaluate_q2(q, x) == brute_force_q2(values, gram, x, order)


@given(st.integers(1, 6), st.integers(0, 2**20), st.integers(0, 2**6 - 1),
       st.integers(0, 2**6 - 1))
@settings(max_examples=200, deadline=None)
def test_q2_quadratic_law(n, seed, x, y):
    r = random.Random(seed)
    gram = random_symmetric(r, n, even=True)
    q = QForm2(gram, [r.randint(0, 1) for _ in range(n)])
    x &= (1 << n) - 1
    y &= (1 << n) - 1
    lhs = evaluate_q2(q, x ^ y)
    rhs = (evaluate_q2(q, x) + evaluate_q2(q, y) + dot(x, q.gram.mul_vec(y))) % 2
    assert lhs == rhs


@given(st.integers(1, 6), st.integers(0, 2**20), st.integers(0, 2**6 - 1),
       st.integers(0, 2**6 - 1))
@settings(max_examples=200, deadline=None)
def test_q4_quadratic_law(n, seed, x, y):
    r = random.Random(seed)
    gram = random_symmetric(r, n)
    q = QForm4(gram, [2 * r.randint(0, 1) + gram[i, i] for i in range(n)])
    x &= (1 << n) - 1
    y &= (1 << n) - 1
    lhs = evaluate_q4(q, x ^ y)
    rhs = (evaluate_q4(q, x) + evaluate_q4(q, y) + 2 * dot(x, q.gram.mul_vec(y))) % 4
    assert lhs == rhs


def test_q4_parity_constraint_enforced():
    with pytest.raises(InputError, match="parity"):
        QForm4(Gf2Matrix.from_rows([[1]]), [0])


def test_q4_parity_of_values():
    r = random.Random(3)
    for _ in range(50):
        n = r.randint(1, 5)
        gram = random_symmetric(r, n)
        q = QForm4(gram, [2 * r.randint(0, 1) + gram[i, i] for i in range(n)])
        for x in range(1 << n):
            assert evaluate_q4(q, x) % 2 == dot(x, q.gram.mul_vec(x))


def test_arf_standard_forms():
    assert arf(QForm2(HYP, [0, 0])) == 0
    assert arf(QForm2(HYP, [1, 1])) == 1


def test_arf_additive_on_direct_sum():
    H4 = Gf2Matrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert arf(QForm2(H4, [0, 0, 1, 1])) == 1
    assert arf(QForm2(H4, [1, 1, 1, 1])) == 0


def test_arf_basis_independent():
    r = random.Random(17)
    for _ in range(60):
        g = r.randint(1, 3)
        n = 2 * g
        gram_rows = [[0] * n for _ in range(n)]
        for i in range(g):
            gram_rows[2 * i][2 * i + 1] = gram_rows[2 * i + 1][2 * i] = 1
        gram = Gf2Matrix.from_rows(gram_rows)
        values = [r.randint(0, 1) for _ in range(n)]
        q = QForm2(gram, values)
        # random invertible base change
        while True:
            P = Gf2Matrix.from_rows(
                [[r.randint(0, 1) for _ in range(n)] for _ in range(n)]
            )
            if gf2_rank(P) == n:
                break
        new_gram_rows = []
        new_vals = []
        cols = [sum(((P.rows[i] >> j) & 1) << i for i in range(n)) for j in range(n)]
        for j in range(n):
            new_vals.append(evaluate_q2(q, cols[j]))
        for i in range(n):
            row = 0
            for j in range(n):
                if dot(cols[i], q.gram.mul_vec(cols[j])):
                    row |= 1 << j
            new_gram_rows.append(row)
        q2 = QForm2(Gf2Matrix(n, n, new_gram_rows), new_vals)
        assert arf(q2) == arf(q)


def test_arf_rejects_degenerate():
    gram = Gf2Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    for values in ([0, 0, 0], [1, 1, 1]):
        with pytest.raises(InputError, match="pairing is degenerate: no symplectic partner found"):
            arf(QForm2(gram, values))


def test_q2_rejects_odd_pairing():
    with pytest.raises(InputError, match="Z2 quadratic refinements require an even pairing"):
        QForm2(Gf2Matrix.identity(2), [0, 0])


def test_brown_rank_one():
    one = Gf2Matrix.from_rows([[1]])
    assert brown(QForm4(one, [1])) == 1
    assert brown(QForm4(one, [3])) == 7


def test_brown_cancellation_and_sums():
    g2 = Gf2Matrix.identity(2)
    assert brown(QForm4(g2, [1, 3])) == 0
    g4 = Gf2Matrix.identity(4)
    assert brown(QForm4(g4, [1, 1, 1, 1])) == 4
    assert brown(QForm4(HYP, [0, 0])) == 0
    assert brown(QForm4(HYP, [2, 2])) == 4


def test_brown_additive_random_sums():
    r = random.Random(100)
    done = 0
    while done < 300:
        n1, n2 = r.randint(1, 3), r.randint(1, 3)
        g1 = random_symmetric(r, n1, nondegenerate=True)
        g2 = random_symmetric(r, n2, nondegenerate=True)
        q1 = QForm4(g1, [2 * r.randint(0, 1) + g1[i, i] for i in range(n1)])
        q2 = QForm4(g2, [2 * r.randint(0, 1) + g2[i, i] for i in range(n2)])
        rows = []
        for i in range(n1):
            rows.append([g1[i, j] for j in range(n1)] + [0] * n2)
        for i in range(n2):
            rows.append([0] * n1 + [g2[i, j] for j in range(n2)])
        qq = QForm4(Gf2Matrix.from_rows(rows), list(q1.values) + list(q2.values))
        assert brown(qq) == (brown(q1) + brown(q2)) % 8
        done += 1


EIGHTH_DIRECTIONS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def padded_symmetric(r, n, radical):
    """Random symmetric Gram whose last ``radical`` basis vectors pair to
    zero with everything."""
    rows = [0] * n
    for i in range(n - radical):
        for j in range(i, n - radical):
            if r.randint(0, 1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Gf2Matrix(n, n, rows)


@given(st.integers(1, 12), st.integers(0, 3), st.integers(0, 2**20))
@settings(max_examples=150, deadline=None)
def test_brown_against_direct_gauss_sum(n, radical, seed):
    """Sum i^q(x) over every class in index order, with no splitting.

    The Gram is drawn with up to three radical vectors, valued 0 or 2 at
    random, and then written in a random basis, so degenerate forms whose
    Gauss sum vanishes and degenerate forms with a Brown invariant both
    occur.
    """
    r = random.Random(seed)
    radical = min(radical, n)
    gram = padded_symmetric(r, n, radical)
    q = QForm4(gram, [2 * r.randint(0, 1) + gram[i, i] for i in range(n)])
    q = rebased(q, random_basis(n, r))
    counts = [0, 0, 0, 0]
    for x in range(1 << n):
        counts[evaluate_q4(q, x)] += 1
    re, im = counts[0] - counts[2], counts[1] - counts[3]
    if re == im == 0:
        with pytest.raises(InputError, match="vanishes"):
            brown(q)
        return
    (k,) = [k for k, (dr, di) in enumerate(EIGHTH_DIRECTIONS)
            if dr * im == di * re and dr * re + di * im > 0]
    assert brown(q) == k


@given(st.integers(1, 12), st.integers(0, 2**20))
@settings(max_examples=100, deadline=None)
def test_arf_against_majority(n, seed):
    """Arf is 1 exactly when q = 1 on more than half of the classes."""
    r = random.Random(seed)
    gram = random_symmetric(r, n, even=True)
    q = QForm2(gram, [r.randint(0, 1) for _ in range(n)])
    if gf2_rank(gram) < n:
        with pytest.raises(InputError, match="degenerate"):
            arf(q)
        return
    ones = sum(evaluate_q2(q, x) for x in range(1 << n))
    assert arf(q) == (2 * ones > 1 << n)


@pytest.mark.parametrize("n", [64, 128])
def test_invariants_additive_at_large_dimension(n):
    """Block sums with known invariants, in a seeded basis, summed and
    rebased again: dimensions far beyond any walk over the classes."""
    r = random.Random(n)
    for _ in range(3):
        (q1, b1), (q2, b2) = block_sum_z4(n // 2, r), block_sum_z4(n // 2, r)
        assert (brown(q1), brown(q2)) == (b1, b2)
        assert brown(rebased(direct_sum(q1, q2), random_basis(n, r))) == (b1 + b2) % 8
        (p1, a1), (p2, a2) = block_sum_z2(n // 2, r), block_sum_z2(n // 2, r)
        assert (arf(p1), arf(p2)) == (a1, a2)
        assert arf(rebased(direct_sum(p1, p2), random_basis(n, r))) == a1 ^ a2


def test_brown_degenerate_dimension_40():
    r = random.Random(40)
    q, b = block_sum_z4(40, r, radical=(0, 0))
    assert brown(q) == b
    q, _ = block_sum_z4(40, r, radical=(0, 2))
    with pytest.raises(InputError, match="vanishes"):
        brown(q)


def test_brown_rejects_vanishing_gauss_sum():
    zero = Gf2Matrix.zeros(1, 1)
    with pytest.raises(InputError, match="vanishes"):
        brown(QForm4(zero, [2]))


def test_spin_values():
    assert spin_value_from_loops(LoopData(1, (0,))) == 1
    assert spin_value_from_loops(LoopData(2, (1, 1))) == 0
    assert spin_value_from_loops(LoopData(0, ())) == 0


def test_pin_values():
    assert pin_value_from_loops(LoopData(1, (0,), 1)) == 3
    assert pin_value_from_loops(LoopData(0, (), 0)) == 0
    assert pin_value_from_loops(LoopData(1, (1,), 0)) == 0


def test_loop_data_validation():
    with pytest.raises(InputError):
        LoopData(2, (1,))
    with pytest.raises(InputError):
        LoopData(1, (1,), -1)


def test_qform_from_loop_table_torus():
    table = LoopTable("spin", HYP, (LoopData(1, (1,)), LoopData(1, (1,))))
    q = qform_from_loop_table(table)
    assert arf(q) == 0


def test_qform_from_loop_table_rp2():
    table = LoopTable("pin", Gf2Matrix.from_rows([[1]]), (LoopData(1, (0,), 1),))
    q = qform_from_loop_table(table)
    assert evaluate_q4(q, 1) == 3
    assert brown(q) == 7


def test_qform_consistent_redundant_entry():
    table = LoopTable(
        "spin",
        HYP,
        (LoopData(1, (1,)), LoopData(1, (1,))),
        ((0b11, LoopData(2, (1, 0))),),
    )
    q = qform_from_loop_table(table)
    assert evaluate_q2(q, 0b11) == 1


def test_qform_inconsistent_redundant_entry_rejected():
    table = LoopTable(
        "spin",
        HYP,
        (LoopData(1, (1,)), LoopData(1, (1,))),
        ((0b11, LoopData(2, (1, 1))),),
    )
    with pytest.raises(InputError, match="inconsistent"):
        qform_from_loop_table(table)


def test_brown_basis_independent():
    r = random.Random(31)
    for _ in range(40):
        n = r.randint(1, 4)
        gram = random_symmetric(r, n, nondegenerate=True)
        q = QForm4(gram, [2 * r.randint(0, 1) + gram[i, i] for i in range(n)])
        while True:
            P = Gf2Matrix.from_rows(
                [[r.randint(0, 1) for _ in range(n)] for _ in range(n)]
            )
            if gf2_rank(P) == n:
                break
        cols = [sum(((P.rows[i] >> j) & 1) << i for i in range(n)) for j in range(n)]
        new_vals = [evaluate_q4(q, c) for c in cols]
        new_rows = []
        for i in range(n):
            row = 0
            for j in range(n):
                if dot(cols[i], q.gram.mul_vec(cols[j])):
                    row |= 1 << j
            new_rows.append(row)
        q_based = QForm4(Gf2Matrix(n, n, new_rows), new_vals)
        assert brown(q_based) == brown(q)

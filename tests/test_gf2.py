import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conjtop.errors import InputError
from conjtop.gf2 import (
    Gf2Matrix,
    bits_of,
    echelon,
    gf2_invert,
    gf2_kernel_basis,
    gf2_rank,
    gf2_solve,
    vec_from_bits,
)
from conftest import rref


def naive_rank(rows_of_bits):
    """Independent row-echelon oracle on plain 0/1 lists."""
    rows = [list(r) for r in rows_of_bits]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def matrices(max_dim=7):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def test_identity_rank():
    assert gf2_rank(Gf2Matrix.identity(3)) == 3


def test_all_ones_rank():
    assert gf2_rank(Gf2Matrix.from_rows([[1, 1], [1, 1]])) == 1


def test_random_rank_against_independent_oracle():
    r = random.Random(20240)
    for _ in range(200):
        rows = [[r.randint(0, 1) for _ in range(6)] for _ in range(6)]
        assert gf2_rank(Gf2Matrix.from_rows(rows)) == naive_rank(rows)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_nullity(rows):
    M = Gf2Matrix.from_rows(rows)
    assert gf2_rank(M) + len(gf2_kernel_basis(M)) == M.ncols


def test_solve_identity():
    M = Gf2Matrix.identity(3)
    x, kernel = gf2_solve(M, 0b001)
    assert x == 0b001 and kernel == []


def test_solve_zero_matrix_inconsistent():
    M = Gf2Matrix.zeros(2, 2)
    assert gf2_solve(M, 0b01) is None


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        gf2_solve(Gf2Matrix.identity(2), 0b100)


@given(matrices(), st.integers(0, 2**7 - 1))
@settings(max_examples=200, deadline=None)
def test_solve_verified_by_multiplication(rows, seed_x):
    M = Gf2Matrix.from_rows(rows)
    b = M.mul_vec(seed_x & ((1 << M.ncols) - 1))
    x, kernel = gf2_solve(M, b)
    assert M.mul_vec(x) == b
    for k in kernel:
        assert M.mul_vec(k) == 0


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_echelon_is_reduced(rows):
    M = Gf2Matrix.from_rows(rows)
    reduced, pivots = echelon(M.rows)
    assert len(reduced) == gf2_rank(M)
    for i, (row, p) in enumerate(zip(reduced, pivots)):
        assert (row >> p) & 1
        for other in reduced[:i] + reduced[i + 1:]:
            assert not (other >> p) & 1


def wide_or_empty_matrices():
    """(width, rows): up to 8 rows of up to 80 columns, dense or with at most 3 bits."""
    def rows_of(n):
        sparse = st.sets(st.integers(0, n - 1), max_size=3).map(
            lambda bits: sum(1 << b for b in bits)) if n else st.just(0)
        return st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1) | sparse, max_size=8))
    return st.integers(0, 80).flatmap(rows_of)


@given(wide_or_empty_matrices())
@example((0, []))
@example((6, []))
@example((0, [0, 0, 0]))
@example((5, [0, 0, 0, 0]))
@example((70, [1 << 69 | 1, 1 << 69 | 1 << 40, 1 << 40 | 1, 1 << 69]))
@settings(max_examples=200, deadline=None)
def test_echelon_matches_dense_rref(case):
    """The reduced echelon form of a span is unique: back-substituted column
    reduction and dense left-to-right pivoting agree bit for bit."""
    n, rows = case
    assert echelon(iter(rows)) == rref(rows, n)


def test_invert_round_trip():
    r = random.Random(7)
    for _ in range(50):
        n = r.randint(1, 6)
        while True:
            M = Gf2Matrix.from_rows([[r.randint(0, 1) for _ in range(n)] for _ in range(n)])
            if gf2_rank(M) == n:
                break
        assert M * gf2_invert(M) == Gf2Matrix.identity(n)


def test_invert_singular_rejected():
    with pytest.raises(InputError):
        gf2_invert(Gf2Matrix.zeros(2, 2))


def test_bits_round_trip():
    assert bits_of(vec_from_bits([1, 0, 1, 1]), 4) == (1, 0, 1, 1)


def test_transpose_and_product():
    M = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    assert M.transpose().transpose() == M
    I = Gf2Matrix.identity(3)
    assert M * I == M

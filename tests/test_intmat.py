import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conjtop.intmat
from conjtop import models
from conjtop.complexes import SimplicialComplex
from conjtop.errors import InputError, ModelIntegrityError
from conjtop.gf2 import gf2_rank
from conjtop.intmat import (
    IntMatrix,
    det,
    int_kernel_basis,
    invariant_factors,
    smith_normal_form,
)
from conftest import int_solve, signed_boundary_2


def minors_gcd_invariant_factors(M):
    """Independent oracle: d_1 ... d_k from gcds of k x k minors."""
    from itertools import combinations

    m, n = M.nrows, M.ncols
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = IntMatrix([[M[i, j] for j in cols] for i in rows])
                g = math.gcd(g, det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def leibniz_det(rows):
    """Independent determinant oracle: the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions & 1 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


class ReferenceSNF:
    """The former Smith normal form: full rescans for every pivot.

    Pivot rule: smallest absolute value over the whole remaining block,
    ties by row-major position.  Column additions touch every row.  The
    fast implementation must reproduce (D, U, V) exactly.
    """

    def __init__(self, M):
        m, n = M.nrows, M.ncols
        a = [list(r) for r in M.rows]
        u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

        def swap_rows(i, j):
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

        def swap_cols(i, j):
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

        def add_row(src, dst, c):
            a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

        def add_col(src, dst, c):
            for row in a:
                row[dst] += c * row[src]
            for row in v:
                row[dst] += c * row[src]

        def find_pivot(t):
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    e = a[i][j]
                    if e != 0 and (best is None or abs(e) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            return best

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

        def fix_pair(t, s):
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
                a[i] = [-x for x in a[i]]
                u[i] = [-x for x in u[i]]

        self.D, self.U, self.V = IntMatrix(a), IntMatrix(u), IntMatrix(v)


def int_matrices(max_dim=4, bound=6, entries=None):
    entries = st.integers(-bound, bound) if entries is None else entries
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def square_matrices(max_dim, entries):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


# zeros are drawn often so zero pivots, skipped rows and sign flips all occur
SPARSE_ENTRIES = st.one_of(st.just(0), st.integers(-4, 4))


def seeded_sparse_rows(seed, m=40, n=30, density=0.12):
    """A seeded sparse matrix with some rows repeated as sums of others."""
    rng = random.Random(seed)
    rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]
    for _ in range(m // 8):
        i, j, k = rng.sample(range(m), 3)
        rows[i] = [x + 2 * y for x, y in zip(rows[j], rows[k])]
    return rows


def test_snf_diag_2_3():
    D, U, V = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert D.diagonal_entries() == (1, 6)


def test_snf_identity():
    D, U, V = smith_normal_form(IntMatrix.identity(3))
    assert D == IntMatrix.identity(3)


def test_snf_already_diagonal():
    D, _, _ = smith_normal_form(IntMatrix([[2, 0], [0, 2]]))
    assert D.diagonal_entries() == (2, 2)


@given(int_matrices())
@settings(max_examples=150, deadline=None)
def test_snf_transform_identities(rows):
    M = IntMatrix(rows)
    D, U, V = smith_normal_form(M, with_u=True, with_v=True)
    assert U * M * V == D
    assert det(U) in (1, -1)
    assert det(V) in (1, -1)
    diag = D.diagonal_entries()
    for i, d in enumerate(diag):
        assert d >= 0
        if i + 1 < len(diag) and d != 0:
            assert diag[i + 1] % d == 0
        if d == 0 and i + 1 < len(diag):
            assert diag[i + 1] == 0
    for i in range(D.nrows):
        for j in range(D.ncols):
            if i != j:
                assert D[i, j] == 0


@given(int_matrices(max_dim=3, bound=4))
@settings(max_examples=80, deadline=None)
def test_snf_against_minor_gcd_oracle(rows):
    M = IntMatrix(rows)
    assert invariant_factors(M) == minors_gcd_invariant_factors(M)


def test_snf_invariant_under_permutations():
    r = random.Random(5)
    for _ in range(40):
        m, n = r.randint(1, 4), r.randint(1, 4)
        rows = [[r.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        M = IntMatrix(rows)
        perm_rows = rows[:]
        r.shuffle(perm_rows)
        cols = list(range(n))
        r.shuffle(cols)
        P = IntMatrix([[row[c] for c in cols] for row in perm_rows])
        assert invariant_factors(M) == invariant_factors(P)


@given(int_matrices(), st.lists(st.integers(-4, 4), min_size=1, max_size=4))
@settings(max_examples=120, deadline=None)
def test_int_solve_round_trip(rows, x_seed):
    M = IntMatrix(rows)
    x = (x_seed * M.ncols)[: M.ncols]
    b = M.mul_vec(x)
    sol = int_solve(M, list(b))
    assert sol is not None
    assert M.mul_vec(sol) == b


def test_int_solve_unsolvable():
    assert int_solve(IntMatrix([[2]]), [1]) is None
    assert int_solve(IntMatrix([[0]]), [1]) is None


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_int_kernel(rows):
    M = IntMatrix(rows)
    for k in int_kernel_basis(M):
        assert M.mul_vec(k) == (0,) * M.nrows


@given(square_matrices(5, SPARSE_ENTRIES))
# Each lag example runs as given, where unit pivots now take all or part of
# it, and doubled: with no +-1 entry, Bareiss runs on the same zero pattern.
@example([[-1, 0], [0, 1]])  # units only
@example([[-2, 0], [0, 2]])  # a negative first pivot: the zero row must be rescaled
@example([[0, 2, 0], [1, 0, 0], [0, 0, 3]])  # a unit swapped up flips the sign
@example([[0, 4, 0], [2, 0, 0], [0, 0, 6]])  # zero pivot: swap
@example([[2, 0, 1], [0, -1, 0], [1, 0, 1]])  # units only, after a swap
@example([[4, 0, 2], [0, -2, 0], [2, 0, 2]])  # a negative second pivot
# the last row lags through two pivots and is updated at the third (as given,
# one unit step leaves a 3 x 3 block whose last row lags once)
@example([[2, 1, 1, 0], [1, 2, 0, 1], [1, 0, 3, 1], [0, 0, 2, 3]])
@example([[4, 2, 2, 0], [2, 4, 0, 2], [2, 0, 6, 2], [0, 0, 4, 6]])
# a row lags behind a negative pivot (as given, units leave a 1 x 1 block)
@example([[-3, 1, 0], [0, 2, 1], [1, 0, -2]])
@example([[-6, 2, 0], [0, 4, 2], [2, 0, -4]])
# row 2 lags behind the pivot 3 and is swapped into the zero pivot position
# (no unit in column 0, so both reach Bareiss whole)
@example([[3, 0, -2, -2], [3, 0, 0, 3], [0, -2, 0, 0], [2, 1, 0, 0]])
@example([[6, 0, -4, -4], [6, 0, 0, 6], [0, -4, 0, 0], [4, 2, 0, 0]])
# the last row lags to the end (as given, behind the pivot -3 of a 2 x 2 block)
@example([[2, 1, 0], [1, 2, 0], [0, 0, 3]])
@example([[4, 2, 0], [2, 4, 0], [0, 0, 6]])
# two lagging rows (as given, both lag behind -5 in a 3 x 3 block)
@example([[3, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]])
@example([[6, 2, 0, 0], [2, 4, 0, 0], [0, 0, 4, 2], [0, 0, 2, 4]])
# one unit step updates row 3, then column 1 has no unit: in the block
# [[2, 2, 0], [0, 3, 2], [2, 0, 3]] the middle row lags behind the pivot 2
@example([[1, 1, 0, 0], [0, 2, 2, 0], [0, 0, 3, 2], [1, 3, 0, 3]])
@settings(max_examples=300, deadline=None)
def test_det_against_leibniz(rows):
    assert det(IntMatrix(rows)) == leibniz_det(rows)


def assert_same_snf(M):
    """(D, U, V) built with both transforms equal the reference's, bit for
    bit, and each other call returns the same D and the transforms it asks
    for, the others None."""
    D, U, V = smith_normal_form(M, with_u=True, with_v=True)
    ref = ReferenceSNF(M)
    assert (D.rows, U.rows, V.rows) == (ref.D.rows, ref.U.rows, ref.V.rows)
    assert smith_normal_form(M) == (D, None, None)
    assert smith_normal_form(M, with_v=True) == (D, None, V)
    assert smith_normal_form(M, with_u=True) == (D, U, None)
    return D, U, V


@given(int_matrices(max_dim=8, entries=SPARSE_ENTRIES))
@settings(max_examples=200, deadline=None)
def test_snf_matches_reference(rows):
    assert_same_snf(IntMatrix(rows))


@pytest.mark.parametrize("seed", range(6))
def test_snf_matches_reference_sparse_40x30(seed):
    assert_same_snf(IntMatrix(seeded_sparse_rows(seed)))


def rank_deficient_sparse_80x60():
    rows = seeded_sparse_rows(11, m=80, n=60, density=0.06)
    rows[-1] = [x - y for x, y in zip(rows[0], rows[1])]
    for j in (7, 31):  # two columns that repeat others
        for row in rows:
            row[j] = row[j + 1] + 2 * row[j + 2]
    return rows


@pytest.mark.parametrize("build, torsion", [
    (rank_deficient_sparse_80x60, None),
    (lambda: signed_boundary_2(models.coned_grid_torus(4)[0]), ()),
    (lambda: signed_boundary_2(models.coned_grid_klein(4)[0]), (2,)),
], ids=["sparse_80x60", "d2_coned_torus_4", "d2_coned_klein_4"])
def test_snf_matches_reference_at_bench_scale(build, torsion):
    M = IntMatrix(build())
    D, U, V = assert_same_snf(M)
    assert U * M * V == D
    factors = invariant_factors(M)
    if torsion is None:
        assert len(factors) < min(M.nrows, M.ncols)
    else:
        # H_2 is Z for the torus and 0 for the Klein bottle, whose H_1 has one Z/2
        assert factors == (1,) * (M.ncols - 1) + torsion


# no +-1 anywhere: the unit-pivot front end eliminates nothing
NO_UNIT_ENTRIES = st.sampled_from((0, 0, 2, -2, 3, -3, 4, 6, -9))


def shaped_matrices(entries, max_dim=7):
    """(rows, ncols) for m x n matrices with m and n from 0."""
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda mn: st.tuples(
            st.lists(st.lists(entries, min_size=mn[1], max_size=mn[1]),
                     min_size=mn[0], max_size=mn[0]),
            st.just(mn[1]),
        )
    )


@given(st.one_of(shaped_matrices(SPARSE_ENTRIES), shaped_matrices(NO_UNIT_ENTRIES)),
       st.sets(st.integers(0, 6)), st.sets(st.integers(0, 6)))
@example(([], 3), set(), set())  # 0 x 3
@example(([[], [], []], 0), set(), set())  # 3 x 0
@example(([[2, 4], [6, 3]], 2), set(), set())  # no unit: the remainder is all of M
@example(([[1, 1], [1, -1]], 2), set(), set())  # the Schur update leaves -2
@example(([[1, 2, 0], [3, 1, 0], [0, 0, 0]], 3), {2}, {2})
@settings(max_examples=300, deadline=None)
def test_invariant_factors_match_reference_diagonal(shaped, zero_rows, zero_cols):
    rows, n = shaped
    rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
            for i, r in enumerate(rows)]
    M = IntMatrix(rows, n)
    expected = tuple(d for d in ReferenceSNF(M).D.diagonal_entries() if d)
    assert invariant_factors(M) == expected


def moore_space_z3():
    """M(Z/3, 1): a disk whose boundary, 9 edges, wraps three times around
    the triangle 0-1-2.  Boundary vertex k is k mod 3, inner ring vertex k
    is 3 + k, and 12 is the centre."""
    faces = []
    for k in range(9):
        b0, b1, i0, i1 = k % 3, (k + 1) % 3, 3 + k, 3 + (k + 1) % 9
        faces += [tuple(sorted(f)) for f in ((b0, b1, i0), (b1, i0, i1), (i0, i1, 12))]
    return SimplicialComplex.from_simplices(13, faces)


@pytest.mark.parametrize("build, torsion", [
    (models.rp2_6vertex, (2,)),
    (lambda: models.coned_grid_klein(6)[0], (2,)),
    (moore_space_z3, (3,)),
], ids=["rp2", "coned_klein_6", "moore_z3"])
def test_invariant_factors_of_known_torsion(build, torsion):
    # H_2 = 0 in each case, so d2 is injective and H_1 is its cokernel's torsion
    M = IntMatrix(signed_boundary_2(build()))
    assert invariant_factors(M) == (1,) * (M.ncols - 1) + torsion
    # Z/2 drops the rank mod 2 by one; Z/3 leaves it full, unseen mod 2
    assert gf2_rank(M.mod2()) == M.ncols - (torsion == (2,))


def test_invariant_factors_parity_check(monkeypatch):
    """An odd-factor count that disagrees with the GF(2) rank is refused."""
    def doubled_snf(M):
        D, U, V = smith_normal_form(M)
        return D.scale(2), U, V

    monkeypatch.setattr(conjtop.intmat, "smith_normal_form", doubled_snf)
    with pytest.raises(ModelIntegrityError, match="rank mod 2") as err:
        invariant_factors(IntMatrix([[3, 0], [0, 1]]))
    assert err.value.report == {"odd_factors": 1, "rank_mod2": 2}


def udv_rows(m, n, seed, rank=None):
    """U * D * V with seeded elementary U and V and a divisor chain D of
    ``rank`` nonzero entries (n - 3 by default); returns (rows, D's diagonal)."""
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(m)]
    factors, d = [0] * min(m, n), 1
    for i in range(n - 3 if rank is None else rank):
        d *= rng.choice((1,) * 20 + (2, 3, 5))
        rows[i][i] = factors[i] = d
    for _ in range(m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in rows:
            row[i] += c * row[j]
    return rows, factors


def test_snf_matches_reference_on_udv_120x90():
    M = IntMatrix(udv_rows(120, 90, seed=14)[0])
    D, _, _ = assert_same_snf(M)
    assert invariant_factors(M) == tuple(d for d in D.diagonal_entries() if d)


@pytest.mark.parametrize("m, n, seed", [(40, 30, 21), (80, 60, 22), (120, 90, 23), (160, 120, 24)])
def test_snf_builds_u_only_on_request_at_bench_scale(m, n, seed):
    assert_same_snf(IntMatrix(udv_rows(m, n, seed)[0]))


@pytest.mark.parametrize("m, n, seed", [(40, 30, 25), (160, 120, 26)])
def test_snf_matches_reference_on_even_udv(m, n, seed):
    # no entry is ever 1, so every pivot search reads every row of its block
    rows = [[2 * x for x in row] for row in udv_rows(m, n, seed)[0]]
    D, _, _ = assert_same_snf(IntMatrix(rows))
    assert all(d % 2 == 0 for d in D.diagonal_entries())


def doubled(shaped):
    rows, n = shaped
    return [[2 * x for x in row] for row in rows], n


@given(st.one_of(shaped_matrices(SPARSE_ENTRIES), shaped_matrices(NO_UNIT_ENTRIES),
                 shaped_matrices(NO_UNIT_ENTRIES).map(doubled)))
@example(([], 0))  # 0 x 0
@example(([], 3))  # 0 x 3
@example(([[], [], []], 0))  # 3 x 0
@example(([[2, 0], [0, 3]], 2))  # a diagonal out of order: the pair pass fixes it
@example(([[4, 0, 0], [0, 6, 0], [0, 0, 12]], 3))  # 4 does not divide 6, though it divides 12
@example(([[2, 0, 0], [0, 6, 0], [0, 0, 0]], 3))  # divides in order: no pair pass
@settings(max_examples=150, deadline=None)
def test_snf_builds_u_only_on_request(shaped):
    """Each of the four calls against the reference, on every shape from 0 x 0,
    with and without units, and with no entry ever 1."""
    rows, n = shaped
    assert_same_snf(IntMatrix(rows, n))


@pytest.mark.parametrize("n, rank, seed", [(40, 40, 1), (80, 80, 2), (120, 120, 3), (60, 57, 4)])
def test_det_of_udv_at_bench_scale(n, rank, seed):
    # elementary additions keep the determinant, so det(U * D * V) = det(D)
    rows, factors = udv_rows(n, n, seed, rank)
    assert det(IntMatrix(rows)) == math.prod(factors)


def test_det_of_snf_transforms_on_udv_160x120():
    _, U, V = smith_normal_form(IntMatrix(udv_rows(160, 120, seed=16)[0]),
                                with_u=True, with_v=True)
    for T in (U, V):
        assert det(T) == det(T.transpose()) in (1, -1)


def test_unimodularity_audit_runs_on_every_call(monkeypatch):
    """``det`` audits every transform a call builds, and only those."""
    seen = []

    def counting_det(M):
        seen.append((M.nrows, M.ncols))
        return det(M)

    monkeypatch.setattr(conjtop.intmat, "det", counting_det)
    M = IntMatrix([[2, 4, 4], [-6, 6, 12]])
    smith_normal_form(M)
    assert seen == []  # no transform is built, so none is audited
    smith_normal_form(M, with_v=True)
    assert seen == [(3, 3)]
    seen.clear()
    smith_normal_form(M, with_u=True, with_v=True)
    assert seen == [(2, 2), (3, 3)]
    monkeypatch.setattr(conjtop.intmat, "det", lambda M: 2)
    with pytest.raises(ModelIntegrityError, match="unimodularity") as err:
        smith_normal_form(M, with_u=True, with_v=True)
    assert err.value.report == {"det_U": 2, "det_V": 2}


def test_det_examples():
    assert det(IntMatrix([[2, 0], [0, 3]])) == 6
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix.identity(4)) == 1
    with pytest.raises(InputError):
        det(IntMatrix([[1, 2]]))


def test_empty_matrices_keep_their_width():
    assert (IntMatrix.zeros(0, 3).nrows, IntMatrix.zeros(0, 3).ncols) == (0, 3)
    assert IntMatrix([], 3) == IntMatrix.zeros(0, 3) != IntMatrix([])
    three_by_zero = IntMatrix([[], [], []])
    assert three_by_zero.transpose() == IntMatrix.zeros(0, 3)
    assert IntMatrix.zeros(0, 3).transpose() == three_by_zero
    assert three_by_zero * IntMatrix.zeros(0, 2) == IntMatrix.zeros(3, 2)
    assert IntMatrix.zeros(0, 3) * IntMatrix.zeros(3, 2) == IntMatrix.zeros(0, 2)
    with pytest.raises(InputError, match="ragged"):
        IntMatrix([[1, 2]], 3)
    D, U, V = smith_normal_form(three_by_zero, with_u=True, with_v=True)
    assert (D, U, V) == (three_by_zero, IntMatrix.identity(3), IntMatrix.identity(0))


def test_mod2_reduction():
    M = IntMatrix([[2, 3], [-1, 4]])
    assert M.mod2().rows == (0b10, 0b01)


@pytest.mark.parametrize("entry", [2.5, 3.0, "3", Fraction(3), Fraction(1, 2), None])
def test_entries_that_are_not_integers_are_refused(entry):
    """No entry is truncated or parsed: a float, a string or a Fraction, even
    one with an integer value, is a one-line InputError."""
    with pytest.raises(InputError, match="integer matrix entry") as err:
        IntMatrix([[1, 2], [entry, 4]])
    assert "\n" not in str(err.value)


def test_bool_entries_read_as_zero_and_one():
    M = IntMatrix([[True, False], [2, True]])
    assert M.rows == ((1, 0), (2, 1)) and M == IntMatrix([[1, 0], [2, 1]])
    assert all(type(e) is int for row in M.rows for e in row)
    assert IntMatrix(iter([iter([3, -4])])).rows == ((3, -4),)

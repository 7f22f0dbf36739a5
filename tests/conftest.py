import random
from dataclasses import dataclass, field
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import strategies as st

from conjtop.complexes import (
    SimplicialComplex,
    SimplicialMap,
    _levels,
    _normalize_simplex,
    barycentric_subdivide,
    check_involution,
    fundamental_class,
    impure_simplex,
)
from conjtop.duality import duality_data, intersection_form_matrix
from conjtop.errors import InputError
from conjtop.gf2 import Gf2Matrix, gf2_solve
from conjtop.homology import cohomology, homology, total_betti
from conjtop.intmat import IntMatrix, smith_normal_form
from conjtop.models import double_along_boundary, model_library
from conjtop.qforms import QForm2, QForm4, _check_gram, evaluate_q2, evaluate_q4


# malformed model files, each with the fragment of the one-line reason it must give
MALFORMED_MODELS = {
    "boundary_above_top": ("[chain c]\nranks 1 1\nboundary 2\n", "line 3: boundary 2 out of range"),
    "boundary_0": ("[chain c]\nranks 1 1\nboundary 0\n1\n", "line 3: boundary 0 out of range"),
    "boundary_negative": ("[chain c]\nranks 1 1\nboundary -1\n1\n", "line 3: boundary -1 out"),
    "involution_above_top": ("[chain c]\nranks 1 1\nboundary 1\n0\ninvolution 5\n1\n",
                             "line 5: involution 5 out of range"),
    "involution_missing": ("[chain c]\nranks 1 1\nboundary 1\n0\ninvolution 0\n1\n",
                           "chain 'c': involution 1 missing"),
    "boundary_int_missing": ("[chain c]\nranks 1 1 1\nboundary 1\n0\nboundary 2\n0\n"
                             "boundary_int 1\n0\n", "chain 'c': boundary_int 2 missing"),
    "pairing_negative": ("[chain c]\nranks 1\npairing -1\n", "line 3: pairing size -1 out"),
    "ranks_negative": ("[chain c]\nranks 1 -1\n", "line 2: rank -1 out of range"),
    "ranks_empty": ("[chain c]\nranks\n", "line 2: a ranks line needs at least one rank"),
    "loops_rank_negative": ("[loops q]\nkind spin\nrank -1\ngram\n", "line 3: rank -1 out"),
    "lattice_presentation_negative": ("[lattice L]\nrank 1\ngram\n1\nisometry\n1\n"
                                      "presentation -1\n", "line 7: presentation rows -1 out"),
    "vertices_negative": ("[complex K]\nvertices -1\n", "line 2: vertex count -1 out"),
    "transfer_ends_before_pull": ("[lattice L]\nrank 1\ngram\n1\nisometry\n1\ntransfer 1\n",
                                  "line 7: transfer block expects 'pull'"),
    "transfer_ends_before_push": ("[lattice L]\nrank 1\ngram\n1\nisometry\n1\ntransfer 1\n"
                                  "pull\n1\n", "line 7: transfer block expects 'push'"),
}


@pytest.fixture(scope="session")
def library():
    return model_library()


def chain_bits(K, simplices):
    bits = 0
    for s in simplices:
        bits |= 1 << K.index_of(tuple(s))
    return bits


def marked_basis(library, name):
    K = library.complexes[name]
    marks = library.cycles.get(name, {})
    basis = []
    i = 0
    while f"basis{i}" in marks:
        basis.append(chain_bits(K, marks[f"basis{i}"]))
        i += 1
    return basis or None


def identity_map(K):
    """The identity of K, the map every test that needs one builds."""
    return SimplicialMap(K, K, range(K.vertex_count))


def involution_model(library, name):
    src, _, tau = library.maps[name]
    return library.complexes[src], tau, marked_basis(library, src)


def boundary_data(K):
    """ChainComplexData carrying the boundaries of K and nothing else."""
    from conjtop.chains import ChainComplexData

    return ChainComplexData([K.n_simplices(k) for k in range(K.dimension + 1)],
                            [K.boundary_matrix(k) for k in range(1, K.dimension + 1)])


def chain_export(K, tau):
    """(K, tau) as ChainComplexData, the carrier of spaces too large to
    triangulate: the boundaries of K, tau's chain map in each dimension read
    from ``index_images``, the middle intersection Gram of ``duality_data`` on
    the canonical basis, and the fixed set's middle class and total Betti
    number."""
    from conjtop.chains import ChainComplexData
    from conjtop.involutions import fixed_subcomplex

    n = K.dimension
    fixed = fixed_subcomplex(K, tau)
    return ChainComplexData(
        [K.n_simplices(k) for k in range(n + 1)],
        [K.boundary_matrix(k) for k in range(1, n + 1)],
        involution=[Gf2Matrix(K.n_simplices(k), K.n_simplices(k),
                              [1 << j for j in tau.index_images(k)]) for k in range(n + 1)],
        pairing=intersection_form_matrix(duality_data(K, n // 2)),
        fixed_class=fixed.mid_class,
        fixed_betti_total=total_betti(fixed.subcomplex),
    )


def signed_boundary_2(K):
    """Integer boundary from oriented triangles to oriented edges."""
    edges = {e: i for i, e in enumerate(K.simplices(1))}
    rows = [[0] * K.n_simplices(2) for _ in edges]
    for j, (a, b, c) in enumerate(K.simplices(2)):
        rows[edges[(b, c)]][j] += 1
        rows[edges[(a, c)]][j] -= 1
        rows[edges[(a, b)]][j] += 1
    return rows


def oriented_boundary_edges(simplex, sign):
    """Directed boundary edges of an oriented triangle.

    With positive sign the cycle is v0 -> v1 -> v2 -> v0 on the sorted
    vertices; negative sign reverses it.  This and
    :func:`induced_edge_direction` spell the orientation rule out as edge
    directions, independently of the incidence signs ``conjtop`` computes
    with; the tests use them as the oracle.
    """
    a, b, c = simplex
    if sign > 0:
        return ((a, b), (b, c), (c, a))
    return ((b, a), (c, b), (a, c))


def induced_edge_direction(simplex, sign, edge):
    """Direction a triangle's orientation induces on one of its edges."""
    for (x, y) in oriented_boundary_edges(simplex, sign):
        if (min(x, y), max(x, y)) == edge:
            return (x, y)
    raise InputError(f"edge {edge} is not a face of {simplex}")


def incidence(top, face) -> int:
    """Sign (-1)^i of ``face`` in the oriented boundary of ``top``.

    i is the position in ``top`` of the one vertex that ``face`` lacks:
    the incidence rule spelled out by vertex, the oracle for the signs
    ``SimplicialComplex.dual_graph`` reads off face positions.
    """
    i = top.index(sum(top) - sum(face))
    return -1 if i & 1 else 1


def top_adjacency(K, excluded_faces=frozenset()):
    """(face, a, b) for the tops a < b glued across each non-excluded
    codim-1 face with exactly two cofaces, in face order."""
    n = K.dimension
    faces = K.simplices(n - 1)
    return [(faces[i], cof[0], cof[1]) for i, cof in enumerate(K.cofaces(n - 1))
            if len(cof) == 2 and faces[i] not in excluded_faces]


def face_tuple_dual_walk(K, cut=frozenset(), flip=frozenset()):
    """The dual walk over face tuples and vertex incidences, as ``conjtop``
    computed it before the cached index graph: the oracle for
    ``complexes.dual_walk``.  ``cut`` and ``flip`` hold face tuples."""
    tops = K.simplices(K.dimension)
    m = len(tops)
    adj = [[] for _ in range(m)]
    for face, a, b in top_adjacency(K, cut):
        rel = -incidence(tops[a], face) * incidence(tops[b], face)
        if face in flip:
            rel = -rel
        adj[a].append((b, rel))
        adj[b].append((a, rel))
    comp = [-1] * m
    signs = [0] * m
    consistent = True
    n_comp = 0
    for start in range(m):
        if comp[start] >= 0:
            continue
        comp[start] = n_comp
        signs[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for u, rel in adj[t]:
                want = signs[t] * rel
                if comp[u] < 0:
                    comp[u] = n_comp
                    signs[u] = want
                    stack.append(u)
                elif signs[u] != want:
                    consistent = False
        n_comp += 1
    return comp, (tuple(signs) if consistent else None)


def sheet_labels_from_projection(total, base, proj):
    """(base top, sheet) per top of a cover total, sheet 0 for the first of
    the two lifts of each base top in sorted order, read by projecting every
    top: the oracle for the labels ``double_cover_unbranched`` takes
    straight from its lifts."""
    n = base.dimension
    seen = {}
    labels = []
    for t in total.simplices(n):
        bi = base.index_of(tuple(sorted(proj(v) for v in t)))
        sheet = seen.get(bi, 0)
        seen[bi] = sheet + 1
        labels.append((bi, sheet))
    return tuple(labels)


# --- the per-simplex construction routes that vertex columns replaced -------------


def per_simplex_close_down(levels):
    """The former ``complexes._close_down``: the codimension-1 faces of each
    simplex, one ``combinations`` walk per simplex, top dimension first."""
    for k in range(len(levels) - 1, 0, -1):
        levels[k - 1].update(f for s in levels[k] for f in combinations(s, k))
    return levels


def per_simplex_closure(simplices):
    """The former ``complexes.closure``: every face of the normalised
    generators, closed one dimension at a time."""
    return set().union(*per_simplex_close_down(_levels([_normalize_simplex(s) for s in simplices])))


def per_generator_from_simplices(vertex_count, generators):
    """The former ``SimplicialComplex.from_simplices``: each generator
    normalised in input order, then range-checked by dimension."""
    levels = _levels([_normalize_simplex(s) for s in generators])
    for s in (s for group in levels for s in group):
        if s[0] < 0 or s[-1] >= vertex_count:
            raise InputError(f"simplex {s} has a vertex outside 0..{vertex_count - 1}")
    return SimplicialComplex._trusted(vertex_count, per_simplex_close_down(levels))


def per_simplex_face_indices(K, k):
    """The former ``SimplicialComplex.face_indices``, with its k = 1 and
    k = 2 branches."""
    index, group = K._index, K.simplices(k)
    if k == 0:
        return ((),) * len(group)
    if k == 1:
        return tuple((index[(a,)], index[(b,)]) for a, b in group)
    if k == 2:
        return tuple((index[a, b], index[a, c], index[b, c]) for a, b, c in group)
    return tuple(tuple(index[f] for f in combinations(s, k)) for s in group)


def per_simplex_index_images(f, k):
    """The former ``SimplicialMap.index_images``: one sorted image tuple per
    simplex, looked up in the target's index."""
    get, im = f.target._index.get, f.images
    return tuple(get(tuple(sorted(map(im.__getitem__, s))), -1) for s in f.source.simplices(k))


# --- the per-simplex loops that column passes replaced: map check, connectivity ------


def per_facet_map_check(source, target, images):
    """The former ``SimplicialMap`` image check: each facet's image vertex set
    looked up in the target, and on a failure a scan in ``all_simplices`` order
    that names the first offender."""
    if not all(target.has_simplex(tuple(sorted(set(images[v] for v in s))))
               for s in source.facets()):
        for s in source.all_simplices():
            img = tuple(sorted(set(images[v] for v in s)))
            if not target.has_simplex(img):
                raise InputError(f"image of simplex {s} spans no simplex: {img}")


def generic_orbit_boundaries(K, tau):
    """The former orbit chain complex: orbit representatives by dict, returned
    as tuples like the remembered one."""
    reps, orbit_index = [], []
    for k in range(K.dimension + 1):
        lst, idx = [], {}
        for s in K.simplices(k):
            img = tau.map_simplex(s)
            if min(s, img) == s:
                idx[s] = idx[img] = len(lst)
                lst.append(s)
        reps.append(lst)
        orbit_index.append(idx)
    boundaries = []
    for k in range(1, K.dimension + 1):
        rows = [0] * len(reps[k - 1])
        for j, s in enumerate(reps[k]):
            for f in combinations(s, k):
                rows[orbit_index[k - 1][f]] ^= 1 << j
        boundaries.append(Gf2Matrix(len(reps[k - 1]), len(reps[k]), rows))
    flags = [sum(1 << j for j, s in enumerate(lst) if all(tau(v) == v for v in s))
             for lst in reps]
    return tuple(boundaries), tuple(flags)


def per_pair_roots(n, pairs):
    """The former ``complexes._roots``: path halving in a nested ``find``,
    then one ``find`` per element."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(x) for x in range(n)]


def per_simplex_boundary_columns(K, k):
    """The former generic branch of ``boundary_columns``: one sum per simplex."""
    return tuple(sum(1 << i for i in f) for f in K.face_indices(k))


def per_vertex_is_involution(f):
    """The former ``SimplicialMap.is_involution``: one comparison per vertex."""
    if f.source != f.target:
        return False
    return all(f.images[f.images[v]] == v for v in range(len(f.images)))


def per_face_coface_check(K):
    """The former coface count of ``pseudomanifold_check``: each codimension-1
    face in order, raising on the first whose count is not two."""
    n = K.dimension
    for i, c in enumerate(K.cofaces(n - 1) if n >= 1 else ()):
        if len(c) != 2:
            raise InputError(f"face {K.simplices(n - 1)[i]} has {len(c)} top cofaces, expected 2")


# --- regularity as a per-simplex property, and the quotient that relied on it -------


def per_simplex_regularity_offender(K, tau):
    """The former ``involutions.regularity_offender``: a scan of every simplex,
    in ``all_simplices`` order, for one mapped onto itself but not pointwise."""
    im = tau.images
    for k in range(K.dimension + 1):
        group = K.simplices(k)
        for i, j in enumerate(tau.index_images(k)):
            if i == j and any(im[v] != v for v in group[i]):
                return group[i]
    return None


def former_quotient_by_involution(K, tau):
    """The former ``smith.quotient_by_involution``: the per-simplex regularity
    scan, orbit vertices through a rank dict, a refusal of simplices that hold
    a vertex orbit twice, and collisions found through ``map_simplex``."""
    check_involution(K, tau)
    bad = per_simplex_regularity_offender(K, tau)
    if bad is not None:
        raise InputError(f"involution is not regular: simplex {bad} maps onto itself")
    reps = sorted({min(v, tau(v)) for v in range(K.vertex_count)})
    rep_rank = {v: i for i, v in enumerate(reps)}

    def orbit_vertex(v):
        return rep_rank[min(v, tau(v))]

    image_to_source = {}
    for s in K.all_simplices():
        img = tuple(sorted(orbit_vertex(v) for v in s))
        if len(set(img)) < len(img):
            raise InputError(f"simplex {s} contains a vertex orbit twice")
        prev = image_to_source.get(img)
        if prev is not None and prev != s and prev != tau.map_simplex(s):
            raise InputError(
                "quotient collision: simplices "
                f"{prev} and {s} share an orbit image; subdivide first"
            )
        if prev is None or s < prev:
            image_to_source[img] = s

    Q = SimplicialComplex._trusted(len(reps), _levels(image_to_source))
    proj = SimplicialMap._trusted(K, Q, (orbit_vertex(v) for v in range(K.vertex_count)))
    return Q, proj


def skeleton_involution(m, d, swaps, seed):
    """The d-skeleton of the simplex on m vertices (no simplex when d >= m) with a
    seeded vertex involution of up to ``swaps`` transpositions; every vertex
    involution of a skeleton is an automorphism."""
    K = SimplicialComplex.from_simplices(m, combinations(range(m), d + 1))
    order = random.Random(seed).sample(range(m), m)
    images = list(range(m))
    for a, b in zip(order[:2 * swaps:2], order[1:2 * swaps:2]):
        images[a], images[b] = b, a
    return K, SimplicialMap(K, K, images)


def relabelled(K, tau, rng):
    """K and tau with their vertices renumbered by a seeded permutation."""
    perm = list(range(K.vertex_count))
    rng.shuffle(perm)
    Kr = SimplicialComplex.from_simplices(
        K.vertex_count, [sorted(perm[v] for v in s) for s in K.facets()])
    images = [0] * K.vertex_count
    for v in range(K.vertex_count):
        images[perm[v]] = perm[tau(v)]
    return Kr, SimplicialMap(Kr, Kr, images)


def rref(rows, ncols):
    """Reduced row echelon form by dense pivoting on columns left to right,
    candidate rows top to bottom: (nonzero reduced rows, pivot per row).
    The former elimination of ``conjtop.gf2``, the oracle for ``echelon``."""
    work = list(rows)
    m = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        bit = 1 << c
        pivot = None
        for i in range(r, m):
            if work[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(m):
            if i != r and (work[i] & bit):
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == m:
            break
    # rows past r are zero after full reduction
    return work[:r], pivots


def cochain_pullback(f, k, cochain):
    """Pull a k-cochain on the target back along a simplicial map."""
    out = 0
    for j, s in enumerate(f.source.simplices(k)):
        img = f.map_simplex(s)
        if len(img) == len(s) and (cochain >> f.target.index_of(img)) & 1:
            out |= 1 << j
    return out


def cup_eval(K, k, a, b, fc=None):
    """The former ``homology.cup_eval``: the front-face/back-face product of
    ``a`` (degree k) and ``b`` (degree n-k) evaluated on [K], one pass over
    the tops of the fundamental cycle per pair with two ``index_of`` calls
    per top.  The per-pair oracle for the cup matrix of ``duality_data``."""
    n = K.dimension
    if fc is None:
        fc = fundamental_class(K)
    total = 0
    tops = K.simplices(n)
    c = fc
    while c:
        j = (c & -c).bit_length() - 1
        c &= c - 1
        s = tops[j]
        if (a >> K.index_of(s[: k + 1])) & 1 and (b >> K.index_of(s[k:])) & 1:
            total ^= 1
    return total


def cup_eval_matrix(K, k, left, right):
    """Rows of the per-pair oracle: bit j of row i is cup_eval(left[i], right[j])."""
    fc = fundamental_class(K)
    return [sum(cup_eval(K, k, a, b, fc) << j for j, b in enumerate(right)) for a in left]


def int_solve(M, b):
    """The former ``intmat.int_solve``: one integer solution of Mx = b, or
    None when unsolvable.  The oracle for the transfer identity of the
    lattice audits."""
    return snf_solve(smith_normal_form(M, with_u=True), b)


def snf_solve(snf, b):
    """The former ``intmat.snf_solve``: ``int_solve`` from M's Smith form
    (D, U, V), built with U."""
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


def stiefel_whitney_by_evaluation(X):
    """The former ``coverings.stiefel_whitney_cocycle``: the cocycle that
    evaluates on each canonical H_1 class as its self-intersection, solved
    against the evaluation matrix E.  The oracle for Wu's formula."""
    dd = duality_data(X, 1)
    lam, _ = gf2_solve(dd.eval_matrix.transpose(), intersection_form_matrix(dd).diagonal_vector())
    w = 0
    for i, c in enumerate(dd.coh.cycles):
        if (lam >> i) & 1:
            w ^= c
    return w


def m_double(g, seed=1):
    """Genus-g M-double and its mirror: a square grid disk with g seeded
    square holes, doubled along its g + 1 boundary circles.

    Hole slots lie three squares apart and two from the rim, so no edge
    joins two circles, and each square is split by the diagonal that does
    not join two boundary vertices.  The mirror fixes the g + 1 circles,
    which bound a copy of the disk, so the verdict is I_abs and b1 = 2g.
    """
    slots = isqrt(g - 1) + 1 if g else 0
    side = 3 * slots + 2
    holes = set(random.Random(seed).sample(
        [(2 + 3 * a, 2 + 3 * b) for a in range(slots) for b in range(slots)], g))

    def corner(i, j):
        return i * (side + 1) + j

    rim = {corner(i, j) for i in range(side + 1) for j in range(side + 1)
           if i in (0, side) or j in (0, side)}
    rim |= {corner(i + di, j + dj) for i, j in holes for di in (0, 1) for dj in (0, 1)}
    triangles = []
    for i in range(side):
        for j in range(side):
            if (i, j) in holes:
                continue
            a, b, d, e = corner(i, j), corner(i + 1, j), corner(i + 1, j + 1), corner(i, j + 1)
            if a in rim and d in rim:
                triangles += [(a, b, e), (b, d, e)]
            else:
                triangles += [(a, b, d), (a, d, e)]
    disk = SimplicialComplex.from_simplices((side + 1) ** 2, map(sorted, triangles))
    return double_along_boundary(disk, rim)


@st.composite
def m_double_draws(draw):
    """(g, (K, tau), (K', tau')): ``m_double(g, seed)`` for g = 1..6 with a drawn
    seed, and the same real curve renumbered by a drawn permutation, in about a
    third of the draws after one barycentric subdivision as well."""
    g = draw(st.integers(1, 6))
    base = m_double(g, draw(st.integers(0, 2**16)))
    moved = relabelled(*base, random.Random(draw(st.integers(0, 2**32 - 1))))
    if draw(st.integers(0, 2)) == 0:
        moved = barycentric_subdivide(*moved)
    return g, base, moved


def poincare_dual_cocycle(K, k, hom_coords):
    """Cocycle of degree n - k Poincare-dual to a class of H_k given in
    canonical coordinates: evaluating any k-cocycle c on the class equals
    evaluating c cup the dual on [K].  It sums the H^(n-k) basis cocycles
    at the bits of C^-1 E x."""
    dd = duality_data(K, k)
    lam = dd.cup_inv.mul_vec(dd.eval_matrix.mul_vec(hom_coords))
    out = 0
    for i, c in enumerate(cohomology(K, K.dimension - k).cycles):
        if (lam >> i) & 1:
            out ^= c
    return out


def cochain_intersection_form(K):
    """Intersection Gram on the canonical middle homology basis by the
    cochain route: the Poincare duals of the basis classes, cupped pairwise
    on the fundamental cycle.  The oracle for ``intersection_form_matrix``."""
    k = K.dimension // 2
    duals = [poincare_dual_cocycle(K, k, 1 << i) for i in range(homology(K, k).betti)]
    fc = fundamental_class(K)
    rows = (sum(cup_eval(K, k, a, b, fc) << j for j, b in enumerate(duals)) for a in duals)
    return Gf2Matrix(len(duals), len(duals), rows)


def random_basis(n, rng):
    """A seeded invertible GF(2) matrix: 3n random row additions (none
    below dimension 2), then a row shuffle."""
    rows = [1 << i for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    return Gf2Matrix(n, n, rows)


def rebased(q, A):
    """The same quadratic form in the basis given by the columns of A."""
    evaluate = evaluate_q4 if isinstance(q, QForm4) else evaluate_q2
    values = [evaluate(q, A.column(j)) for j in range(q.dimension)]
    return type(q)(A.transpose() * q.gram * A, values)


def direct_sum(q1, q2):
    """Orthogonal sum of two forms of one kind, q1 on the low coordinates."""
    n1, n = q1.dimension, q1.dimension + q2.dimension
    rows = q1.gram.rows + tuple(row << n1 for row in q2.gram.rows)
    return type(q1)(Gf2Matrix(n, n, rows), q1.values + q2.values)


def block_sum_z4(n, rng, radical=()):
    """A seeded Z4 form of dimension n and the Brown invariant of its blocks.

    Orthogonal blocks <1> and <3> (Brown +1 and -1) and even hyperbolic
    pairs (Brown 4 when q = 2 on both vectors, 0 otherwise), then one
    radical vector per entry of ``radical`` with that value, all written
    in a seeded random basis.  With a 2 in ``radical`` the Gauss sum
    vanishes and the returned invariant is that of the other blocks.
    """
    rows, values, invariant = [], [], 0
    m = n - len(radical)
    while len(rows) < m:
        p = len(rows)
        if p + 2 <= m and rng.random() < 0.5:
            a, b = rng.choice((0, 2)), rng.choice((0, 2))
            rows += [1 << (p + 1), 1 << p]
            values += [a, b]
            invariant += 4 if a == b == 2 else 0
        else:
            v = rng.choice((1, 3))
            rows.append(1 << p)
            values.append(v)
            invariant += 2 - v
    rows += [0] * len(radical)
    values += list(radical)
    q = QForm4(Gf2Matrix(n, n, rows), values)
    return rebased(q, random_basis(n, rng)), invariant % 8


def block_sum_z2(n, rng):
    """A seeded even Z2 form of even dimension n and its Arf invariant:
    hyperbolic pairs with random values, in a seeded random basis."""
    rows, values, invariant = [], [], 0
    for p in range(0, n, 2):
        a, b = rng.randrange(2), rng.randrange(2)
        rows += [1 << (p + 1), 1 << p]
        values += [a, b]
        invariant ^= a & b
    q = QForm2(Gf2Matrix(n, n, rows), values)
    return rebased(q, random_basis(n, rng)), invariant


# --- the frozen dataclasses that conjtop.errors.Record replaced -----------------
# Kept under their own names, so their reprs are the ones the records must match.


@dataclass(frozen=True)
class FixedComponent:
    dimension: int
    cycle: int | None  # fundamental cycle in the ambient middle chain group


@dataclass(frozen=True)
class FixedSetData:
    subcomplex: SimplicialComplex
    components: tuple
    mid_dimension: int | None
    mid_cycle: int
    mid_class: int | None  # coordinates, None when ambient dimension is odd


@dataclass(frozen=True)
class TypeVerdict:
    kind: str  # "I_abs" | "I_rel" | "II"
    witness: int  # class of the fixed set, bit-packed coordinates
    compared_against: int | None  # h when the I_rel test was available

    def __str__(self):
        return self.kind


@dataclass(frozen=True)
class HarnackReport:
    fixed_total_betti: int
    space_total_betti: int
    is_m: bool


@dataclass(frozen=True)
class SmithReport:
    kernel_dimension: int
    h1_trivial: bool
    asserted: bool
    quotient_table: dict = field(compare=False)


@dataclass(frozen=True)
class ObstructionVerdict:
    obstructed: bool
    reason: str
    witness: int | None


@dataclass(frozen=True)
class CoverComplex:
    """Double cover with projection, deck involution, and sheet labels."""

    total: SimplicialComplex
    projection: SimplicialMap
    deck: SimplicialMap
    sheet_labels: tuple  # per total top simplex: (base top index, sheet bit)
    branch: SimplicialComplex | None = None


@dataclass(frozen=True)
class DividingVerdict:
    dividing: bool
    halves: tuple | None  # two frozensets of top indices when dividing
    component_count: int


@dataclass(frozen=True)
class KharlamovTrace:
    chi: int
    self_intersection_ambient: int  # -chi
    self_intersection_quotient: int  # doubled, per the covering argument
    divisible_by_16: bool
    applicable: bool
    passes: bool


@dataclass(frozen=True)
class QuotientTransferData:
    """Push/pull matrices along the double projection, caller-supplied."""

    quotient_rank: int
    p_pull: IntMatrix  # quotient -> ambient, the transfer (inverse Hopf) map
    p_push: IntMatrix  # ambient -> quotient


@dataclass(frozen=True)
class IntegerLattice:
    """Unimodular-free integer lattice with an involutive isometry."""

    rank: int
    gram: IntMatrix
    isometry: IntMatrix
    marks: dict = field(default_factory=dict)
    presentation: IntMatrix | None = None
    chi_real: int | None = None
    transfer: QuotientTransferData | None = None

    def pairing(self, x, y) -> int:
        gx = self.gram.mul_vec(list(y))
        return sum(a * b for a, b in zip(x, gx))


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


FORMER_RECORDS = {cls.__name__: cls for cls in (
    FixedComponent, FixedSetData, TypeVerdict, HarnackReport, SmithReport, ObstructionVerdict,
    CoverComplex, DividingVerdict, KharlamovTrace, QuotientTransferData, IntegerLattice,
    LoopData, LoopTable,
)}


# --- the hand-written value classes that became conjtop.errors.Record subclasses ---
# The former bodies under Former* names (only their own isinstance tests are renamed);
# the reprs of SemiOrientation and BilinearFormGF2 spell their class names.


class FormerSemiOrientation:
    __slots__ = ("carrier", "signs")

    def __init__(self, carrier: SimplicialComplex, signs):
        try:
            signs = tuple(int(s) for s in signs)
        except (TypeError, ValueError):
            raise InputError("signs must be +1 or -1") from None
        n = carrier.dimension
        if len(signs) != carrier.n_simplices(n):
            raise InputError("need one sign per top simplex")
        if any(s not in (1, -1) for s in signs):
            raise InputError("signs must be +1 or -1")
        bad = impure_simplex(carrier)
        if bad is not None:
            raise InputError(f"carrier is not pure: {bad} is not a face of a top simplex")
        if signs and signs[0] == -1:
            signs = tuple(-s for s in signs)
        self.carrier = carrier
        self.signs = signs

    def __eq__(self, other):
        return (
            isinstance(other, FormerSemiOrientation)
            and self.carrier == other.carrier
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.carrier, self.signs))

    def __repr__(self):
        return f"SemiOrientation({''.join('+' if s > 0 else '-' for s in self.signs)})"


class FormerBilinearFormGF2:
    __slots__ = ("dimension", "gram")

    def __init__(self, gram: Gf2Matrix):
        if gram.nrows != gram.ncols:
            raise InputError("Gram matrix must be square")
        if not gram.is_symmetric():
            raise InputError("Gram matrix must be symmetric")
        self.dimension = gram.nrows
        self.gram = gram

    def value(self, x: int, y: int) -> int:
        return (self.gram.mul_vec(y) & x).bit_count() & 1

    def self_value(self, x: int) -> int:
        return self.value(x, x)

    def __eq__(self, other):
        return isinstance(other, FormerBilinearFormGF2) and self.gram == other.gram

    def __repr__(self):
        return f"BilinearFormGF2({self.gram!r})"


class FormerQForm2:
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


class FormerQForm4:
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


FORMER_VALUES = {
    "SemiOrientation": FormerSemiOrientation, "BilinearFormGF2": FormerBilinearFormGF2,
    "QForm2": FormerQForm2, "QForm4": FormerQForm4,
}


def former_boundary_support(K, chain_simplices, k):
    """The per-simplex boundary count that coverings._boundary_support replaced
    (k is the vertex count of a face)."""
    count = {}
    for s in chain_simplices:
        for f in combinations(s, k):
            count[f] = count.get(f, 0) ^ 1
    return [f for f, c in count.items() if c]

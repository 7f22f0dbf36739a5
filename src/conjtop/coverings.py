"""Cut-and-glue double coverings, semi-orientations, and dividing tests.

Covers are built sheet-combinatorially: each top simplex of the base gets
two labelled copies and crossing a codimension-1 simplex of the cutting
chain flips the sheet.  Vertices of the total space are equivalence
classes of (top simplex, sheet, vertex) triples under the gluing; over the
branch locus the classes merge into a single sheet, which is exactly the
branching behaviour.

Semi-orientations (orientations up to a global flip) are stored by signs
on top simplices with a canonical representative: the lowest-indexed top
simplex carries +1.

Every orientation rule here is the oriented boundary sign: face j of a
top omits its vertex n - j, a top with sign s induces s * (-1)^(n-j) on
it, and two tops glued along a face are coherent exactly when they induce
opposite signs on it.  Each complex caches its signed dual graph
(``SimplicialComplex.dual_graph``): per shared face, the two tops, the
face's position in each and the relative sign that makes them coherent.
Orienting a surface, with or without cut and flipped edges, and splitting
it along a curve are one walk over that graph (``complexes.dual_walk``);
coherence, flip and semi-orientation checks compare signs by face index,
covers glue vertex slots by face position, and a lifted involution is one
unsigned walk for the sheet shift it applies to each top.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    _close_down,
    _levels,
    _roots,
    check_involution,
    dual_walk,
    impure_simplex,
    pseudomanifold_check,
)
from .errors import InputError, ModelIntegrityError, Record
from .gf2 import gf2_solve
from .homology import duality_data, is_cocycle


# ---------------------------------------------------------------------------
# semi-orientations
# ---------------------------------------------------------------------------


def _perm_parity(seq) -> int:
    """Parity (0 even, 1 odd) of the permutation sorting ``seq``."""
    seq = list(seq)
    parity = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                parity ^= 1
    return parity


class SemiOrientation(Record):
    """Pair of mutually opposite orientations of a pure-top-dimension carrier.

    ``signs[t]`` orients top simplex number ``t`` relative to its sorted
    vertex order; the stored representative is canonical (lowest top
    simplex positive), and equality is equality of canonical
    representatives.
    """

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
        super().__init__(carrier, signs)

    def __repr__(self):
        return f"SemiOrientation({''.join('+' if s > 0 else '-' for s in self.signs)})"


def _face_ids(K: SimplicialComplex, faces):
    """Indices of those of the given simplices that lie in K."""
    return {K.index_of(f) for f in faces if K.has_simplex(f)}


def orient_surface(K: SimplicialComplex, excluded_edges=frozenset(), flip_edges=frozenset()):
    """Signs on the triangles of a surface under per-edge constraints.

    Orientations must be coherent across ordinary interior edges,
    anti-coherent (deliberately flipped) across ``flip_edges``, and are
    unconstrained across ``excluded_edges``.  Returns the sign tuple or
    None when the constraints cannot be met.
    """
    if K.dimension != 2:
        raise InputError("orientation propagation implemented for surfaces only")
    return dual_walk(K, _face_ids(K, excluded_edges), _face_ids(K, flip_edges))[1]


def is_coherent(semi: SemiOrientation, excluded_edges=frozenset()) -> bool:
    """Coherence of a semi-orientation away from given codimension-1 faces.

    Surfaces: adjacent triangles must induce opposite signs on shared
    edges.  Curves: at every interior vertex the induced signs of its edges
    cancel (as many edges come in as go out).
    """
    K, signs = semi.carrier, semi.signs
    excluded = _face_ids(K, excluded_edges)
    if K.dimension == 1:
        net = [0] * K.n_simplices(0)
        # an edge (a, b) with sign s has boundary s * ((b) - (a))
        for (i, j), s in zip(K.face_indices(1), signs):
            net[i] -= s
            net[j] += s
        return all(d == 0 or i in excluded for i, d in enumerate(net))
    return all(p is None or f in excluded or signs[p[2]] == signs[p[0]] * p[4]
               for f, p in enumerate(K.dual_graph()[0]))


def pushforward_semiorientation(f: SimplicialMap, semi: SemiOrientation) -> tuple:
    """Signs induced on the target tops by a simplicial automorphism.

    Returns the raw (non-canonical) sign tuple so that reversal against a
    reference orientation stays visible.
    """
    K = semi.carrier
    if f.source != K or f.target != K:
        raise InputError("map must send the carrier of the semi-orientation to itself")
    n = K.dimension
    im = f.images
    out = [0] * K.n_simplices(n)
    for t, (s, j) in enumerate(zip(K.simplices(n), f.index_images(n))):
        if j < 0:
            raise InputError("automorphism degenerates a top simplex")
        out[j] = semi.signs[t] * (-1 if _perm_parity([im[v] for v in s]) else 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# covering complexes
# ---------------------------------------------------------------------------


class CoverComplex(Record):
    """Double cover with projection, deck involution, and sheet labels."""

    # sheet_labels: per total top simplex, (base top index, sheet bit)
    __slots__ = ("total", "projection", "deck", "sheet_labels", "branch")

    def __init__(self, total, projection, deck, sheet_labels, branch=None):
        super().__init__(total, projection, deck, sheet_labels, branch)


def _validate_cover(cover: CoverComplex, base: SimplicialComplex):
    total, proj, deck = cover.total, cover.projection, cover.deck
    if proj.compose(deck).images != proj.images:
        raise ModelIntegrityError("projection does not absorb the deck transformation")
    if not deck.is_involution():
        raise ModelIntegrityError("deck transformation is not an involution")
    branch_vertices = {v for (v,) in cover.branch.simplices(0)} if cover.branch else set()
    fibers = {}
    for v in range(total.vertex_count):
        fibers.setdefault(proj(v), set()).add(v)
    for v, fib in fibers.items():
        want = 1 if v in branch_vertices else 2
        if len(fib) != want:
            raise ModelIntegrityError(
                f"fiber over vertex {v} has {len(fib)} points, expected {want}"
            )
    for v in range(total.vertex_count):
        fixed = deck(v) == v
        if fixed != (proj(v) in branch_vertices):
            raise ModelIntegrityError(
                f"deck fixes vertex {v} iff it should lie over the branch locus"
            )
    chi_total = total.euler_characteristic()
    chi_base = base.euler_characteristic()
    chi_branch = cover.branch.euler_characteristic() if cover.branch is not None else 0
    if chi_total != 2 * chi_base - chi_branch:
        raise ModelIntegrityError(
            f"Euler characteristic law violated: {chi_total} != 2*{chi_base} - {chi_branch}"
        )


def double_cover_unbranched(K: SimplicialComplex, w: int) -> CoverComplex:
    """Double cover classified by a 1-cocycle: sheets flip across w-edges.

    Vertices double; within each simplex the sheet of every vertex is the
    root sheet shifted by w on the edge to the lowest vertex (the cocycle
    condition makes this consistent).  The total space is connected
    exactly when the class of w is nonzero.
    """
    if w >> K.n_simplices(1):
        raise InputError("cocycle width does not match the number of edges")
    if not is_cocycle(K, 1, w):
        raise InputError("the given 1-cochain is not a cocycle")

    nv = K.vertex_count
    # by the cocycle condition each face of a lift is the lift of a face:
    # the total is closed, and projection and deck map lifts onto simplices.
    # The lift rooted on sheet 0 holds v0 and the other lies wholly above v0,
    # so the root sheet is also the lift's rank among the two in sorted order
    lifts = {}
    for k in range(K.dimension + 1):
        # per simplex, w on the edge from v0 to each vertex: the face without
        # the last vertex holds all but the last, face k - 1 (without v1) ends in it
        if k == 0:
            shifts = [(0,)] * K.n_simplices(0)
        elif k == 1:
            shifts = [(0, (w >> i) & 1) for i in range(K.n_simplices(1))]
        else:
            shifts = [shifts[f[0]] + shifts[f[k - 1]][-1:] for f in K.face_indices(k)]
        for i, (s, shift) in enumerate(zip(K.simplices(k), shifts)):
            for sheet in (0, 1):
                lifts[tuple(sorted(v + nv * (sheet ^ b) for v, b in zip(s, shift)))] = i, sheet
    total = SimplicialComplex._trusted(2 * nv, _levels(lifts))
    proj = SimplicialMap._trusted(total, K, [v % nv for v in range(2 * nv)])
    deck = SimplicialMap._trusted(total, total, [(v + nv) % (2 * nv) for v in range(2 * nv)])
    labels = tuple(map(lifts.__getitem__, total.simplices(K.dimension)))
    cover = CoverComplex(total, proj, deck, labels)
    _validate_cover(cover, K)
    return cover


def _boundary_support(chain_simplices, k: int):
    """Support of the mod-2 boundary of a k-chain given by its distinct simplices:
    the faces met an odd number of times, in index order (a complex sorts them)."""
    odd = set()
    for s in chain_simplices:
        odd.symmetric_difference_update(combinations(s, k))
    return sorted(odd)


def branched_double_cover(K: SimplicialComplex, cut_simplices) -> CoverComplex:
    """Double cover branched over the boundary of the cutting chain.

    ``cut_simplices`` is a mod-2 chain of codimension-1 simplices; the
    branch locus A is the closure of its boundary and must be a full
    subcomplex.  Two copies of each top simplex are glued so the sheet
    flips exactly across the cut; over A the sheets merge.
    """
    n = pseudomanifold_check(K)
    cut = set()
    for s in cut_simplices:
        s = tuple(s)
        if not K.has_simplex(s) or len(s) != n:
            raise InputError(f"cut chain entry {s} is not a codimension-1 simplex")
        cut.symmetric_difference_update({s})

    branch = SimplicialComplex.from_simplices(K.vertex_count, _boundary_support(cut, n - 1))
    branch_simplices = set(branch.all_simplices())
    branch_vertices = {v for s in branch_simplices for v in s}
    within = set(map(tuple, K.simplices_within(branch_vertices)))
    if within != branch_simplices:
        extra = sorted(within - branch_simplices)[:3]
        raise InputError(
            f"branch locus is not full: ambient simplices {extra} span branch vertices; "
            "subdivide first"
        )

    tops = K.simplices(n)
    m = len(tops)

    # one slot per vertex of each copy of each top: (2 * t + sheet) * w + i
    # for the i-th vertex; the slot order is the order of (t, sheet, vertex).
    # Face j of a top omits its vertex n - j: its vertices fill the other slots
    w = n + 1
    on_face = [[i for i in range(w) if i != n - j] for j in range(w)]
    cut_ids = _face_ids(K, cut)
    glued = []
    for f, (a, ja, b, jb, _) in enumerate(K.dual_graph()[0]):
        flip = 1 if f in cut_ids else 0
        for sheet in (0, 1):
            sa, sb = (2 * a + sheet) * w, (2 * b + (sheet ^ flip)) * w
            glued += [(sa + i, sb + k) for i, k in zip(on_face[ja], on_face[jb])]
    # total vertices are the classes of glued slots, numbered by lowest slot
    number = {}
    vertex = [number.setdefault(r, len(number)) for r in _roots(2 * m * w, glued)]

    total_tops = []
    label_of = {}
    for t in range(m):
        for sheet in (0, 1):
            vs = tuple(sorted(vertex[(2 * t + sheet) * w: (2 * t + sheet + 1) * w]))
            if len(set(vs)) != len(vs):
                raise InputError(
                    f"cut-and-glue degenerates top simplex {tops[t]}; subdivide first"
                )
            if vs in label_of:
                raise InputError(
                    f"cut-and-glue identifies both copies of {tops[t]}; subdivide first"
                )
            label_of[vs] = (t, sheet)
            total_tops.append(vs)
    # the tops are distinct, sorted and in range by construction
    total = SimplicialComplex._trusted(len(number), _close_down(_levels(total_tops)))

    proj_images = [0] * len(number)
    deck_images = [0] * len(number)
    for x, i in enumerate(vertex):
        copy, pos = divmod(x, w)
        proj_images[i] = tops[copy // 2][pos]
        deck_images[i] = vertex[(copy ^ 1) * w + pos]
    # glued vertices share their base vertex, and the gluing treats both
    # sheets alike: each total top goes onto its base top and its other copy
    proj = SimplicialMap._trusted(total, K, proj_images)
    deck = SimplicialMap._trusted(total, total, deck_images)

    labels = tuple(label_of[tt] for tt in total.simplices(n))
    cover = CoverComplex(total, proj, deck, labels, branch if branch_simplices else None)
    _validate_cover(cover, K)
    if branch_simplices:
        _check_branch_preimage(cover, K)
    return cover


def _check_branch_preimage(cover: CoverComplex, K):
    """Branch simplices must be single-sheeted and deck-fixed upstairs."""
    total, proj, deck, branch = cover.total, cover.projection, cover.deck, cover.branch
    still = {v for v, u in enumerate(deck.images) if u == v}
    for k in range(total.dimension + 1):
        preimages = {K.index_of(s): [] for s in branch.simplices(k)}
        for t, i in enumerate(proj.index_images(k)):
            if i in preimages:
                preimages[i].append(t)
        for i, pre in preimages.items():
            if len(pre) != 1:
                raise ModelIntegrityError(
                    f"branch simplex {K.simplices(k)[i]} has {len(pre)} preimages, expected 1"
                )
        # the deck fixes a simplex only pointwise: v and deck(v) project to
        # one base vertex, and every total simplex projects injectively
        fixed = [t for t, s in enumerate(total.simplices(k)) if still.issuperset(s)]
        if fixed != sorted(pre[0] for pre in preimages.values()):
            raise ModelIntegrityError("deck-fixed simplices differ from the branch preimage")


# ---------------------------------------------------------------------------
# dividing test and complex semi-orientations of curves
# ---------------------------------------------------------------------------


class DividingVerdict(Record):
    __slots__ = ("dividing", "halves", "component_count")  # halves: two top sets, or None


def dividing_test(K: SimplicialComplex, tau: SimplicialMap) -> DividingVerdict:
    """Does the fixed curve separate the surface into two swapped halves?

    Components of the complement are those of the dual walk cut along the
    fixed edges.  Exactly two components swapped by the involution means
    dividing; a single invariant component means non-dividing; anything
    else cannot come from a real structure and is refused.  The surface
    must be a closed pseudomanifold, which makes it connected.
    """
    return _split_along_fixed_curve(K, tau)[0]


def _split_along_fixed_curve(K: SimplicialComplex, tau: SimplicialMap):
    """(dividing verdict, fixed curve, signs of the walk cut along it)."""
    from .involutions import fixed_subcomplex  # here: covers and curve cuts never read it

    if K.dimension != 2:
        raise InputError("dividing test runs on surface complexes")
    pseudomanifold_check(K)
    data = fixed_subcomplex(K, tau)
    F = data.subcomplex
    if F.dimension >= 0 and any(c.dimension != 1 for c in data.components):
        raise InputError("fixed set must be a curve (all components one-dimensional)")
    comp, signs = dual_walk(K, set(map(K.index_of, F.simplices(1))))
    n_comp = max(comp) + 1
    if n_comp == 1:
        return DividingVerdict(False, None, 1), F, signs
    if n_comp == 2:
        # some fixed edge joins the halves; tau swaps its two tops (F is a curve), hence the halves
        halves = tuple(frozenset(t for t, c in enumerate(comp) if c == h) for h in (0, 1))
        return DividingVerdict(True, halves, 2), F, signs
    raise InputError(
        f"complement of the fixed curve has {n_comp} components: "
        "not a real-structure pattern"
    )


def curve_complex_semiorientation(K: SimplicialComplex, tau: SimplicialMap):
    """Boundary semi-orientation the two halves induce on the fixed curve.

    Requires a dividing involution and orientable halves.  The walk cut
    along the fixed curve orients each half, with top 0 positive in half 0;
    the halves glue into an orientation of the surface exactly when one
    sign turns half 1 coherent with half 0 across every fixed edge.  Each
    half then induces a direction on every fixed edge and the two are
    opposite.  Flipping the orientation flips both at once, so only the
    semi-orientation of the curve is well defined.
    """
    verdict, F, signs = _split_along_fixed_curve(K, tau)
    if not verdict.dividing:
        raise InputError("complex semi-orientation needs a dividing involution")
    if signs is None:
        raise ModelIntegrityError(
            "surface is non-orientable: halves cannot induce orientations"
        )
    half0 = verdict.halves[0]
    pairs = K.dual_graph()[0]
    glue = None
    edge_signs = []
    for e in F.simplices(1):
        a, ja, b, jb, rel = pairs[K.index_of(e)]
        # a and b lie in different halves; this sign turns half 1 coherent with half 0
        turn = signs[a] * signs[b] * rel
        glue = glue or turn
        if turn != glue:
            raise ModelIntegrityError(
                f"halves induce the same direction on fixed edge {e}"
            )
        # the edge sign is the one the half-0 side induces
        if a not in half0:
            a, ja = b, jb
        edge_signs.append(-signs[a] if ja & 1 else signs[a])
    return SemiOrientation(F, edge_signs)


# ---------------------------------------------------------------------------
# orientation coverings and orientations modulo curves
# ---------------------------------------------------------------------------


def extendibility_check(X: SimplicialComplex, Y, semi: SemiOrientation) -> dict:
    """Per-component verdicts: does the orientation flip across each curve?

    ``Y`` is a 1-subcomplex (cycle); ``semi`` must be coherent away from
    Y's edges.  A component across which the two sides induce the same
    edge direction is a flip (the orientation does not extend), one with
    opposite inductions extends.
    """
    Y = _as_curve_subcomplex(X, Y)
    y_edges = Y.simplices(1)
    if semi.carrier != X:
        raise InputError("semi-orientation must live on the ambient surface")
    if not is_coherent(semi, y_edges):
        raise InputError("orientation is not coherent away from the curve")
    comp_of = {}
    for i, comp in enumerate(Y.components()):
        for v in comp:
            comp_of[v] = i
    pairs, signs, edges = X.dual_graph()[0], semi.signs, X.simplices(1)
    verdicts = {}
    for f in map(X.index_of, y_edges):
        if pairs[f] is None:
            continue
        a, _, b, _, rel = pairs[f]
        flips = signs[b] != signs[a] * rel
        c = comp_of[edges[f][0]]
        if c in verdicts and verdicts[c] != flips:
            raise InputError(
                f"curve component {c} has mixed flip behaviour: not a coherent cut"
            )
        verdicts[c] = flips
    return {c: ("flips" if f else "extends") for c, f in verdicts.items()}


def _as_curve_subcomplex(X, Y):
    if isinstance(Y, SimplicialComplex):
        if not X.contains_subcomplex(Y):
            raise InputError("curve is not a subcomplex of the surface")
        sub = Y
    else:
        sub = X.subcomplex([tuple(s) for s in Y])
    if sub.dimension > 1:
        raise InputError("cutting locus must be one-dimensional")
    b = _boundary_support(sub.simplices(1), 1)
    if b:
        raise InputError(f"cutting curve is not closed: boundary at {b[:3]}")
    return sub


def orientation_cover(X: SimplicialComplex, Y):
    """Cut along Y, take two copies, reglue crosswise; orient the total.

    The complement of Y must be orientable with no orientation extending
    across any component of Y (so Y is dual to the first Stiefel-Whitney
    class when X is non-orientable).  Returns the cover and the canonical
    semi-orientation of the total space; the deck transformation reverses
    it, which is asserted.
    """
    if X.dimension != 2:
        raise InputError("orientation covers implemented for surfaces")
    Y = _as_curve_subcomplex(X, Y)
    y_edges = Y.simplices(1)
    signs = orient_surface(X, flip_edges=y_edges)
    if signs is None:
        # diagnose: non-orientable complement, or an extending component
        cut = orient_surface(X, y_edges)
        if cut is None:
            raise InputError("complement of the curve is not orientable")
        verdicts = extendibility_check(X, Y, SemiOrientation(X, cut))
        extending = sorted(c for c, v in verdicts.items() if v == "extends")
        raise InputError(
            f"orientation extends across curve component(s) {extending}: "
            "not an orientation cover datum"
        )
    cover = branched_double_cover(X, y_edges)

    # orient sheet 0 by the cut orientation and sheet 1 by its reverse; a
    # lift whose vertices project in odd order onto its base top turns it over
    total = cover.total
    down = cover.projection.images
    total_signs = []
    for lifted, (bt, sheet) in zip(total.simplices(2), cover.sheet_labels):
        x, y, z = map(down.__getitem__, lifted)
        odd = sheet ^ (x > y) ^ (x > z) ^ (y > z)
        total_signs.append(-signs[bt] if odd else signs[bt])
    total_semi = SemiOrientation(total, total_signs)
    if not is_coherent(total_semi):
        raise ModelIntegrityError("orientation cover total space failed coherence")
    pushed = pushforward_semiorientation(cover.deck, total_semi)
    if pushed != tuple(-s for s in total_semi.signs):
        raise ModelIntegrityError("deck transformation does not reverse the orientation")
    return cover, total_semi


def complement_semiorientation(X: SimplicialComplex, Y) -> SemiOrientation:
    """A coherent orientation of the surface cut along a closed curve."""
    Y = _as_curve_subcomplex(X, Y)
    signs = orient_surface(X, Y.simplices(1))
    if signs is None:
        raise InputError("complement of the curve is not orientable")
    return SemiOrientation(X, signs)


def flip_semiorientation(X: SimplicialComplex, Y) -> SemiOrientation:
    """The orientation of the cut surface that flips across every cut edge.

    This is the combinatorial shape of an orientation modulo a curve: away
    from the curve it is coherent, across the curve it deliberately
    reverses.  Unique up to the global flip when the constraints are
    satisfiable on a connected surface.
    """
    Y = _as_curve_subcomplex(X, Y)
    signs = orient_surface(X, flip_edges=Y.simplices(1))
    if signs is None:
        raise InputError(
            "no orientation of the complement flips across the whole curve"
        )
    return SemiOrientation(X, signs)


def stiefel_whitney_cocycle(X: SimplicialComplex) -> int:
    """A 1-cocycle representing the first Stiefel-Whitney class of a surface.

    Characterized by Wu's formula w1 u x = x u x on H^1; the cup matrix C of
    the canonical H^1 basis is symmetric, so the coordinates of w1 solve
    C lambda = diag C.  The unbranched double cover classified by this
    cocycle is the orientation cover.
    """
    if X.dimension != 2:
        raise InputError("Stiefel-Whitney cocycle implemented for surfaces")
    dd = duality_data(X, 1)
    sol = gf2_solve(dd.cup, dd.cup.diagonal_vector())
    if sol is None:
        raise ModelIntegrityError("no cocycle evaluates as the self-intersection form")
    lam, _ = sol
    w = 0
    ll = lam
    while ll:
        i = (ll & -ll).bit_length() - 1
        ll &= ll - 1
        w ^= dd.coh.cycles[i]
    return w


def compare_mod_curves(X: SimplicialComplex, Y1, Y2, s1: SemiOrientation,
                       s2: SemiOrientation) -> dict:
    """Partition of the surface into parts where two cut orientations agree.

    Solves for a 2-chain H with boundary Y1 + Y2 (failure means the curves
    are not homologous, an input error), compares the canonical
    representatives triangle by triangle, and asserts that the agreement
    is constant on H and on its complement.  The partition is independent
    of which solution the solver returns.
    """
    Y1 = _as_curve_subcomplex(X, Y1)
    Y2 = _as_curve_subcomplex(X, Y2)

    target = 0
    for e in set(Y1.simplices(1)) ^ set(Y2.simplices(1)):
        target |= 1 << X.index_of(e)
    sol = gf2_solve(X.boundary_matrix(2), target)
    if sol is None:
        raise InputError("curves are not homologous: no chain bounds their difference")
    h_chain, _ = sol

    pairs, edges = X.dual_graph()[0], X.simplices(1)
    for semi, Y in ((s1, Y1), (s2, Y2)):
        if semi.carrier != X:
            raise InputError("semi-orientations must live on the ambient surface")
        y_edges = Y.simplices(1)
        if not is_coherent(semi, y_edges):
            raise InputError("semi-orientation incoherent away from its own curve")
        for f in map(X.index_of, y_edges):
            if pairs[f] is not None:
                a, _, b, _, rel = pairs[f]
                if semi.signs[b] == semi.signs[a] * rel:
                    raise InputError(
                        f"semi-orientation does not flip across its curve at {edges[f]}"
                    )

    m = X.n_simplices(2)
    agree = tuple(s1.signs[t] == s2.signs[t] for t in range(m))
    part_h = frozenset(t for t in range(m) if (h_chain >> t) & 1)
    part_c = frozenset(range(m)) - part_h
    for part in (part_h, part_c):
        vals = {agree[t] for t in part}
        if len(vals) > 1:
            raise ModelIntegrityError(
                "agreement is not constant on a bounding part", report={"part": sorted(part)}
            )
    return {
        "parts": (part_h, part_c),
        "agree_on_h": all(agree[t] for t in part_h) if part_h else None,
        "agree_on_complement": all(agree[t] for t in part_c) if part_c else None,
        "agree_part": frozenset(t for t in range(m) if agree[t]),
        "disagree_part": frozenset(t for t in range(m) if not agree[t]),
    }


# ---------------------------------------------------------------------------
# lifted involutions and the congruence checker
# ---------------------------------------------------------------------------


def lift_involution(cover: CoverComplex, tau: SimplicialMap):
    """Both lifts of a base involution to the total space.

    A lift sends the copy (t, s) of base top t to (tau t, s + h), where the
    0-cochain h on the dual graph of the total changes exactly across the
    lifts of the faces where the sheet cocycle c of the cover (1 across a
    face where the sheet changes) and tau*c differ.  h is one unsigned walk,
    zero on the lowest top of each component: roots keep their sheet (the
    c+ convention).  An inconsistent walk means the covering class is not
    invariant under the involution.  The second lift is deck composed with
    the first.  Each vertex goes to the vertex of its top's image that lies
    over its image downstairs.
    """
    total, proj = cover.total, cover.projection
    base = proj.target
    check_involution(base, tau)
    bad = impure_simplex(total)
    if bad is not None:
        raise InputError(f"cover total is not pure: {bad} is not a face of a top simplex")
    n = total.dimension
    labels, tau_top = cover.sheet_labels, tau.index_images(n)
    glued = [(f, labels[p[0]], labels[p[2]]) for f, p in enumerate(total.dual_graph()[0]) if p]
    change = {}
    for _, (a, sa), (b, sb) in glued:
        change[a, b] = change[b, a] = sa ^ sb
    moved = {f for f, (a, _), (b, _) in glued if change[a, b] != change[tau_top[a], tau_top[b]]}
    _, h = dual_walk(total, flip=moved, signed=False)
    if h is None:
        raise InputError("cover class not invariant under the involution: propagation conflict")

    by_label = {label: j for j, label in enumerate(labels)}
    tops, down, tau_im = total.simplices(n), proj.images, tau.images
    images = [-1] * total.vertex_count
    for i, (t, s) in enumerate(labels):
        img = tops[by_label[tau_top[t], s ^ (h[i] < 0)]]
        over = dict(zip(map(down.__getitem__, img), img))
        for v in tops[i]:
            w = over[tau_im[down[v]]]
            if images[v] >= 0 and images[v] != w:
                raise InputError(
                    "cover class not invariant under the involution: "
                    f"vertex {v} receives two images"
                )
            images[v] = w
    # a vertex id in no simplex keeps its place in its fiber
    fibers = {}
    for v, x in enumerate(down):
        fibers.setdefault(x, []).append(v)
    for v in (v for v, w in enumerate(images) if w < 0):
        images[v] = fibers[tau_im[down[v]]][fibers[down[v]].index(v)]
    # every top went onto a top vertex by vertex, so every simplex does
    c_plus = SimplicialMap._trusted(total, total, images)
    c_minus = cover.deck.compose(c_plus)
    for lift in (c_plus, c_minus):
        if proj.compose(lift).images != tau.compose(proj).images:
            raise ModelIntegrityError("constructed lift does not commute with projection")
    return c_plus, c_minus

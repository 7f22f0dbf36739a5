"""Cut-and-glue double coverings.

Covers are built sheet-combinatorially: each top simplex of the base gets
two labelled copies and crossing a codimension-1 simplex of the cutting
chain flips the sheet.  Vertices of the total space are equivalence
classes of (top simplex, sheet, vertex) triples under the gluing; over the
branch locus the classes merge into a single sheet, which is exactly the
branching behaviour.  Covers glue vertex slots by face position in the
signed dual graph.

The curve cuts live in ``conjtop.orientations``, with the sign rule: a
cover command loads none of them, a curve command none of this, and only
the orientation cover reads both.  The benchmark reads two of them from here.
"""

from .complexes import (
    SimplicialComplex, SimplicialMap, _boundary_support, _close_down, _levels, _roots,
    pseudomanifold_check,
)
from .errors import InputError, ModelIntegrityError, Record
from .gf2 import gf2_solve
from .homology import is_cocycle


class CoverComplex(Record):
    """Double cover with projection, deck involution, and sheet labels."""

    # sheet_labels: per total top simplex, (base top index, sheet bit)
    __slots__ = ("total", "projection", "deck", "sheet_labels", "branch")

    def __init__(self, total, projection, deck, sheet_labels, branch=None):
        super().__init__(total, projection, deck, sheet_labels, branch)


def _validate_cover(cover: CoverComplex, base: SimplicialComplex):
    total, proj, deck = cover.total, cover.projection, cover.deck
    if proj.compose(deck).images != proj.images:
        v = next(v for v in range(total.vertex_count) if proj(deck(v)) != proj(v))
        raise ModelIntegrityError(
            "projection does not absorb the deck transformation",
            report={"vertex": v, "image": deck(v), "base": proj(v), "image_base": proj(deck(v))})
    if not deck.is_involution():
        v = next(v for v in range(total.vertex_count) if deck(deck(v)) != v)
        raise ModelIntegrityError(
            "deck transformation is not an involution",
            report={"vertex": v, "image": deck(v), "square": deck(deck(v))})
    branch_vertices = {v for (v,) in cover.branch.simplices(0)} if cover.branch else set()
    fibers = {}
    for v in range(total.vertex_count):
        fibers.setdefault(proj(v), set()).add(v)
    for v, fib in fibers.items():
        want = 1 if v in branch_vertices else 2
        if len(fib) != want:
            raise ModelIntegrityError(
                f"fiber over vertex {v} has {len(fib)} points, expected {want}",
                report={"vertex": v, "points": len(fib), "expected": want})
    for v in range(total.vertex_count):
        fixed = deck(v) == v
        if fixed != (proj(v) in branch_vertices):
            raise ModelIntegrityError(
                f"deck fixes vertex {v} iff it should lie over the branch locus",
                report={"vertex": v, "deck_fixed": fixed, "over_branch": not fixed})
    chi_total = total.euler_characteristic()
    chi_base = base.euler_characteristic()
    chi_branch = cover.branch.euler_characteristic() if cover.branch is not None else 0
    if chi_total != 2 * chi_base - chi_branch:
        raise ModelIntegrityError(
            f"Euler characteristic law violated: {chi_total} != 2*{chi_base} - {chi_branch}",
            report={"chi_total": chi_total, "chi_base": chi_base, "chi_branch": chi_branch})


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
    cut_ids = set(map(K.index_of, cut))  # every cut simplex is in K
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
                    f"branch simplex {K.simplices(k)[i]} has {len(pre)} preimages, expected 1",
                    report={"simplex": K.simplices(k)[i], "preimages": len(pre), "expected": 1})
        # the deck fixes a simplex only pointwise: v and deck(v) project to
        # one base vertex, and every total simplex projects injectively
        fixed = [t for t, s in enumerate(total.simplices(k)) if still.issuperset(s)]
        over = sorted(pre[0] for pre in preimages.values())
        if fixed != over:
            raise ModelIntegrityError(
                "deck-fixed simplices differ from the branch preimage",
                report={"dimension": k, "deck_fixed": len(fixed), "branch_preimage": len(over),
                        "first_difference": total.simplices(k)[min(set(fixed) ^ set(over))]})


def orientation_cover(X: SimplicialComplex, Y):
    """Cut along Y, take two copies, reglue crosswise; orient the total.

    The complement of Y must be orientable with no orientation extending
    across any component of Y (so Y is dual to the first Stiefel-Whitney
    class when X is non-orientable).  Returns the cover and the canonical
    semi-orientation of the total space; the deck transformation reverses
    it, which is asserted.
    """
    from .orientations import (
        SemiOrientation, _as_curve_subcomplex, complement_semiorientation, extendibility_check,
        is_coherent, orient_surface, pushforward_semiorientation,
    )

    if X.dimension != 2:
        raise InputError("orientation covers implemented for surfaces")
    Y = _as_curve_subcomplex(X, Y)
    y_edges = Y.simplices(1)
    signs = orient_surface(X, flip_edges=y_edges)
    if signs is None:
        # diagnose: non-orientable complement, or an extending component
        verdicts = extendibility_check(X, Y, complement_semiorientation(X, Y))
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
    up = total_semi.signs
    if not is_coherent(total_semi):
        pairs = total.dual_graph()[0]
        f = next(f for f, p in enumerate(pairs) if p and up[p[2]] != up[p[0]] * p[4])
        a, _, b, _, rel = pairs[f]
        raise ModelIntegrityError(
            "orientation cover total space failed coherence",
            report={"edge": total.simplices(1)[f], "signs": (up[a], up[b]), "relative_sign": rel})
    pushed = pushforward_semiorientation(cover.deck, total_semi)
    if pushed != tuple(-s for s in up):
        t = next(t for t, s in enumerate(up) if pushed[t] != -s)
        raise ModelIntegrityError("deck transformation does not reverse the orientation",
                                  report={"top": t, "sign": up[t], "pushed_sign": pushed[t]})
    return cover, total_semi


def stiefel_whitney_cocycle(X: SimplicialComplex) -> int:
    """A 1-cocycle representing the first Stiefel-Whitney class of a surface.

    Characterized by Wu's formula w1 u x = x u x on H^1; the cup matrix C of
    the canonical H^1 basis is symmetric, so the coordinates of w1 solve
    C lambda = diag C.  The unbranched double cover classified by this
    cocycle is the orientation cover.
    """
    from .duality import duality_data

    if X.dimension != 2:
        raise InputError("Stiefel-Whitney cocycle implemented for surfaces")
    dd = duality_data(X, 1)
    sol = gf2_solve(dd.cup, dd.cup.diagonal_vector())
    if sol is None:
        raise ModelIntegrityError("no cocycle evaluates as the self-intersection form",
                                  report={"cup": dd.cup})
    lam, _ = sol
    w = 0
    for i, z in enumerate(dd.coh.cycles):
        if lam >> i & 1:
            w ^= z
    return w


def __getattr__(name):
    # the curve cuts live in orientations; the benchmark imports two of them here
    if name in ("curve_complex_semiorientation", "dividing_test"):
        from . import orientations

        return getattr(orientations, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Bundled models: curves, surfaces and 4-manifolds with involutions.

Everything here is validated at construction time.  Involutions come in
three simplicial-friendly flavours: factor swaps on staircase product
triangulations (regular because invariant chains lie on the diagonal),
reflections and free shifts on grid-of-squares triangulations with coned
squares (the coning keeps the symmetry simplicial), and doubles of a
surface with boundary (the mirror swap fixes exactly the seam).
"""

from __future__ import annotations

from itertools import combinations

from .complexes import SimplicialComplex, SimplicialMap, _close_down, _levels, barycentric_subdivide
from .errors import InputError
from .gf2 import Gf2Matrix


class ModelFile:
    """Named objects parsed from one model file (or the bundled library)."""

    def __init__(self):
        self.complexes = {}
        self.cycles = {}  # complex -> mark name -> simplices
        self.maps = {}  # name -> (src, dst, SimplicialMap)
        self.chains = {}
        self.lattices = {}
        self.loops = {}
        self.commands = []

    def __eq__(self, other):
        return isinstance(other, ModelFile) and vars(self) == vars(other)


# ---------------------------------------------------------------------------
# small classical complexes
# ---------------------------------------------------------------------------


def square_circle() -> SimplicialComplex:
    return SimplicialComplex.from_simplices(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def hexagon_circle() -> SimplicialComplex:
    edges = [tuple(sorted((i, (i + 1) % 6))) for i in range(6)]
    return SimplicialComplex.from_simplices(6, edges)


def sphere_tetra() -> SimplicialComplex:
    """Boundary of the 3-simplex."""
    return SimplicialComplex.from_simplices(4, combinations(range(4), 3))


def sphere_octa() -> SimplicialComplex:
    """Octahedron with antipodal vertex pairs (0,5), (1,4), (2,3)."""
    faces = [tuple(sorted((a, b, c))) for a in (0, 5) for b in (1, 4) for c in (2, 3)]
    return SimplicialComplex.from_simplices(6, faces)


def torus7() -> SimplicialComplex:
    """The 7-vertex torus with cyclic symmetry."""
    faces = []
    for i in range(7):
        faces.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex.from_simplices(7, faces)


def rp2_6vertex() -> SimplicialComplex:
    """Six-vertex projective plane (antipodal icosahedron)."""
    faces = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
    return SimplicialComplex.from_simplices(6, faces)


RP2_GENERATOR_CYCLE = ((1, 2), (2, 3), (1, 3))


# ---------------------------------------------------------------------------
# staircase products and factor swaps
# ---------------------------------------------------------------------------


def product_complex(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Ordered (staircase) product triangulation of two complexes.

    Vertex (u, v) gets index u * L.vertex_count + v; top cells over a
    facet pair are the monotone lattice paths through the grid of their
    vertices, which makes the triangulation compatible with the vertex
    orders of the factors.
    """
    nl = L.vertex_count
    tops = []
    for sigma in K.facets():
        for tau in L.facets():
            p, q = len(sigma) - 1, len(tau) - 1
            for moves in combinations(range(p + q), p):
                path = []
                x = y = 0
                path.append(sigma[0] * nl + tau[0])
                for step in range(p + q):
                    if step in moves:
                        x += 1
                    else:
                        y += 1
                    path.append(sigma[x] * nl + tau[y])
                tops.append(tuple(sorted(path)))
    return SimplicialComplex.from_simplices(K.vertex_count * nl, tops)


def factor_swap(P: SimplicialComplex, n: int) -> SimplicialMap:
    """Swap of the two factors on a self-product with n-vertex factors."""
    images = [0] * P.vertex_count
    for u in range(n):
        for v in range(n):
            images[u * n + v] = v * n + u
    return SimplicialMap(P, P, images)


def factor_cycle(K: SimplicialComplex, n: int, fixed_vertex: int, side: str):
    """Top simplices of K x {v} or {v} x K inside a self-product."""
    out = []
    for s in K.facets():
        if side == "left":
            out.append(tuple(sorted(u * n + fixed_vertex for u in s)))
        else:
            out.append(tuple(sorted(fixed_vertex * n + v for v in s)))
    return tuple(out)


def diagonal_cycle(K: SimplicialComplex, n: int):
    return tuple(tuple(sorted(u * n + u for u in s)) for s in K.facets())


def quadric_complex():
    """Product of two 4-vertex spheres with the factor swap.

    Returns (complex, swap, marked cycles): the marked basis consists of
    the two sphere factors through vertex 0, matching the two families of
    lines on the real quadric with empty imaginary part.
    """
    S = sphere_tetra()
    P = product_complex(S, S)
    swap = factor_swap(P, 4)
    marks = {
        "basis0": factor_cycle(S, 4, 0, "left"),
        "basis1": factor_cycle(S, 4, 0, "right"),
        "diagonal": diagonal_cycle(S, 4),
    }
    return P, swap, marks


def torus_diagonal():
    """Square-circle self-product with the factor swap; fixed set is the
    diagonal circle, which does not separate."""
    C = square_circle()
    P = product_complex(C, C)
    swap = factor_swap(P, 4)
    marks = {"diagonal": diagonal_cycle(C, 4)}
    return P, swap, marks


# ---------------------------------------------------------------------------
# grid-of-squares surfaces with coned squares
# ---------------------------------------------------------------------------


def _coned_grid(nx, ny, wrap):
    """Coned grid surface: vertex (i, j) plus one cone point per square.

    ``wrap(i, j)`` normalizes grid coordinates to a vertex id in
    0..nx*ny-1 and encodes the identifications (torus, Klein bottle).
    Returns (triangles, center_of) with centers numbered after the grid.
    """
    triangles = []
    center_of = {}
    for i in range(nx):
        for j in range(ny):
            c = nx * ny + len(center_of)
            center_of[(i, j)] = c
            a = wrap(i, j)
            b = wrap(i + 1, j)
            d = wrap(i + 1, j + 1)
            e = wrap(i, j + 1)
            for (x, y) in ((a, b), (b, d), (d, e), (e, a)):
                triangles.append(tuple(sorted((c, x, y))))
    return triangles, center_of


def coned_grid_torus(n=4):
    """Flat n x n torus, every square coned at its barycenter."""

    def wrap(i, j):
        return (i % n) * n + (j % n)

    triangles, center_of = _coned_grid(n, n, wrap)
    K = SimplicialComplex.from_simplices(n * n + len(center_of), triangles)
    return K, wrap, center_of


def torus_reflection():
    """Coned grid torus with the reflection x -> -x.

    The reflection fixes the two vertical circles x = 0 and x = n/2; it is
    an M-curve-style real structure on the torus, dividing it into two
    annuli.
    """
    n = 4
    K, wrap, center_of = coned_grid_torus(n)
    images = [0] * K.vertex_count
    for i in range(n):
        for j in range(n):
            images[wrap(i, j)] = wrap(-i, j)
    for (i, j), c in center_of.items():
        images[c] = center_of[((-i - 1) % n, j)]
    tau = SimplicialMap(K, K, images)
    marks = {
        f"col{i}": tuple(
            tuple(sorted((wrap(i, j), wrap(i, j + 1)))) for j in range(n)
        )
        for i in range(n)
    }
    marks["row0"] = tuple(tuple(sorted((wrap(i, 0), wrap(i + 1, 0)))) for i in range(n))
    return K, tau, marks


def torus_free_shift():
    """Coned grid torus with the free half-turn x -> x + n/2."""
    n = 4
    K, wrap, center_of = coned_grid_torus(n)
    images = [0] * K.vertex_count
    for i in range(n):
        for j in range(n):
            images[wrap(i, j)] = wrap(i + 2, j)
    for (i, j), c in center_of.items():
        images[c] = center_of[((i + 2) % n, j)]
    return K, SimplicialMap(K, K, images)


def coned_grid_klein(n=4):
    """Klein bottle: x wraps straight, y wraps with the flip x -> -x.

    Its free involution, the half-turn (i, j) -> (i + n/2, j), needs an even
    n: a shift by c respects the flip gluing only when 2c = 0 mod n.
    """
    if n % 2:
        raise InputError(f"the Klein bottle grid needs an even side for its half-turn, got {n}")
    half = n // 2

    def wrap(i, j):
        i, j = i % (2 * n), j  # allow one wrap in y before normalizing
        if j >= n:
            j -= n
            i = -i
        return (i % n) * n + (j % n)

    triangles, center_of = _coned_grid(n, n, wrap)
    K = SimplicialComplex.from_simplices(n * n + len(center_of), triangles)
    marks = {
        "w1dual": tuple(tuple(sorted((wrap(i, 0), wrap(i + 1, 0)))) for i in range(n)),
    }
    images = [0] * K.vertex_count
    for i in range(n):
        for j in range(n):
            images[wrap(i, j)] = wrap(i + half, j)
    for (i, j), c in center_of.items():
        images[c] = center_of[((i + half) % n, j)]
    shift = SimplicialMap(K, K, images)
    return K, marks, shift


# ---------------------------------------------------------------------------
# genus-2 real structures
# ---------------------------------------------------------------------------


def torus_with_hole():
    """Coned grid torus minus one square cone; boundary is a 4-cycle."""
    n = 4
    K, wrap, center_of = coned_grid_torus(n)
    removed_center = center_of[(0, 0)]
    triangles = [t for t in K.simplices(2) if removed_center not in t]
    H = SimplicialComplex.from_simplices(K.vertex_count, triangles)
    boundary = (wrap(0, 0), wrap(1, 0), wrap(1, 1), wrap(0, 1))
    return H, boundary


def double_along_boundary(H: SimplicialComplex, boundary_vertices):
    """Double of a surface with boundary; the mirror swap is the involution.

    Interior vertices are duplicated with an offset, boundary vertices are
    shared.  Refuses when a simplex spanned by boundary vertices is not on
    the boundary, the codimension-one faces with exactly one coface (the
    mirror image would collide; subdivide first).
    """
    bset = set(boundary_vertices)
    n = H.dimension
    boundary = (f for f, c in zip(H.simplices(n - 1), H.cofaces(n - 1)) if len(c) == 1)
    rim = set().union(*_close_down(_levels(boundary)))
    for s in H.simplices_within(bset):
        if s not in rim:
            raise InputError(f"interior simplex {s} lies on the boundary; subdivide")
    nv = H.vertex_count

    def mirror(v):
        return v if v in bset else v + nv

    # the mirror is injective on vertices and carries faces to faces
    simplices = list(H.all_simplices())
    simplices += [tuple(sorted(mirror(v) for v in s)) for s in H.all_simplices()]
    K = SimplicialComplex._trusted(2 * nv, _levels(simplices))
    images = list(range(2 * nv))
    for v in range(nv):
        if v not in bset:
            images[v] = v + nv
            images[v + nv] = v
    tau = SimplicialMap(K, K, images)
    return K, tau


def genus2_dividing():
    """Double of the torus with a hole: one separating fixed circle."""
    H, boundary = torus_with_hole()
    K, tau = double_along_boundary(H, boundary)
    return K, tau


def mobius_band_small() -> SimplicialComplex:
    """Six-vertex Moebius band with a 4-cycle boundary 0-1-2-3."""
    P, Q, R, S, m1, m2 = range(6)
    triangles = [
        (m1, P, Q), (m1, Q, S), (m1, S, R), (m1, R, P),
        (m2, Q, R), (m2, R, P), (m2, P, S), (m2, S, Q),
    ]
    return SimplicialComplex.from_simplices(6, [tuple(sorted(t)) for t in triangles])


def nonorientable_genus3():
    """Torus with a crosscap: the Moebius band glued into the torus hole."""
    H, boundary = torus_with_hole()
    A, B, C, D = boundary
    mob = mobius_band_small()
    base = H.vertex_count
    relabel = {0: A, 1: B, 2: C, 3: D, 4: base, 5: base + 1}
    simplices = list(H.all_simplices())
    simplices += [tuple(sorted(relabel[v] for v in s)) for s in mob.all_simplices()]
    return SimplicialComplex.from_simplices(base + 2, simplices)


def genus2_nondividing():
    """Orientation double cover of the nonorientable genus-3 surface.

    The deck involution is free and orientation-reversing: the picture of
    a genus-2 real curve without real points.
    """
    from .coverings import double_cover_unbranched, stiefel_whitney_cocycle

    N = nonorientable_genus3()
    w = stiefel_whitney_cocycle(N)
    cover = double_cover_unbranched(N, w)
    return cover.total, cover.deck


# ---------------------------------------------------------------------------
# branched covering fixtures
# ---------------------------------------------------------------------------


def octa_subdivided_with_arcs():
    """Barycentric octahedron plus two disjoint arcs between antipodes.

    Arc endpoints are original vertices, which are pairwise non-adjacent
    after subdivision, so every branch locus built from these arcs is
    full.
    """
    octa = sphere_octa()
    sub, _ = barycentric_subdivide(octa)
    order = sorted(octa.all_simplices(), key=lambda s: (len(s), s))
    rank = {s: i for i, s in enumerate(order)}

    def arc(v0, v1, v2):
        # v0 -- barycenter{v0,v1} -- v1 -- barycenter{v1,v2} -- v2
        stations = [rank[(v0,)], rank[tuple(sorted((v0, v1)))], rank[(v1,)],
                    rank[tuple(sorted((v1, v2)))], rank[(v2,)]]
        return tuple(tuple(sorted((a, b))) for a, b in zip(stations, stations[1:]))

    arc1 = arc(0, 1, 5)
    arc2 = arc(2, 4, 3)
    return sub, arc1, arc2


# ---------------------------------------------------------------------------
# abstract 4-manifold data and lattices
# ---------------------------------------------------------------------------


def t4_chain_data():
    """Product of two maximal real elliptic curves, as minimal cell data.

    The 4-torus with its product cell structure has one cell per subset of
    the four circle directions and all boundary maps vanish.  A conjugation
    with two real circles on each factor acts trivially on mod-2 homology;
    the real part is four tori, an M-object, with class zero.
    """
    from .homology import ChainComplexData
    from .intmat import IntMatrix

    ranks = (1, 4, 6, 4, 1)
    boundaries = [Gf2Matrix.zeros(ranks[k - 1], ranks[k]) for k in range(1, 5)]
    int_boundaries = [IntMatrix.zeros(ranks[k - 1], ranks[k]) for k in range(1, 5)]
    involution = [Gf2Matrix.identity(r) for r in ranks]
    pairing = Gf2Matrix.from_rows(
        [
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
        ]
    )
    return ChainComplexData(
        ranks,
        boundaries,
        int_boundaries=int_boundaries,
        involution=involution,
        pairing=pairing,
        fixed_class=0,
        fixed_betti_total=16,
    )


def quadric_lattice():
    """Integer middle homology of the quadric sphere with its transfer data.

    The two line families generate; conjugation swaps them.  The quotient
    contributes one class whose pull-back is the invariant vector (1, 1).
    """
    from .intmat import IntMatrix
    from .lattices import QuotientTransferData, build_lattice

    gram = IntMatrix([[0, 1], [1, 0]])
    isometry = IntMatrix([[0, 1], [1, 0]])
    transfer = QuotientTransferData(1, IntMatrix([[1], [1]]), IntMatrix([[1, 1]]))
    marks = {
        "h": (1, 1),
        "cand_a": (1, 1),
        "cand_b": (2, 2),
        "cand_c": (-2, -2),
        "cand_d": (2, 0),
    }
    return build_lattice(gram, isometry, marks, transfer=transfer)


def t4_lattice():
    """Rank-6 middle lattice of the abelian surface model.

    Basis: products of circle classes ab, aa', ab', ba', bb', a'b' with
    conjugation negating b and b'; the form pairs complementary products.
    """
    from .intmat import IntMatrix
    from .lattices import build_lattice

    gram = IntMatrix(
        [
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, -1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, -1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
        ]
    )
    isometry = IntMatrix.diagonal([-1, 1, -1, -1, 1, -1])
    marks = {"alpha": (0, 0, 0, 0, 0, 0)}
    return build_lattice(gram, isometry, marks, chi_real=0)


def bundled_loop_tables():
    from .qforms import LoopData, LoopTable

    hyp = Gf2Matrix.from_rows([[0, 1], [1, 0]])
    torus_loops = LoopTable(
        "spin",
        hyp,
        (LoopData(1, (1,)), LoopData(1, (1,))),
        ((0b11, LoopData(2, (1, 0))),),
    )
    rp2_loops = LoopTable("pin", Gf2Matrix.from_rows([[1]]), (LoopData(1, (0,), 1),))
    klein_loops = LoopTable(
        "pin",
        Gf2Matrix.from_rows([[0, 1], [1, 1]]),
        (LoopData(1, (1,), 0), LoopData(1, (0,), 1)),
    )
    return {"torus_loops": torus_loops, "rp2_loops": rp2_loops, "klein_loops": klein_loops}


# ---------------------------------------------------------------------------
# the library
# ---------------------------------------------------------------------------


def _add(model, name, K, marks=None, involution=None):
    """Add complex ``name`` with its marked cycles and a ``(map name, tau)`` involution."""
    model.complexes[name] = K
    if marks:
        model.cycles[name] = {k: tuple(v) for k, v in marks.items()}
    if involution:
        model.maps[involution[0]] = (name, name, involution[1])


def _small_complexes(model):
    sq, hexa = square_circle(), hexagon_circle()
    _add(model, "square_circle", sq,
         involution=("square_reflection", SimplicialMap(sq, sq, [0, 3, 2, 1])))
    antipodal = SimplicialMap(hexa, hexa, [(v + 3) % 6 for v in range(6)])
    _add(model, "hexagon_circle", hexa, involution=("hexagon_antipodal", antipodal))
    _add(model, "sphere_tetra", sphere_tetra())
    _add(model, "sphere_octa", sphere_octa())
    _add(model, "torus7", torus7())


def _rp2(model):
    from .coverings import stiefel_whitney_cocycle

    rp2 = rp2_6vertex()
    w = stiefel_whitney_cocycle(rp2)
    w_edges = tuple(e for i, e in enumerate(rp2.simplices(1)) if (w >> i) & 1)
    _add(model, "rp2_6vertex", rp2, {"generator": RP2_GENERATOR_CYCLE, "w1_cocycle": w_edges})


def _torus_grids(model):
    K, tau, marks = torus_reflection()
    _add(model, "torus_grid", K, marks, ("torus_reflection", tau))
    Kf, tauf = torus_free_shift()
    _add(model, "torus_grid_free", Kf, involution=("torus_free", tauf))


def _torus_product(model):
    P, swap, marks = torus_diagonal()
    _add(model, "torus_product", P, marks, ("torus_diagonal", swap))


def _klein_bottle(model):
    KB, marks, shift = coned_grid_klein()
    _add(model, "klein_bottle", KB, marks, ("klein_shift", shift))


def _quadric(model):
    Q, swap, marks = quadric_complex()
    _add(model, "quadric", Q, marks, ("quadric", swap))


def _genus2_dividing(model):
    G, tau = genus2_dividing()
    _add(model, "genus2_dividing_surface", G, involution=("genus2_dividing", tau))


def _genus2_nondividing(model):
    G, tau = genus2_nondividing()
    _add(model, "genus2_nondividing_surface", G, involution=("genus2_nondividing", tau))


def _sphere_octa_sub(model):
    sub, arc1, arc2 = octa_subdivided_with_arcs()
    _add(model, "sphere_octa_sub", sub, {"arc1": arc1, "arc2": arc2, "arcs_both": arc1 + arc2})


# builder -> the names it defines, in library order
_LIBRARY = {
    _small_complexes: ("square_circle", "square_reflection", "hexagon_circle",
                       "hexagon_antipodal", "sphere_tetra", "sphere_octa", "torus7"),
    _rp2: ("rp2_6vertex",),
    _torus_grids: ("torus_grid", "torus_reflection", "torus_grid_free", "torus_free"),
    _torus_product: ("torus_product", "torus_diagonal"),
    _klein_bottle: ("klein_bottle", "klein_shift"),
    _quadric: ("quadric",),
    _genus2_dividing: ("genus2_dividing_surface", "genus2_dividing"),
    lambda m: _add(m, "nonorientable_genus3", nonorientable_genus3()): ("nonorientable_genus3",),
    _genus2_nondividing: ("genus2_nondividing_surface", "genus2_nondividing"),
    _sphere_octa_sub: ("sphere_octa_sub",),
    lambda m: m.chains.update(t4_chain=t4_chain_data()): ("t4_chain",),
    lambda m: m.lattices.update(quadric_lattice=quadric_lattice(), t4_lattice=t4_lattice()):
        ("quadric_lattice", "t4_lattice"),
    lambda m: m.loops.update(bundled_loop_tables()): ("torus_loops", "rp2_loops", "klein_loops"),
}


def model_library(name=None) -> ModelFile:
    """The bundled models, named as the command line expects them: all of
    them, or only the group that defines ``name``.

    Involutions are maps whose name doubles as the model name; marked
    cycles provide geometric homology bases and cutting curves.
    """
    model = ModelFile()
    for build, names in _LIBRARY.items():
        if name is None or name in names:
            build(model)
    return model

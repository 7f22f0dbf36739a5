"""Genus-2 real structures: doubles along a boundary, and the orientation cover of N_3."""

from ..complexes import SimplicialComplex, SimplicialMap, _close_down, _levels
from ..errors import InputError
from . import _add
from .grids import coned_grid_torus


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
    from ..coverings import double_cover_unbranched, stiefel_whitney_cocycle

    N = nonorientable_genus3()
    w = stiefel_whitney_cocycle(N)
    cover = double_cover_unbranched(N, w)
    return cover.total, cover.deck


def _genus2_dividing(model):
    G, tau = genus2_dividing()
    _add(model, "genus2_dividing_surface", G, involution=("genus2_dividing", tau))


def _nonorientable_genus3(model):
    _add(model, "nonorientable_genus3", nonorientable_genus3())


def _genus2_nondividing(model):
    G, tau = genus2_nondividing()
    _add(model, "genus2_nondividing_surface", G, involution=("genus2_nondividing", tau))

"""Grid-of-squares tori and Klein bottles with coned squares, and their involutions."""

from ..complexes import SimplicialComplex, SimplicialMap
from ..errors import InputError
from . import _add


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


def torus_reflection(grid=None):
    """Coned grid torus with the reflection x -> -x.

    The reflection fixes the two vertical circles x = 0 and x = n/2; it is
    an M-curve-style real structure on the torus, dividing it into two
    annuli.  ``grid`` is a ``coned_grid_torus(4)`` to build on.
    """
    n = 4
    K, wrap, center_of = grid or coned_grid_torus(n)
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


def torus_free_shift(grid=None):
    """Coned grid torus with the free half-turn x -> x + n/2, on ``grid`` if given."""
    n = 4
    K, wrap, center_of = grid or coned_grid_torus(n)
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


def _shared(model, key, build):
    """``build()``, made once per model_library call for every group built on it."""
    if key not in model._shared:
        model._shared[key] = build()
    return model._shared[key]


def _torus_grids(model):
    grid = _shared(model, "grid", coned_grid_torus)
    K, tau, marks = torus_reflection(grid)
    _add(model, "torus_grid", K, marks, ("torus_reflection", tau))
    Kf, tauf = torus_free_shift(grid)
    _add(model, "torus_grid_free", Kf, involution=("torus_free", tauf))


def _klein_bottle(model):
    KB, marks, shift = coned_grid_klein()
    _add(model, "klein_bottle", KB, marks, ("klein_shift", shift))

"""Staircase self-products of small complexes with their factor swaps."""

from itertools import combinations

from ..complexes import SimplicialComplex, SimplicialMap
from . import _add
from .small import sphere_tetra, square_circle


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


def _torus_product(model):
    P, swap, marks = torus_diagonal()
    _add(model, "torus_product", P, marks, ("torus_diagonal", swap))


def _quadric(model):
    Q, swap, marks = quadric_complex()
    _add(model, "quadric", Q, marks, ("quadric", swap))

"""Curves on a surface: the dividing test, complex semi-orientations, and
orientations modulo curves.

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
coherence, flip and semi-orientation checks compare signs by face index.
The cut-and-glue covers live in ``conjtop.coverings``.
"""

from .complexes import (
    SimplicialComplex, SimplicialMap, _boundary_support, _integers, dual_walk, impure_simplex,
    pseudomanifold_check,
)
from .errors import InputError, ModelIntegrityError, Record
from .gf2 import gf2_solve


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
        signs = _integers(signs, "signs must be +1 or -1")
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


class DividingVerdict(Record):
    __slots__ = ("dividing", "halves", "component_count")  # halves: two top sets, or None


def dividing_test(K: SimplicialComplex, tau: SimplicialMap) -> DividingVerdict:
    """Does the fixed curve separate the surface into two swapped halves?

    The dual walk cut along the fixed edges gives the complement's components:
    two, swapped by the involution, mean dividing, one means non-dividing, and
    more are refused.  The surface must be a closed pseudomanifold, hence
    connected.  The split is remembered per map; the checks run on every call.
    """
    return _split_along_fixed_curve(K, tau)[0]


def _split_along_fixed_curve(K: SimplicialComplex, tau: SimplicialMap):
    """(dividing verdict, fixed curve, signs of the walk cut along it); a refusal stores nothing."""
    from .involutions import check_regular_involution, fixed_subcomplex  # compare needs neither

    if K.dimension != 2:
        raise InputError("dividing test runs on surface complexes")
    pseudomanifold_check(K)
    check_regular_involution(K, tau)
    if "split" in tau._memo:
        return tau._memo["split"]
    data = fixed_subcomplex(K, tau)
    F = data.subcomplex
    if F.dimension >= 0 and any(c.dimension != 1 for c in data.components):
        raise InputError("fixed set must be a curve (all components one-dimensional)")
    comp, signs = dual_walk(K, set(map(K.index_of, F.simplices(1))))
    n_comp = max(comp) + 1
    if n_comp > 2:
        raise InputError(f"complement of the fixed curve has {n_comp} components: "
                         "not a real-structure pattern")
    halves = None
    if n_comp == 2:  # tau swaps the tops of a fixed edge joining the halves, hence the halves
        halves = tuple(frozenset(t for t, c in enumerate(comp) if c == h) for h in (0, 1))
    tau._memo["split"] = DividingVerdict(n_comp == 2, halves, n_comp), F, signs
    return tau._memo["split"]


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
            "surface is non-orientable: halves cannot induce orientations",
            report={"fixed_edges": F.n_simplices(1), "half_sizes": tuple(map(len, verdict.halves))})
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
            raise ModelIntegrityError(f"halves induce the same direction on fixed edge {e}",
                                      report={"edge": e, "turn": turn, "glue": glue})
        # the edge sign is the one the half-0 side induces
        if a not in half0:
            a, ja = b, jb
        edge_signs.append(-signs[a] if ja & 1 else signs[a])
    return SemiOrientation(F, edge_signs)


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
            raise InputError(f"curve component {c} has mixed flip behaviour: not a coherent cut")
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
        raise InputError("no orientation of the complement flips across the whole curve")
    return SemiOrientation(X, signs)


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

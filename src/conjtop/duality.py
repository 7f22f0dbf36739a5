"""Induced maps, cup products and the intersection form on middle homology.

The form is read from the cup and evaluation matrices of
:func:`duality_data`; no Poincare dual cochain is built, and the cup matrix
is one pass over the top simplices, whatever the number of classes.  Of
the ``conjtop`` commands only ``conj-form`` reads a form, so this layer
lives apart from ``conjtop.homology``.
"""

from .complexes import SimplicialComplex, SimplicialMap, fundamental_class, pseudomanifold_check
from .errors import InputError, Record
from .gf2 import Gf2Matrix, dot, gf2_invert
from .homology import ChainCarrier, cohomology, homology, is_cocycle


def middle_dimension(space) -> int:
    """Half the dimension of an even-dimensional carrier; odd ones are refused."""
    if space.dimension % 2 == 0:
        return space.dimension // 2
    raise InputError("middle dimension undefined for odd-dimensional data"
                     if isinstance(space, ChainCarrier)
                     else "operation requires an even-dimensional space")


def chain_map_image(f: SimplicialMap, k: int, chain: int) -> int:
    """Push a k-chain through a simplicial map; degenerate images drop out."""
    images = f.index_images(k)
    out = 0
    while chain:
        i = images[(chain & -chain).bit_length() - 1]
        chain &= chain - 1
        if i >= 0:
            out ^= 1 << i
    return out


def induced_map(f_or_data, k: int) -> Gf2Matrix:
    """Matrix of the induced map on mod-2 homology in dimension k.

    Accepts a SimplicialMap, or ChainComplexData carrying an involution
    chain map.  Columns are coordinates of the images of the canonical
    source basis cycles in the canonical target basis.
    """
    if isinstance(f_or_data, ChainCarrier):
        if f_or_data.involution is None:
            raise InputError("chain data carries no involution chain map")
        source = target = f_or_data

        def push(z):
            return f_or_data.involution[k].mul_vec(z)
    else:
        source, target = f_or_data.source, f_or_data.target

        def push(z):
            return chain_map_image(f_or_data, k, z)
    src, dst = homology(source, k), homology(target, k)
    cols = [dst.coordinates_of(push(z)) for z in src.cycles]
    return Gf2Matrix(len(cols), dst.betti, cols).transpose()


def _cup_matrix(K: SimplicialComplex, k: int, left, right) -> list:
    """Front-face/back-face products on the tops of K in the global vertex
    order: bit j of row i evaluates ``left[i]`` (degree k) cup ``right[j]``
    (degree n-k).

    Each k-simplex and each (n-k)-simplex gets the bitset of the cochains of
    its side that contain it; one pass over the tops XORs the back face's
    bitset into the row of each cochain holding the front face.  Callers
    check first that the tops form the fundamental cycle.
    """
    n = K.dimension
    front_of, back_of = [0] * K.n_simplices(k), [0] * K.n_simplices(n - k)
    for holders, cochains in ((front_of, left), (back_of, right)):
        for j, c in enumerate(cochains):
            while c:
                holders[(c & -c).bit_length() - 1] |= 1 << j
                c &= c - 1
    rows = [0] * len(left)
    tops, get = K.simplices(n), K._index.__getitem__
    for f, b in zip(map(get, [s[: k + 1] for s in tops]), map(get, [s[k:] for s in tops])):
        a, r = front_of[f], back_of[b]
        while a and r:
            rows[(a & -a).bit_length() - 1] ^= r
            a &= a - 1
    return rows


def cup_pairing(K: SimplicialComplex, k: int, a: int, b: int) -> int:
    """Cup-product pairing of two cocycles of complementary degrees: the
    1 x 1 case of the pass that builds the cup matrix of :func:`duality_data`."""
    n = K.dimension
    if not 0 <= k <= n:
        raise InputError(f"degree {k} out of range for a {n}-complex")
    if a >> K.n_simplices(k) or b >> K.n_simplices(n - k):
        raise InputError("cochain width does not match the simplex count")
    if not is_cocycle(K, k, a):
        raise InputError("first argument is not a cocycle")
    if not is_cocycle(K, n - k, b):
        raise InputError("second argument is not a cocycle")
    fundamental_class(K)
    return _cup_matrix(K, k, (a,), (b,))[0]


class DualityData(Record):
    """Canonical bases in degree k with the cup matrix C of H^k against
    H^(n-k), its inverse, and the evaluation matrix E of H^k on H_k."""

    __slots__ = ("hom", "coh", "cup", "cup_inv", "eval_matrix")


def duality_data(K: SimplicialComplex, k: int) -> DualityData:
    """Duality package in degree k of a closed pseudomanifold, remembered per
    complex and degree; the pseudomanifold check runs on every call.

    The cup matrix C of the canonical H^k and H^(n-k) bases is one pass
    over the tops (:func:`_cup_matrix`).  Raises, and stores nothing, when the
    cup pairing between degrees k and n-k degenerates or the evaluation pairing
    is singular; such inputs fail the duality audit and have no middle form.
    """
    n = pseudomanifold_check(K)
    if ("duality", k) in K._memo:
        return K._memo["duality", k]
    hom = homology(K, k)
    coh = cohomology(K, k)
    coh_dual = cohomology(K, n - k)
    if hom.betti != coh.betti:
        raise InputError("evaluation pairing is degenerate (betti mismatch)")
    cup = Gf2Matrix(coh.betti, coh_dual.betti, _cup_matrix(K, k, coh.cycles, coh_dual.cycles))
    eval_matrix = Gf2Matrix(
        coh.betti,
        hom.betti,
        (
            sum(dot(ci, zj) << j for j, zj in enumerate(hom.cycles))
            for ci in coh.cycles
        ),
    )
    if coh.betti != coh_dual.betti:
        raise InputError(
            f"duality audit failed: betti {coh.betti} in degree {k} vs "
            f"{coh_dual.betti} in degree {n - k}"
        )
    try:
        cup_inv = gf2_invert(cup)
    except InputError:
        raise InputError(f"duality audit failed: cup pairing degenerate in degree {k}") from None
    try:
        gf2_invert(eval_matrix)
    except InputError:
        raise InputError("evaluation pairing between cohomology and homology is singular")
    K._memo["duality", k] = DualityData(hom, coh, cup, cup_inv, eval_matrix)
    return K._memo["duality", k]


def duality_audit(K: SimplicialComplex) -> bool:
    """Cup-pairing nondegeneracy check in every degree; True or raises."""
    n = K.dimension
    for k in range(n + 1):
        duality_data(K, k)
    return True


def intersection_form_matrix(dd: DualityData) -> Gf2Matrix:
    """Mod-2 intersection form on the canonical basis of middle homology.

    In the middle degree C pairs the H^k basis with itself.  The Poincare
    dual of class j has coordinates L e_j with L = C^-1 E, so the form is
    L^T C L, which is L^T E because C L = E.
    """
    return (dd.cup_inv * dd.eval_matrix).transpose() * dd.eval_matrix

"""Algebraic data with no complex: 4-torus chain data, lattices and loop tables."""

from ..gf2 import Gf2Matrix


def t4_chain_data():
    """Product of two maximal real elliptic curves, as minimal cell data.

    The 4-torus with its product cell structure has one cell per subset of
    the four circle directions and all boundary maps vanish.  A conjugation
    with two real circles on each factor acts trivially on mod-2 homology;
    the real part is four tori, an M-object, with class zero.
    """
    from ..chains import ChainComplexData
    from ..intmat import IntMatrix

    ranks = (1, 4, 6, 4, 1)
    boundaries = [Gf2Matrix.zeros(ranks[k - 1], ranks[k]) for k in range(1, 5)]
    int_boundaries = [IntMatrix.zeros(ranks[k - 1], ranks[k]) for k in range(1, 5)]
    involution = [Gf2Matrix.identity(r) for r in ranks]
    # 2-cells i and 5 - i are complementary, and only they pair
    pairing = Gf2Matrix.from_rows([[int(i + j == 5) for j in range(6)] for i in range(6)])
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
    from ..intmat import IntMatrix
    from ..lattices import QuotientTransferData, build_lattice

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
    from ..intmat import IntMatrix
    from ..lattices import build_lattice

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
    from ..qforms import LoopData, LoopTable

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


def _t4_chain(model):
    model.chains.update(t4_chain=t4_chain_data())


def _lattices(model):
    model.lattices.update(quadric_lattice=quadric_lattice(), t4_lattice=t4_lattice())


def _loops(model):
    model.loops.update(bundled_loop_tables())

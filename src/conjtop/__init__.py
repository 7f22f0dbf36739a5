"""conjtop: topology of involutions on finite complexes, exactly.

The package makes the classical topology of real algebraic curves and
surfaces computable on finite models: dividing tests and complex
semi-orientations of curves, type classification of surfaces through the
mod-2 form of the conjugation involution, branched and orientation double
coverings by cut-and-glue, Euler-characteristic congruences, transfer
identities on integer middle homology, and Arf/Brown invariants of
quadratic refinements.  All arithmetic is exact (GF(2) bit vectors and
arbitrary-precision integers); no floating point anywhere.
"""

import sys
from types import ModuleType


class _Root(ModuleType):
    """The package.  Importing the submodule ``homology`` binds its function here
    instead, so ``conjtop.homology`` is the function without an eager import."""

    def __setattr__(self, name, value):
        if name == "homology" and isinstance(value, ModuleType):
            value = value.homology
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Root

__version__ = "0.1.0"
_EXPORTS = {  # module -> the names it exports, loaded with it on first access (PEP 562)
    "complexes": "SimplicialComplex SimplicialMap barycentric_subdivide fundamental_class "
    "identity_map orbit_chain_boundaries pseudomanifold_check quotient_by_involution regularize",
    "coverings": "CoverComplex SemiOrientation branched_double_cover compare_mod_curves "
    "complement_semiorientation curve_complex_semiorientation dividing_test "
    "double_cover_unbranched extendibility_check flip_semiorientation lift_involution "
    "orientation_cover stiefel_whitney_cocycle",
    "errors": "InputError ModelIntegrityError",
    "gf2": "BilinearFormGF2 Gf2Matrix characteristic_class gf2_kernel_basis gf2_rank gf2_solve "
    "is_even",
    "homology": "ChainComplexData HomologyBasis betti_numbers cohomology cup_pairing "
    "duality_audit homology induced_map total_betti",
    "intmat": "IntMatrix int_kernel_basis smith_normal_form",
    "involutions": "TypeVerdict check_m_variety_even_form classify_type fixed_subcomplex "
    "harnack_audit intersection_form involution_form parity_obstruction smith_kernel_bound "
    "verify_fixed_class_is_characteristic",
    "lattices": "IntegerLattice QuotientTransferData build_lattice conj_form_mod2 "
    "invariant_sublattices kharlamov_congruence order_obstruction orientation_class_check "
    "torsion_audit transfer_audit",
    "modelfile": "format_model parse_model",
    "models": "ModelFile model_library",
    "qforms": "LoopData LoopTable QForm2 QForm4 arf brown evaluate_q2 evaluate_q4 "
    "pin_value_from_loops qform_from_loop_table spin_value_from_loops",
}


def __getattr__(name):
    from importlib import import_module

    for module, names in _EXPORTS.items():
        if name in names.split():
            return globals().setdefault(name, getattr(import_module(f".{module}", __name__), name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()).union(*(names.split() for names in _EXPORTS.values())))

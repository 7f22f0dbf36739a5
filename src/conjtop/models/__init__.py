"""Bundled models: curves, surfaces and 4-manifolds with involutions.

Everything here is validated at construction time.  Involutions come in
three simplicial-friendly flavours: factor swaps on staircase product
triangulations (regular because invariant chains lie on the diagonal),
reflections and free shifts on grid-of-squares triangulations with coned
squares (the coning keeps the symmetry simplicial), and doubles of a
surface with boundary (the mirror swap fixes exactly the seam).

One submodule per group: ``small`` (circles, spheres, the 7-vertex torus,
RP^2, the subdivided octahedron), ``products``, ``grids``, ``doubles`` and
``algebraic`` (no complex).  A cold command compiles every module it loads,
so a submodule loads only when its group is built or one of its names is read.
"""

from importlib import import_module


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


def _add(model, name, K, marks=None, involution=None):
    """Add complex ``name`` with its marked cycles and a ``(map name, tau)`` involution."""
    model.complexes[name] = K
    if marks:
        model.cycles[name] = {k: tuple(v) for k, v in marks.items()}
    if involution:
        model.maps[involution[0]] = (name, name, involution[1])


# (submodule, builder) -> the names it defines, in library order
_LIBRARY = {
    ("small", "_small_complexes"): ("square_circle", "square_reflection", "hexagon_circle",
                                    "hexagon_antipodal", "sphere_tetra", "sphere_octa", "torus7"),
    ("small", "_rp2"): ("rp2_6vertex",),
    ("grids", "_torus_grids"): ("torus_grid", "torus_reflection", "torus_grid_free", "torus_free"),
    ("products", "_torus_product"): ("torus_product", "torus_diagonal"),
    ("grids", "_klein_bottle"): ("klein_bottle", "klein_shift"),
    ("products", "_quadric"): ("quadric",),
    ("doubles", "_genus2_dividing"): ("genus2_dividing_surface", "genus2_dividing"),
    ("doubles", "_nonorientable_genus3"): ("nonorientable_genus3",),
    ("doubles", "_genus2_nondividing"): ("genus2_nondividing_surface", "genus2_nondividing"),
    ("small", "_sphere_octa_sub"): ("sphere_octa_sub",),
    ("algebraic", "_t4_chain"): ("t4_chain",),
    ("algebraic", "_lattices"): ("quadric_lattice", "t4_lattice"),
    ("algebraic", "_loops"): ("torus_loops", "rp2_loops", "klein_loops"),
}
_EXPORTS = {  # submodule -> its public names, read from here on first access
    "small": "RP2_GENERATOR_CYCLE hexagon_circle octa_subdivided_with_arcs rp2_6vertex "
    "sphere_octa sphere_tetra square_circle torus7",
    "products": "diagonal_cycle factor_cycle factor_swap product_complex quadric_complex "
    "torus_diagonal",
    "grids": "coned_grid_klein coned_grid_torus torus_free_shift torus_reflection",
    "doubles": "double_along_boundary genus2_dividing genus2_nondividing mobius_band_small "
    "nonorientable_genus3 torus_with_hole",
    "algebraic": "bundled_loop_tables quadric_lattice t4_chain_data t4_lattice",
}


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names.split():
            return globals().setdefault(name, getattr(import_module(f".{module}", __name__), name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def model_library(name=None) -> ModelFile:
    """The bundled models, named as the command line expects them: all of them,
    or only the group that defines ``name``.  An involution is a map named as
    its model; marked cycles are geometric homology bases and cutting curves.
    """
    model = ModelFile()
    model._shared = {}  # the surfaces of groups built on one, for this call (grids._shared)
    for (module, build), names in _LIBRARY.items():
        if name is None or name in names:
            getattr(import_module(f".{module}", __name__), build)(model)
    del model._shared
    return model

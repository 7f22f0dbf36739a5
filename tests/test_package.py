"""The package root: every exported name, loaded lazily, and a cold path
that imports and builds only what a command uses."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conjtop
from conjtop import models
from conjtop.cli import main

ENV = {**os.environ, "PYTHONPATH": str(Path(conjtop.__file__).resolve().parents[1])}

# the names ``conjtop`` exported when its root imported every module
# eagerly, under the module each was imported from
EXPORTED = {
    "complexes": ("SimplicialComplex", "SimplicialMap", "barycentric_subdivide",
                  "fundamental_class", "identity_map", "orbit_chain_boundaries",
                  "pseudomanifold_check", "quotient_by_involution", "regularize"),
    "coverings": ("CoverComplex", "SemiOrientation", "branched_double_cover",
                  "compare_mod_curves", "complement_semiorientation",
                  "curve_complex_semiorientation", "dividing_test", "double_cover_unbranched",
                  "extendibility_check", "flip_semiorientation", "kharlamov_congruence",
                  "lift_involution", "orientation_cover", "stiefel_whitney_cocycle"),
    "errors": ("InputError", "ModelIntegrityError"),
    "gf2": ("Gf2Matrix", "gf2_kernel_basis", "gf2_rank", "gf2_solve"),
    "homology": ("ChainComplexData", "HomologyBasis", "betti_numbers", "cohomology",
                 "cup_pairing", "duality_audit", "homology", "induced_map", "total_betti"),
    "intmat": ("IntMatrix", "int_kernel_basis", "smith_normal_form"),
    "involutions": ("BilinearFormGF2", "TypeVerdict", "characteristic_class",
                    "check_m_variety_even_form", "classify_type", "fixed_subcomplex",
                    "harnack_audit", "intersection_form", "involution_form", "is_even",
                    "parity_obstruction", "smith_kernel_bound",
                    "verify_fixed_class_is_characteristic"),
    "lattices": ("IntegerLattice", "QuotientTransferData", "build_lattice", "conj_form_mod2",
                 "invariant_sublattices", "order_obstruction", "orientation_class_check",
                 "torsion_audit", "transfer_audit"),
    "modelfile": ("ModelFile", "format_model", "parse_model"),
    "models": ("model_library",),
    "qforms": ("LoopData", "LoopTable", "QForm2", "QForm4", "arf", "brown", "evaluate_q2",
               "evaluate_q4", "pin_value_from_loops", "qform_from_loop_table",
               "spin_value_from_loops"),
}
CLI_EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "cli_expected.json").read_text("utf-8")
)
LIBRARY_COMMANDS = sorted(k for k in CLI_EXPECTED if "--model" not in k.split(" "))


def fresh(code):
    """Run ``code`` in a new interpreter that finds this checkout's package."""
    proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_former_export_is_its_module_attribute():
    assert sum(map(len, EXPORTED.values())) == 78
    listed = dir(conjtop)
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"conjtop.{module}")
        for name in names:
            namespace = {}
            exec(f"from conjtop import {name}", namespace)
            assert namespace[name] is getattr(conjtop, name) is getattr(owner, name), name
            assert name in listed, name


def test_unknown_root_name_raises():
    with pytest.raises(AttributeError, match="nosuch"):
        conjtop.nosuch  # noqa: B018
    with pytest.raises(ImportError):
        exec("from conjtop import nosuch", {})
    assert not hasattr(conjtop, "nosuch")


@pytest.mark.parametrize("first", ["import conjtop.homology", "import conjtop.cli",
                                   "import conjtop.cli, conjtop.homology, conjtop.models"])
def test_homology_stays_the_function(first):
    """The root binds the function over the submodule attribute; importing the
    submodule later must not rebind it."""
    assert fresh(f"{first}\nimport conjtop\nprint(type(conjtop.homology).__name__)") \
        == "function\n"


def test_cli_import_loads_six_modules():
    out = fresh("import sys, conjtop.cli\n"
                "print(' '.join(sorted(m for m in sys.modules if m.startswith('conjtop'))))")
    assert out.split() == ["conjtop", "conjtop.cli", "conjtop.complexes", "conjtop.errors",
                           "conjtop.gf2", "conjtop.homology"]


def test_homology_command_loads_no_invariant_modules():
    out = fresh("import contextlib, io, sys\nfrom conjtop.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['homology', 'torus7']) == 0\n"
                "print(' '.join(sorted(m for m in sys.modules if m.startswith('conjtop'))))")
    loaded = set(out.split())
    assert "conjtop.models" in loaded
    for module in ("coverings", "involutions", "intmat", "lattices", "qforms", "modelfile"):
        assert f"conjtop.{module}" not in loaded, module


COLD_RECORD_COMMANDS = ["classify quadric --h (1,1)", "cover rp2_6vertex --cocycle w1_cocycle",
                        "lattice-audit quadric_lattice", "qform rp2_loops"]


@pytest.mark.parametrize("command", COLD_RECORD_COMMANDS)
def test_record_commands_load_neither_dataclasses_nor_inspect(command):
    """Result records are plain slotted classes: a cold command that builds
    them imports no ``dataclasses``, which would pull in ``inspect``."""
    out = fresh("import contextlib, io, sys\nbefore = set(sys.modules)\n"
                "from conjtop.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main({command.split(' ')!r}) == 0\n"
                "print(' '.join(sorted(set(sys.modules) - before)))")
    added = set(out.split())
    assert "conjtop.models" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


@pytest.fixture
def builds(monkeypatch):
    """Record the names of the library groups built."""
    built = []

    def recorded(build, names):
        def run(model):
            built.append(names)
            build(model)
        return run

    monkeypatch.setattr(models, "_LIBRARY", {
        recorded(build, names): names for build, names in models._LIBRARY.items()})
    return built


def test_commands_build_only_the_group_of_their_object(builds, capsys):
    assert main(["congruence", "--chi", "8", "--type", "I_abs", "--h1-trivial"]) == 0
    assert builds == []
    assert main(["homology", "torus7"]) == 0
    assert main(["qform", "rp2_loops"]) == 0
    assert builds == [
        next(names for names in models._LIBRARY.values() if "torus7" in names),
        next(names for names in models._LIBRARY.values() if "rp2_loops" in names),
    ]
    capsys.readouterr()


def test_library_by_name_matches_the_full_library(library):
    kinds = ("complexes", "maps", "chains", "lattices", "loops")
    keys = {name for kind in kinds for name in getattr(library, kind)}
    names = [name for names in models._LIBRARY.values() for name in names]
    assert len(names) == len(set(names)) and set(names) == keys
    for name in names:
        part = models.model_library(name)
        assert any(name in getattr(part, kind) for kind in kinds), name
        for kind in kinds + ("cycles",):
            for key, value in getattr(part, kind).items():
                assert value == getattr(library, kind)[key], (name, kind, key)
    assert models.model_library("") == models.ModelFile()


def test_unknown_object_message_unchanged(capsys):
    assert main(["homology", "nosuch"]) == 2
    assert capsys.readouterr().out == "input error: no complex or chain data named 'nosuch'\n"


@pytest.mark.parametrize("command", LIBRARY_COMMANDS)
def test_library_command_bytes_cold(command):
    """Each library command in a new interpreter, where only the modules it
    imports are loaded, so an import-order dependence shows."""
    proc = subprocess.run([sys.executable, "-m", "conjtop.cli", *command.split(" ")], env=ENV,
                          capture_output=True, timeout=120, check=False)
    assert proc.returncode == CLI_EXPECTED[command]["exit"], proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == CLI_EXPECTED[command]["sha256"]

"""The package root: every exported name, loaded lazily, and a cold path
that imports and builds only what a command uses.

A cold command compiles every conjtop module it imports, so each of the
benchmark's cold commands has a ceiling on the source lines it loads.  Run
``pytest -s -k ceiling tests/test_package.py`` to see one ``COLD`` line per
command.
"""

import functools
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
# eagerly, under the module that now owns each
EXPORTED = {
    "complexes": ("SimplicialComplex", "SimplicialMap", "barycentric_subdivide",
                  "fundamental_class", "identity_map", "orbit_chain_boundaries",
                  "pseudomanifold_check", "quotient_by_involution", "regularize"),
    "coverings": ("CoverComplex", "SemiOrientation", "branched_double_cover",
                  "compare_mod_curves", "complement_semiorientation",
                  "curve_complex_semiorientation", "dividing_test", "double_cover_unbranched",
                  "extendibility_check", "flip_semiorientation", "lift_involution",
                  "orientation_cover", "stiefel_whitney_cocycle"),
    "errors": ("InputError", "ModelIntegrityError"),
    "gf2": ("BilinearFormGF2", "Gf2Matrix", "characteristic_class", "gf2_kernel_basis",
            "gf2_rank", "gf2_solve", "is_even"),
    "homology": ("ChainComplexData", "HomologyBasis", "betti_numbers", "cohomology",
                 "cup_pairing", "duality_audit", "homology", "induced_map", "total_betti"),
    "intmat": ("IntMatrix", "int_kernel_basis", "smith_normal_form"),
    "involutions": ("TypeVerdict", "check_m_variety_even_form", "classify_type",
                    "fixed_subcomplex", "harnack_audit", "intersection_form", "involution_form",
                    "parity_obstruction", "smith_kernel_bound",
                    "verify_fixed_class_is_characteristic"),
    "lattices": ("IntegerLattice", "QuotientTransferData", "build_lattice", "conj_form_mod2",
                 "invariant_sublattices", "kharlamov_congruence", "order_obstruction",
                 "orientation_class_check", "torsion_audit", "transfer_audit"),
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
                                   "import conjtop.cli, conjtop.homology, conjtop.models",
                                   "import conjtop.involutions\nfrom conjtop import homology",
                                   "from conjtop import homology"])
def test_homology_stays_the_function(first):
    """The root binds the function, not the submodule, whichever imports
    ``conjtop.homology`` first: the root itself or a module that needs it."""
    assert fresh(f"{first}\nimport conjtop\nprint(type(conjtop.homology).__name__)") \
        == "function\n"


def test_cli_import_loads_four_modules():
    out = fresh("import sys, conjtop.cli\n"
                "print(' '.join(sorted(m for m in sys.modules if m.startswith('conjtop'))))")
    assert out.split() == ["conjtop", "conjtop.cli", "conjtop.errors", "conjtop.gf2"]


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

    for (module, build), names in models._LIBRARY.items():
        owner = importlib.import_module(f"conjtop.models.{module}")
        monkeypatch.setattr(owner, build, recorded(getattr(owner, build), names))
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


# command -> the most conjtop source lines its cold run may compile: the
# lines of every conjtop module loaded once ``cli.main`` returns, cli.py
# included.  Each ceiling is the count it pins, so a line added to a module
# a command loads shows here; lower a ceiling when its count drops.
COLD_CEILINGS = {
    "classify mdouble_g2 --model .bench_work/cli_models.txt": 3086,
    "classify quadric --h (1,1)": 2809,
    "classify tetra2 --model .bench_work/cli_models.txt": 3086,
    "compare torus_grid --y1 col0,col2 --y2 col1,col3": 3067,
    "congruence --chi 8 --type I_abs --h1-trivial": 1615,
    "conj-form quadric": 2809,
    "cover rp2_6vertex --cocycle w1_cocycle": 3041,
    "cover sphere_octa_sub --cut arcs_both": 3041,
    "divide torus_reflection": 3439,
    "fixed-set quadric": 2809,
    "homology klein6 --model .bench_work/cli_models.txt": 2714,
    "homology klein_bottle": 2367,
    "homology torus6 --model .bench_work/cli_models.txt": 2714,
    "homology torus7": 2341,
    "lattice-audit quadric_lattice": 1814,
    "orient torus_reflection": 3439,
    "orient-cover klein_bottle --curve w1dual": 3067,
    "qform rp2_loops": 1407,
}
ARITHMETIC_COMMANDS = ["congruence --chi 8 --type I_abs --h1-trivial", "qform rp2_loops",
                       "lattice-audit quadric_lattice"]


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    """A directory holding the benchmark's --model file at its relative path."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    root = tmp_path_factory.mktemp("cold")
    workloads.write_cli_model(str(root))
    return root


@functools.lru_cache(maxsize=None)
def cold_run(command, cwd):
    """(exit code, summed source lines, sorted names) of the conjtop modules that
    one command loads in a new interpreter."""
    code = ("import contextlib, io, sys\nfrom conjtop.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n    code = main(sys.argv[1:])\n"
            "mods = sorted(m for m in sys.modules if m.startswith('conjtop'))\n"
            "print(code, sum(sum(1 for _ in open(sys.modules[m].__file__, encoding='utf-8'))"
            " for m in mods), *mods)")
    proc = subprocess.run([sys.executable, "-c", code, *command.split(" ")], env=ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    exit_code, lines, *modules = proc.stdout.split()
    return int(exit_code), int(lines), tuple(modules)


@pytest.mark.parametrize("command", sorted(CLI_EXPECTED))
def test_cold_command_lines_stay_under_ceiling(command, bench_root):
    exit_code, lines, _ = cold_run(command, str(bench_root))
    print(f"COLD {command} lines={lines} ceiling={COLD_CEILINGS[command]}")
    assert exit_code == CLI_EXPECTED[command]["exit"]
    assert lines <= COLD_CEILINGS[command]


@pytest.mark.parametrize("command", ARITHMETIC_COMMANDS)
def test_arithmetic_commands_load_no_complex(command, bench_root):
    """Congruence, loop tables and lattice audits read no complex: none of the
    complex, homology or involution modules loads."""
    _, _, modules = cold_run(command, str(bench_root))
    for module in ("complexes", "homology", "involutions"):
        assert f"conjtop.{module}" not in modules, module


def test_congruence_accepts_a_verdict_and_loads_involutions_only_for_one():
    out = fresh("import sys\nfrom conjtop.lattices import kharlamov_congruence\n"
                "by_name = kharlamov_congruence(8, 'I_abs', True)\n"
                "print('conjtop.involutions' in sys.modules)\n"
                "from conjtop.involutions import TypeVerdict\n"
                "verdict = TypeVerdict('I_abs', 0, None)\n"
                "print(kharlamov_congruence(8, verdict, True) == by_name)\n"
                "print(kharlamov_congruence(2, TypeVerdict('I_rel', 1, None), True).applicable)")
    assert out.split() == ["False", "True", "False"]

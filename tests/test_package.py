"""The package root: every exported name, loaded lazily, and a cold path
that imports and builds only what a command uses.

A cold command compiles every conjtop module it imports, so each of the
benchmark's cold commands has a ceiling on the source lines it loads.  Run
``pytest -s -k ceiling tests/test_package.py`` to see one ``COLD`` line per
command.
"""

import ast
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
# eagerly, under the module that defines each, less the four it dropped
# for having no reader outside the tests (DROPPED)
EXPORTED = {
    "chains": ("ChainComplexData",),
    "complexes": ("SimplicialComplex", "SimplicialMap", "barycentric_subdivide",
                  "fundamental_class", "pseudomanifold_check"),
    "coverings": ("CoverComplex", "branched_double_cover", "double_cover_unbranched",
                  "orientation_cover", "stiefel_whitney_cocycle"),
    "duality": ("cup_pairing", "duality_audit", "induced_map"),
    "errors": ("InputError", "ModelIntegrityError"),
    "gf2": ("BilinearFormGF2", "Gf2Matrix", "characteristic_class", "gf2_kernel_basis",
            "gf2_rank", "gf2_solve", "is_even"),
    "homology": ("HomologyBasis", "betti_numbers", "cohomology", "homology", "total_betti"),
    "intmat": ("IntMatrix", "int_kernel_basis", "smith_normal_form"),
    "involutions": ("TypeVerdict", "classify_type", "fixed_subcomplex", "involution_form",
                    "verify_fixed_class_is_characteristic"),
    "lattices": ("IntegerLattice", "QuotientTransferData", "build_lattice", "conj_form_mod2",
                 "invariant_sublattices", "kharlamov_congruence", "order_obstruction",
                 "orientation_class_check", "torsion_audit", "transfer_audit"),
    "modelfile": ("parse_model",),
    "modelsections": ("format_model",),
    "models": ("ModelFile", "model_library"),
    "orientations": ("SemiOrientation", "compare_mod_curves", "complement_semiorientation",
                     "curve_complex_semiorientation", "dividing_test", "extendibility_check",
                     "flip_semiorientation"),
    "qforms": ("LoopData", "LoopTable", "QForm2", "QForm4", "arf", "brown", "evaluate_q2",
               "evaluate_q4", "pin_value_from_loops", "qform_from_loop_table",
               "spin_value_from_loops"),
    "smith": ("check_m_variety_even_form", "harnack_audit", "orbit_chain_boundaries",
              "quotient_by_involution", "regularize", "smith_kernel_bound"),
}
DROPPED = {"complexes": "identity_map", "coverings": "lift_involution",
           "involutions": "intersection_form", "smith": "parity_obstruction"}
CLI_EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "cli_expected.json").read_text("utf-8")
)


def fresh(code):
    """Run ``code`` in a new interpreter that finds this checkout's package."""
    proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_former_export_is_its_module_attribute():
    assert sum(map(len, EXPORTED.values())) == 74
    listed = dir(conjtop)
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"conjtop.{module}")
        for name in names:
            namespace = {}
            exec(f"from conjtop import {name}", namespace)
            assert namespace[name] is getattr(conjtop, name) is getattr(owner, name), name
            assert getattr(owner, name).__module__ == owner.__name__, name
            assert name in listed, name


@pytest.mark.parametrize("module", sorted(DROPPED))
def test_a_dropped_export_is_gone_from_the_root_and_its_module(module):
    name = DROPPED[module]
    assert name not in dir(conjtop)
    for owner in (conjtop, importlib.import_module(f"conjtop.{module}")):
        with pytest.raises(AttributeError, match=name):
            getattr(owner, name)


def test_a_root_export_loads_only_its_owner():
    out = fresh("import sys\nfrom conjtop import dividing_test\n"
                "print(*sorted(m for m in sys.modules if m.startswith('conjtop')))")
    assert "conjtop.orientations" in out.split() and "conjtop.coverings" not in out.split()


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


def test_every_integrity_guard_reports_its_numbers():
    """Each ``ModelIntegrityError(...)`` in the package passes ``report=``, so an
    exit-1 ``--machine`` run prints what its check compared."""
    guards, bare = 0, []
    for path in sorted(Path(conjtop.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ModelIntegrityError":
                guards += 1
                if not any(k.arg == "report" for k in node.keywords):
                    bare.append(f"{path.name}:{node.lineno}")
    assert guards >= 27 and bare == []


def test_cli_import_loads_four_modules():
    """The reader, the tables and the Report; no handler group, no GF(2) and
    no argparse until a line needs them."""
    out = fresh("import sys, conjtop.cli\n"
                "print(' '.join(sorted(m for m in sys.modules if m.startswith('conjtop'))))\n"
                "print('argparse' in sys.modules)")
    assert out.split() == ["conjtop", "conjtop.cli", "conjtop.commands", "conjtop.errors",
                           "False"]


def test_moved_involution_geometry_still_resolves_from_complexes():
    """The benchmark reads two of the names that moved out of ``complexes``
    from it; nothing else resolves there."""
    from conjtop import complexes, involutions, smith

    assert complexes.is_regular is involutions.is_regular
    assert complexes.orbit_chain_boundaries is smith.orbit_chain_boundaries
    for name in ("quotient_by_involution", "regularize", "check_regular_involution",
                 "regularity_offender"):
        assert not hasattr(complexes, name), name


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


# command -> the conjtop source lines its cold run compiles: the lines of
# every conjtop module its ``python -m conjtop.cli`` run loads,
# cli.py counted once.  Each ceiling is the exact count it pins, so a line
# added to or cut from a module a command loads shows here; lower a ceiling
# when its count drops.
COLD_CEILINGS = {
    "classify mdouble_g2 --model .bench_work/cli_models.txt": 2075,
    "classify quadric --h (1,1)": 2088,
    "classify tetra2 --model .bench_work/cli_models.txt": 2075,
    "compare torus_grid --y1 col0,col2 --y2 col1,col3": 1929,
    "congruence --chi 8 --type I_abs --h1-trivial": 1065,
    "conj-form quadric": 2257,
    "cover rp2_6vertex --cocycle w1_cocycle": 2073,
    "cover sphere_octa_sub --cut arcs_both": 2073,
    "divide torus_reflection": 2369,
    "fixed-set quadric": 2088,
    "homology klein6 --model .bench_work/cli_models.txt": 1834,
    "homology klein_bottle": 1786,
    "homology torus6 --model .bench_work/cli_models.txt": 1834,
    "homology torus7": 1751,
    "lattice-audit quadric_lattice": 1629,
    "orient torus_reflection": 2369,
    "orient-cover klein_bottle --curve w1dual": 2434,
    "qform rp2_loops": 1253,
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
    """(exit code, summed conjtop source lines, sorted module names) of one command
    in a new interpreter, started as the benchmark starts it: ``cli.py`` runs as
    ``__main__`` (``python -m conjtop.cli``) and counts once."""
    code = ("import contextlib, io, runpy, sys\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n    try:\n"
            "        runpy.run_module('conjtop.cli', run_name='__main__', alter_sys=True)\n"
            "    except SystemExit as stop:\n        code = stop.code\n"
            "files = [sys.modules[m].__file__ for m in sys.modules if m.startswith('conjtop')]\n"
            "files.append(sys.modules['conjtop'].__path__[0] + '/cli.py')\n"
            "print(code, sum(sum(1 for _ in open(f, encoding='utf-8')) for f in files),"
            " *sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, *command.split(" ")], env=ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    exit_code, lines, *modules = proc.stdout.split()
    return int(exit_code), int(lines), tuple(modules)


@pytest.mark.parametrize("command", sorted(CLI_EXPECTED))
def test_library_command_bytes_cold(command, bench_root):
    """Each benchmark command, the ``--model`` ones reading the benchmark's
    file, in a new interpreter where only the modules it imports are loaded,
    so an import-order dependence shows."""
    proc = subprocess.run([sys.executable, "-m", "conjtop.cli", *command.split(" ")], env=ENV,
                          cwd=bench_root, capture_output=True, timeout=120, check=False)
    assert proc.returncode == CLI_EXPECTED[command]["exit"], proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == CLI_EXPECTED[command]["sha256"]


@pytest.mark.parametrize("command", sorted(CLI_EXPECTED))
def test_cold_command_lines_stay_under_ceiling(command, bench_root):
    exit_code, lines, modules = cold_run(command, str(bench_root))
    print(f"COLD {command} lines={lines} ceiling={COLD_CEILINGS[command]}")
    assert exit_code == CLI_EXPECTED[command]["exit"]
    assert lines == COLD_CEILINGS[command]
    # the handlers never import the cli, which would compile cli.py a second time
    assert "conjtop.cli" not in modules


@pytest.mark.parametrize("command", sorted(CLI_EXPECTED))
def test_plain_commands_skip_argparse(command, bench_root):
    """Every benchmark command line is plain, so none loads argparse or the
    gettext and locale modules it brings."""
    _, _, modules = cold_run(command, str(bench_root))
    assert not {"argparse", "gettext", "locale"} & set(modules)


def test_rp2_homology_loads_no_coverings(bench_root):
    """The w1 mark of ``rp2_6vertex`` is a literal: building its group loads
    no cover code."""
    exit_code, _, modules = cold_run("homology rp2_6vertex", str(bench_root))
    assert exit_code == 0
    assert "conjtop.models.small" in modules and "conjtop.coverings" not in modules


# command -> (a module it loads, the modules split off what it loads that it never runs)
SPLIT_LOADS = {
    "homology torus7": ("homology", ("chains", "duality")),
    "homology t4_chain": ("chains", ("duality", "smith")),
    "fixed-set quadric": ("involutions", ("duality", "smith", "chains")),
    "classify quadric --h (1,1)": ("involutions", ("duality", "smith", "chains")),
    "conj-form quadric": ("duality", ("smith", "chains")),
    "divide torus_reflection": ("orientations", ("coverings", "duality", "smith")),
    "orient torus_reflection": ("orientations", ("coverings", "duality", "smith")),
    "compare torus_grid --y1 col0,col2 --y2 col1,col3": ("orientations", ("coverings",)),
    "cover rp2_6vertex --cocycle w1_cocycle": ("coverings", ("orientations", "duality")),
    "cover sphere_octa_sub --cut arcs_both": ("coverings", ("orientations", "duality")),
    "homology torus6 --model .bench_work/cli_models.txt": ("modelfile", ("modelsections",)),
    "classify tetra2 --model .bench_work/cli_models.txt": ("modelfile", ("modelsections",)),
}


@pytest.mark.parametrize("command", sorted(SPLIT_LOADS))
def test_commands_load_no_split_off_module_they_never_run(command, bench_root):
    """The chain carrier, the duality layer, the Smith audits, the curve cuts,
    cover construction and the rarer model-file sections each load only with
    a command that runs them; a complex/map model file loads no section
    reader or writer."""
    loaded, never = SPLIT_LOADS[command]
    exit_code, _, modules = cold_run(command, str(bench_root))
    assert exit_code == 0 and f"conjtop.{loaded}" in modules
    assert not {f"conjtop.{m}" for m in never} & set(modules)


# the modules split in two, and the modules that took part of each
SPLITS = {"homology": ("chains", "duality"), "involutions": ("smith",),
          "coverings": ("orientations",), "modelfile": ("modelsections",)}


# the names the benchmark reads from a module that does not define them:
# that module -> {name: the module defining it}
FORWARDED = {
    "complexes": {"is_regular": "involutions", "orbit_chain_boundaries": "smith"},
    "coverings": {"curve_complex_semiorientation": "orientations",
                  "dividing_test": "orientations"},
    "homology": {"duality_data": "duality"},
    "involutions": {"harnack_audit": "smith", "is_even": "gf2", "smith_kernel_bound": "smith"},
    "modelfile": {"format_model": "modelsections"},
}


def test_only_the_benchmark_names_resolve_from_a_module_they_left():
    """Each of the nine names is its defining module's object.  No other name
    of a split-off module, its own or one it imports, resolves from the module
    it left."""
    assert sum(map(len, FORWARDED.values())) == 9
    for former, names in FORWARDED.items():
        source = importlib.import_module(f"conjtop.{former}")
        for name, owner in names.items():
            defining = importlib.import_module(f"conjtop.{owner}")
            assert getattr(source, name) is getattr(defining, name), (former, name)
    for old, owners in SPLITS.items():
        source = importlib.import_module(f"conjtop.{old}")
        for owner in owners:
            for name in vars(importlib.import_module(f"conjtop.{owner}")):
                if name not in vars(source) and name not in FORWARDED.get(old, ()):
                    with pytest.raises(AttributeError):
                        getattr(source, name)
        with pytest.raises(AttributeError, match="nosuch"):
            source.nosuch  # noqa: B018
    for old, name in [("involutions", "regularize"), ("involutions", "reduce_columns"),
                      ("homology", "ChainComplexData"), ("coverings", "SemiOrientation"),
                      ("modelfile", "parse_section"), ("complexes", "quotient_by_involution")]:
        assert not hasattr(importlib.import_module(f"conjtop.{old}"), name), (old, name)


def test_import_probes_load_no_split_off_module():
    """Importing a name from a split module probes its ``__path__``, which must
    not load the modules split off it."""
    out = fresh("import sys\nfrom conjtop.homology import homology\n"
                "from conjtop.coverings import double_cover_unbranched\n"
                "from conjtop.involutions import fixed_subcomplex\n"
                "from conjtop.modelfile import parse_model\n"
                "print(*sorted(m for m in sys.modules if m.startswith('conjtop')))")
    for owners in SPLITS.values():
        for owner in owners:
            assert f"conjtop.{owner}" not in out.split(), owner


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

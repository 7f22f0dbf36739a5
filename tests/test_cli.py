import contextlib
import functools
import hashlib
import io
import json
import re
import shlex
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjtop.cli import _build_parser, _read, main, run
from conjtop.commands import Report
from conjtop.errors import InputError
from conjtop.modelfile import parse_model
from conjtop.modelsections import format_model
from conftest import MALFORMED_MODELS


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def machine_dict(out):
    lines = [l for l in out.strip().split("\n")]
    if "--" in lines:
        lines = lines[lines.index("--") + 1:]
    return dict(l.split("=", 1) for l in lines if "=" in l)


README_COMMANDS = [
    line for line in (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    .splitlines() if line.startswith("conjtop ")
]
# machine keys that a README command's comment states
README_RESULTS = {
    "classify": {"verdict": "I_rel"},
    "divide": {"dividing": "true", "components": "2"},
    "cover sphere_octa_sub": {"total_chi": "0"},
}


def test_readme_commands_run_in_process(capsys):
    """Every ``conjtop`` line of README.md exits 0 and gives the result its
    comment states; the same unread-flag check as the README's CI step exits 2."""
    assert len(README_COMMANDS) >= 14
    stated = set()
    for line in README_COMMANDS:
        argv = shlex.split(line, comments=True)[1:]
        code, out = run_cli(argv, capsys)
        assert code == 0, line
        for prefix, keys in README_RESULTS.items():
            if " ".join(argv).startswith(prefix):
                stated.add(prefix)
                got = machine_dict(out)
                assert {k: got[k] for k in keys} == keys, line
    assert stated == set(README_RESULTS)
    assert run_cli(["homology", "klein_bottle", "--cut", "arcs_both"], capsys)[0] == 2


def test_classify_quadric(capsys):
    code, out = run_cli(["classify", "quadric", "--h", "(1,1)"], capsys)
    assert code == 0
    assert machine_dict(out)["verdict"] == "I_rel"


def test_classify_without_h_gives_II(capsys):
    code, out = run_cli(["classify", "quadric"], capsys)
    assert code == 0
    assert machine_dict(out)["verdict"] == "II"


def test_divide_torus_reflection(capsys):
    code, out = run_cli(["divide", "torus_reflection", "--machine"], capsys)
    assert code == 0
    d = machine_dict(out)
    assert d["dividing"] == "true"
    assert d["half_sizes"] == "(32,32)"


def test_divide_torus_diagonal(capsys):
    code, out = run_cli(["divide", "torus_diagonal", "--machine"], capsys)
    assert code == 0
    assert machine_dict(out)["dividing"] == "false"


def test_congruence_pass(capsys):
    code, out = run_cli(
        ["congruence", "--chi", "8", "--type", "I_abs", "--h1-trivial"], capsys
    )
    assert code == 0
    d = machine_dict(out)
    assert d["passes"] == "true"
    assert d["self_intersection_quotient"] == "-16"


def test_congruence_violation_exit_code(capsys):
    code, out = run_cli(
        ["congruence", "--chi", "2", "--type", "I_abs", "--h1-trivial"], capsys
    )
    assert code == 1
    assert "model integrity" in out


def test_integrity_trace_on_machine_request(capsys):
    argv = ["congruence", "--chi", "4", "--type", "I_abs", "--h1-trivial"]
    code, out = run_cli(argv + ["--machine"], capsys)
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0].startswith("model integrity violation:") and "=" not in lines[0]
    assert len(lines) > 1 and lines[1:] == sorted(lines[1:])
    d = machine_dict(out)
    assert d["chi"] == "4"
    assert d["passes"] == "false"
    assert d["self_intersection_quotient"] == "-8"
    # the whole report: every KharlamovTrace field, one sorted line each
    assert out == (
        "model integrity violation: Euler characteristic 4 is not divisible by 8 for a "
        "bounding surface\napplicable=true\nchi=4\ndivisible_by_16=false\npasses=false\n"
        "self_intersection_ambient=-4\nself_intersection_quotient=-8\n"
    )
    code, out = run_cli(argv, capsys)
    assert code == 1 and out.count("\n") == 1


def test_conj_form_guard_reports_the_lemma(monkeypatch, capsys):
    """A fixed set that does not realize the characteristic class is exit 1,
    and --machine prints the lemma's report after the one-line message."""
    import conjtop.involutions

    lemma = conjtop.involutions.verify_fixed_class_is_characteristic
    monkeypatch.setattr(conjtop.involutions, "verify_fixed_class_is_characteristic",
                        lambda *args, **kwargs: {**lemma(*args, **kwargs), "holds": False})
    message = "model integrity violation: fixed set does not realize the characteristic class\n"
    code, out = run_cli(["conj-form", "quadric", "--machine"], capsys)
    assert code == 1
    assert out == message + "characteristic_class=3\ndimension=2\nfixed_class=3\nholds=false\n"
    assert run_cli(["conj-form", "quadric"], capsys) == (1, message)


def test_asymmetric_conj_form_reports_the_gram(monkeypatch, capsys):
    """An asymmetric involution form is exit 1, and --machine prints its Gram
    after the one-line message."""
    import conjtop.duality
    from conjtop.gf2 import Gf2Matrix

    action = conjtop.duality.induced_map
    monkeypatch.setattr(conjtop.duality, "induced_map", lambda actor, k: action(actor, k)
                        + Gf2Matrix.from_rows([[1, 0], [0, 0]]))
    message = "model integrity violation: involution form is not symmetric\n"
    code, out = run_cli(["conj-form", "quadric", "--machine"], capsys)
    assert code == 1
    assert out == message + "report=Gf2Matrix(2x2: 10; 11)\n"
    assert run_cli(["conj-form", "quadric"], capsys) == (1, message)


def test_trace_lines_flatten_reports():
    from conjtop.commands import _trace_lines
    from conjtop.gf2 import Gf2Matrix

    report = {"kernel": 2, "table": {4: 1, 2: 0}, "holds": False, "part": [3, 5]}
    assert _trace_lines(report) == "holds=false\nkernel=2\npart=(3,5)\ntable.2=0\ntable.4=1\n"
    gram = Gf2Matrix.identity(2)
    assert _trace_lines(gram) == f"report={gram!r}\n"
    assert _trace_lines(None) == ""


def test_congruence_not_applicable(capsys):
    code, out = run_cli(["congruence", "--chi", "2", "--type", "I_rel"], capsys)
    assert code == 0
    assert machine_dict(out)["applicable"] == "false"


def test_unknown_object_exit_code(capsys):
    code, out = run_cli(["homology", "not_a_model"], capsys)
    assert code == 2
    assert "input error" in out


def test_homology_machine(capsys):
    code, out = run_cli(["homology", "torus7", "--machine"], capsys)
    assert code == 0
    d = machine_dict(out)
    assert (d["betti.0"], d["betti.1"], d["betti.2"]) == ("1", "2", "1")


def test_machine_flag_only_keys(capsys):
    code, out = run_cli(["classify", "quadric", "--h", "1,1", "--machine"], capsys)
    assert code == 0
    assert all("=" in line for line in out.strip().split("\n"))


def test_machine_section_sorted_and_deterministic(capsys):
    code1, out1 = run_cli(["conj-form", "quadric"], capsys)
    code2, out2 = run_cli(["conj-form", "quadric"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    keys = [l.split("=")[0] for l in out1.split("--\n")[1].strip().split("\n")]
    assert keys == sorted(keys)


MIRROR_COMMANDS = (
    ["homology", "quadric"],
    ["conj-form", "quadric"],
    ["fixed-set", "torus_reflection"],
    ["divide", "torus_reflection"],
    ["orient", "torus_reflection"],
    ["congruence", "--chi", "8", "--type", "I_abs", "--h1-trivial"],
    ["cover", "sphere_octa_sub", "--cut", "arc1"],
    ["orient-cover", "rp2_6vertex", "--curve", "generator"],
    ["compare", "torus_grid", "--y1", "col0,col2", "--y2", "col1,col3"],
    ["lattice-audit", "quadric_lattice"],
    ["qform", "rp2_loops"],
)


def test_machine_mirrors_human_numbers(capsys):
    import re

    for argv in MIRROR_COMMANDS:
        code, out = run_cli(list(argv), capsys)
        assert code == 0, argv
        human, machine = out.split("--\n")
        machine_values = set()
        for line in machine.strip().split("\n"):
            machine_values.update(re.findall(r"-?\d+", line.split("=", 1)[1]))
        for line in human.strip().split("\n")[1:]:
            if ":" in line:
                for num in re.findall(r"-?\d+", line.split(":", 1)[1]):
                    assert num in machine_values, (num, line, argv)


def test_fixed_set_and_conj_form(capsys):
    code, out = run_cli(["fixed-set", "quadric", "--machine"], capsys)
    assert code == 0
    assert machine_dict(out)["fixed_class"] == "(1,1)"
    code, out = run_cli(["conj-form", "quadric", "--machine"], capsys)
    assert code == 0
    d = machine_dict(out)
    assert d["characteristic_class"] == "(1,1)"
    assert d["even"] == "false"
    assert d["fixed_realizes_characteristic"] == "true"


def test_form_commands_accept_chain_data(capsys):
    code, out = run_cli(["conj-form", "t4_chain", "--machine"], capsys)
    assert code == 0
    d = machine_dict(out)
    assert d["gram.0"] == "(0,0,0,0,0,1)"
    assert d["even"] == "true"
    assert d["characteristic_class"] == "(0,0,0,0,0,0)"
    assert d["fixed_realizes_characteristic"] == "true"
    code, out = run_cli(["classify", "t4_chain", "--machine"], capsys)
    assert code == 0
    d = machine_dict(out)
    assert d["verdict"] == "I_abs" and d["witness"] == "(0,0,0,0,0,0)"


@pytest.mark.parametrize("command", ["fixed-set", "divide", "orient"])
def test_map_commands_refuse_chain_data(command, capsys):
    code, out = run_cli([command, "t4_chain"], capsys)
    assert code == 2
    assert out.startswith("input error:") and out.count("\n") == 1, out


CLI_EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "cli_expected.json").read_text("utf-8")
)


@pytest.mark.parametrize(
    "command", sorted(k for k in CLI_EXPECTED if "--model" not in k.split(" "))
)
def test_library_command_report_bytes(command, capsys):
    """Report bytes and exit codes of the library commands are frozen."""
    code, out = run_cli(command.split(" "), capsys)
    assert code == CLI_EXPECTED[command]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_EXPECTED[command]["sha256"]


def test_orient_command(capsys):
    code, out = run_cli(["orient", "torus_reflection", "--machine"], capsys)
    assert code == 0
    assert machine_dict(out)["fixed_edges"] == "8"


def test_cover_commands(capsys):
    code, out = run_cli(
        ["cover", "sphere_octa_sub", "--cut", "arc1", "--machine"], capsys
    )
    assert code == 0
    d = machine_dict(out)
    assert d["total_chi"] == "2" and d["total_betti.1"] == "0"
    code, out = run_cli(
        ["cover", "sphere_octa_sub", "--cut", "arcs_both", "--machine"], capsys
    )
    assert machine_dict(out)["total_betti.1"] == "2"
    code, out = run_cli(
        ["cover", "rp2_6vertex", "--cocycle", "w1_cocycle", "--machine"], capsys
    )
    assert machine_dict(out)["total_chi"] == "2"


def test_cover_requires_exactly_one_mode(capsys):
    code, out = run_cli(["cover", "sphere_octa_sub"], capsys)
    assert code == 2


def test_orient_cover_command(capsys):
    code, out = run_cli(
        ["orient-cover", "klein_bottle", "--curve", "w1dual", "--machine"], capsys
    )
    assert code == 0
    d = machine_dict(out)
    assert d["total_betti.1"] == "2" and d["deck_reverses"] == "true"


def test_compare_command(capsys):
    code, out = run_cli(
        ["compare", "torus_grid", "--y1", "col0,col2", "--y2", "col1,col3",
         "--machine"],
        capsys,
    )
    assert code == 0
    d = machine_dict(out)
    assert d["agree_triangles"] == "32" and d["disagree_triangles"] == "32"


def test_lattice_audit_command(capsys):
    code, out = run_cli(["lattice-audit", "quadric_lattice", "--machine"], capsys)
    assert code == 0
    d = machine_dict(out)
    assert d["orientation_class.cand_b"] == "true"
    assert d["orientation_class.cand_a"] == "false"
    assert d["orientation_class.cand_c"] == "true"
    assert d["orientation_class.cand_d"] == "false"
    assert d["transfer_doubling"] == "true"


def test_qform_commands(capsys):
    code, out = run_cli(["qform", "torus_loops", "--machine"], capsys)
    assert code == 0
    assert machine_dict(out)["arf"] == "0"
    code, out = run_cli(["qform", "rp2_loops", "--machine"], capsys)
    assert machine_dict(out)["brown"] == "7"


def test_model_file_loading(tmp_path, capsys):
    from conjtop.models import model_library
    from conjtop.modelsections import format_model

    path = tmp_path / "library.cjt"
    path.write_text(format_model(model_library()), encoding="utf-8")
    code, out = run_cli(
        ["classify", "quadric", "--h", "(1,1)", "--model", str(path), "--machine"],
        capsys,
    )
    assert code == 0
    assert machine_dict(out)["verdict"] == "I_rel"


def test_chain_with_zero_ranks_from_model_file(tmp_path, capsys):
    path = tmp_path / "cp2.cjt"
    path.write_text(
        "[chain cp2]\nranks 1 0 1 0 1\nboundary 1\nboundary 2\nboundary 3\nboundary 4\n"
        "pairing 1\n1\n",
        encoding="utf-8",
    )
    code, out = run_cli(["homology", "cp2", "--model", str(path), "--machine"], capsys)
    assert code == 0
    d = machine_dict(out)
    assert tuple(d[f"betti.{k}"] for k in range(5)) == ("1", "0", "1", "0", "1")


def test_missing_model_file(capsys):
    code, out = run_cli(["homology", "torus7", "--model", "/no/such/file"], capsys)
    assert code == 2


def test_unreadable_model_file(tmp_path, capsys):
    code, out = run_cli(["homology", "torus7", "--model", str(tmp_path)], capsys)
    assert code == 2 and out.startswith("input error:")
    binary = tmp_path / "binary.cjt"
    binary.write_bytes(b"\xff\xfe[complex")
    code, out = run_cli(["homology", "torus7", "--model", str(binary)], capsys)
    assert code == 2 and out.startswith("input error:")


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_file_exits_2_with_one_line(case, tmp_path, capsys):
    text, reason = MALFORMED_MODELS[case]
    path = tmp_path / f"{case}.cjt"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(["homology", "c", "--model", str(path)], capsys)
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("input error: ") and reason in out


def test_unknown_command_rejected(capsys):
    code, out = run_cli(["frobnicate", "x"], capsys)
    assert code == 2


# the command flags each command reads, in the order its report echoes them;
# every command also takes --model and --machine, and all but congruence an object
COMMAND_FLAGS = {
    "homology": (),
    "fixed-set": (),
    "conj-form": (),
    "classify": ("--h",),
    "divide": (),
    "orient": (),
    "cover": ("--cut", "--cocycle"),
    "orient-cover": ("--curve",),
    "compare": ("--y1", "--y2"),
    "congruence": ("--chi", "--type", "--h1-trivial"),
    "lattice-audit": (),
    "qform": (),
}
FLAG_VALUES = {"--h": "(1,1)", "--chi": "8", "--type": "I_abs", "--h1-trivial": None,
               "--cut": "arc1", "--cocycle": "w1_cocycle", "--curve": "w1dual",
               "--y1": "col0", "--y2": "col1"}
VALID_ARGV = {
    "homology": "homology torus7",
    "fixed-set": "fixed-set quadric",
    "conj-form": "conj-form quadric",
    "classify": "classify quadric --h (1,1)",
    "divide": "divide torus_reflection",
    "orient": "orient torus_reflection",
    "cover": "cover sphere_octa_sub --cut arc1",
    "orient-cover": "orient-cover klein_bottle --curve w1dual",
    "compare": "compare torus_grid --y1 col0,col2 --y2 col1,col3",
    "congruence": "congruence --chi 8 --type I_abs --h1-trivial",
    "lattice-audit": "lattice-audit quadric_lattice",
    "qform": "qform rp2_loops",
}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in COMMAND_FLAGS for flag in FLAG_VALUES
    if flag not in COMMAND_FLAGS[command]
])
def test_flag_the_command_does_not_read_exits_2(command, flag, capsys):
    """A stray flag, with or without a value, is a malformed argument: it is
    never ignored or echoed, and a bare --h is not read as --help."""
    value = FLAG_VALUES[flag]
    for stray in ([flag], [flag, value] if value else [flag, "x"]):
        code = main(VALID_ARGV[command].split(" ") + stray)
        captured = capsys.readouterr()
        assert code == 2, (command, stray)
        assert captured.out == "", (command, stray)
        assert "Traceback" not in captured.err and "unrecognized" in captured.err


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_subcommand_help_lists_exactly_its_flags(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    options = set(re.findall(r"--[a-z0-9-]+", out))
    assert options == {"--help", "--model", "--machine", *COMMAND_FLAGS[command]}
    assert ("positional arguments:" in out) == (command != "congruence")


def test_abbreviated_flags_exit_2(capsys):
    """Flags after the command are spelled in full: prefix matching would
    read a stray --h as --help on every command without --h."""
    for argv in (["homology", "torus7", "--mach"], ["congruence", "--ch", "8", "--type", "II"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().out == ""


# --- the plain reader against argparse ----------------------------------------

EDGE_TOKENS = ("", "-", "--", "-8", "08", "²", "--chi=8", "-h", "--help", "--mach", "(1,1)")
LINE_WORDS = st.one_of(
    st.sampled_from(EDGE_TOKENS + ("torus7", "quadric", "8", "I_abs", "II", "bogus", "x y")),
    st.tuples(st.sampled_from((*FLAG_VALUES, "--model", "--machine")),
              st.sampled_from(EDGE_TOKENS + tuple(v for v in FLAG_VALUES.values() if v))),
)


@functools.lru_cache(maxsize=None)
def argparse_reference():
    return _build_parser()


def assert_reader_agrees(argv):
    """Whenever the reader accepts a line, argparse builds an equal namespace."""
    read = _read(argv)
    if read is None:
        return False
    try:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            parsed = argparse_reference().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the reader accepts {argv}, which argparse refuses")
    assert vars(read) == vars(parsed), argv
    return True


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from((*COMMAND_FLAGS, "nosuch", "--h", "-h")),
       words=st.lists(LINE_WORDS, max_size=6))
def test_reader_matches_argparse(command, words):
    argv = [command]
    for word in words:
        argv += [word] if isinstance(word, str) else list(word)
    assert_reader_agrees(argv)


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_reader_reads_each_command_in_any_order(command):
    """A valid line as given, and with --machine and --model first and its
    object and flags (each with its value) in reverse order."""
    argv = VALID_ARGV[command].split(" ")
    assert assert_reader_agrees(argv)
    words, groups = argv[1:], []
    while words:
        n = 2 if words[0].startswith("-") and FLAG_VALUES[words[0]] else 1
        groups.insert(0, words[:n])
        words = words[n:]
    assert assert_reader_agrees([command, "--machine", "--model", "m.cjt", *sum(groups, [])])


@pytest.mark.parametrize("command", sorted(CLI_EXPECTED))
def test_reader_reads_every_benchmark_line(command):
    """Every cold command the benchmark times is read without argparse."""
    assert assert_reader_agrees(command.split(" "))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["homology"], ["homology", "torus7", "extra"], ["homology", "--machine"],
    ["homology", "torus7", "--machine", "--machine"], ["homology", "torus7", "--mach"],
    ["homology", "torus7", "--model=m.cjt"], ["homology", "torus7", "--model"],
    ["homology", "torus7", "--model", "-"], ["homology", "-"], ["homology", "torus7", "--"],
    ["congruence", "--chi", "x", "--type", "II"], ["congruence", "--chi", "-8", "--type", "II"],
    ["congruence", "--chi", "²", "--type", "II"], ["congruence", "--chi", "8", "--type", "bogus"],
    ["congruence", "--chi", "8", "--chi", "8", "--type", "II"], ["congruence", "torus7"],
    ["classify", "quadric", "--h", "-1,1"], ["classify", "quadric", "--help"],
])
def test_reader_leaves_other_lines_to_argparse(argv):
    assert _read(argv) is None


def test_report_echoes_flags_in_table_order(library, capsys):
    """The command line echoes the flags a command reads in one fixed order
    (--h1-trivial last), whatever order they were given in, and nothing else."""
    everything = Namespace(**{f[2:].replace("-", "_"): v or True for f, v in FLAG_VALUES.items()})
    everything.chi = 8
    report = run("congruence", library, everything)
    assert report.command == "congruence --chi 8 --type I_abs --h1-trivial"
    everything.object = "quadric"
    assert run("classify", library, everything).command == "classify quadric --h (1,1)"
    assert main(["congruence", "--h1-trivial", "--type", "I_abs", "--chi", "8"]) == 0
    assert capsys.readouterr().out.startswith(
        "command: congruence --chi 8 --type I_abs --h1-trivial\n")
    assert main(["compare", "torus_grid", "--y2", "col1,col3", "--y1", "col0,col2"]) == 0
    assert capsys.readouterr().out.startswith(
        "command: compare torus_grid --y1 col0,col2 --y2 col1,col3\n")


def test_report_note_refuses_numbers():
    report = Report("homology")
    report.note("prose only")
    with pytest.raises(ValueError):
        report.note("genus 2")
    assert report.lines == ["prose only"]


# --- fuzzing: mutated model files and arguments ----------------------------------

FUZZ_COMMANDS = (
    "homology torus7",
    "homology t4_chain",
    "fixed-set quadric",
    "conj-form quadric",
    "classify quadric --h (1,1)",
    "divide torus_reflection",
    "orient torus_reflection",
    "cover rp2_6vertex --cocycle w1_cocycle",
    "orient-cover klein_bottle --curve w1dual",
    "compare torus_grid --y1 col0,col2 --y2 col1,col3",
    "congruence --chi 8 --type I_abs --h1-trivial",
    "lattice-audit quadric_lattice",
    "qform rp2_loops",
)
TEXT_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("delete", "insert", "replace", "drop_line", "dup_line")),
        st.integers(0, 10**6),
        st.sampled_from(tuple("0179 -:,([]x#\n")),
    ),
    max_size=3,
)
ARG_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("drop", "insert", "replace")),
        st.integers(0, 10),
        st.sampled_from(("", "x", "-1", "7", "(1,1)", "(1)", "--h", "--chi", "--type",
                         "--cut", "--curve", "torus7", "quadric", "0 1", "col0,col9")),
    ),
    max_size=2,
)


def _mutate_text(text, edits):
    for kind, pos, char in edits:
        lines = text.split("\n")
        i = pos % (len(text) + 1)
        j = pos % len(lines)
        if kind == "delete":
            text = text[:i] + text[i + 1:]
        elif kind == "insert":
            text = text[:i] + char + text[i:]
        elif kind == "replace":
            text = text[:i] + char + text[i + 1:]
        elif kind == "drop_line":
            text = "\n".join(lines[:j] + lines[j + 1:])
        else:
            text = "\n".join(lines[:j + 1] + lines[j:])
    return text


def _mutate_args(args, edits):
    args = list(args)
    for kind, pos, token in edits:
        i = pos % (len(args) + 1)
        if kind == "insert":
            args.insert(i, token)
        elif i < len(args):
            if kind == "drop":
                del args[i]
            else:
                args[i] = token
    return args


@pytest.fixture(scope="module")
def library_text(library):
    return format_model(library)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(FUZZ_COMMANDS),
    text_edits=TEXT_EDITS,
    arg_edits=ARG_EDITS,
)
def test_mutated_inputs_never_raise(library_text, tmp_path_factory, command, text_edits,
                                    arg_edits):
    text = _mutate_text(library_text, text_edits)
    path = tmp_path_factory.getbasetemp() / "fuzz.cjt"
    path.write_text(text, encoding="utf-8")
    argv = _mutate_args(command.split(), arg_edits) + ["--model", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code:
        assert out.getvalue().count("\n") <= 1, out.getvalue()
    try:
        parse_model(text)
    except InputError:
        # a malformed model file never succeeds; "--h" before the command asks for help
        assert code == 2 or out.getvalue().startswith("usage:"), argv

import pytest

from conjtop.errors import InputError
from conjtop.modelfile import ModelFile, format_model, parse_model
from conftest import MALFORMED_MODELS


def test_empty_file_is_valid():
    model = parse_model("")
    assert model == ModelFile()


def test_comments_and_blank_lines_ignored():
    model = parse_model("# a comment\n\n  # another\n")
    assert model == ModelFile()


def test_parse_simple_complex():
    text = """
[complex circle]
vertices 3
simplex 0 1
simplex 1 2
simplex 0 2
"""
    model = parse_model(text)
    K = model.complexes["circle"]
    assert K.vertex_count == 3
    assert K.n_simplices(1) == 3


def test_parse_reports_line_numbers():
    text = "[complex bad]\nvertices 2\nsimplex 0 zebra\n"
    with pytest.raises(InputError, match="line 3"):
        parse_model(text)


def test_parse_rejects_unknown_section():
    with pytest.raises(InputError, match="unknown section"):
        parse_model("[widget w]\n")


def test_parse_rejects_missing_vertices():
    with pytest.raises(InputError, match="vertices"):
        parse_model("[complex c]\nsimplex 0 1\n")


def test_map_with_bad_image_named():
    text = """
[complex tri]
vertices 3
simplex 0 1 2

[map collapse tri tri]
images 0 0 2
"""
    # image of (0,1) is the vertex set {0}, a simplex: this map is fine
    model = parse_model(text)
    assert model.maps["collapse"][2].map_simplex((0, 1, 2)) == (0, 2)


def test_non_simplicial_map_rejected_by_name():
    text = """
[complex path]
vertices 3
simplex 0 1
simplex 1 2

[map twist path path]
images 0 2 1
"""
    with pytest.raises(InputError, match="twist"):
        parse_model(text)


def test_map_referencing_unknown_complex():
    with pytest.raises(InputError, match="unknown complex"):
        parse_model("[map f nowhere nowhere]\nimages 0\n")


def test_quadric_file_statistics(library):
    text = format_model(library)
    model = parse_model(text)
    K = model.complexes["quadric"]
    assert K.vertex_count == 16
    assert K.n_simplices(4) == 96


def test_round_trip_full_library(library):
    text = format_model(library)
    reparsed = parse_model(text)
    assert reparsed == library
    # serialization is stable byte for byte
    assert format_model(reparsed) == text


def test_round_trip_preserves_chain_data(library):
    text = format_model(library)
    model = parse_model(text)
    assert model.chains["t4_chain"] == library.chains["t4_chain"]


def test_round_trip_chain_with_zero_ranks():
    """Boundaries without columns are written without row lines and read back."""
    from conjtop.gf2 import Gf2Matrix
    from conjtop.homology import ChainComplexData

    z, one = Gf2Matrix.zeros, Gf2Matrix.identity
    model = ModelFile()
    model.chains["cp2"] = ChainComplexData(
        (1, 0, 1, 0, 1), [z(1, 0), z(0, 1), z(1, 0), z(0, 1)],
        involution=[one(r) for r in (1, 0, 1, 0, 1)], pairing=one(1), fixed_class=1,
    )
    text = format_model(model)
    assert "\n\n" not in text.rstrip("\n")
    assert parse_model(text) == model
    assert format_model(parse_model(text)) == text


def test_round_trip_preserves_lattices_and_loops(library):
    text = format_model(library)
    model = parse_model(text)
    assert model.lattices == library.lattices
    assert model.loops == library.loops


def test_commands_section_round_trip():
    text = "[commands]\nclassify quadric --h (1,1)\ndivide torus_reflection\n"
    model = parse_model(text)
    assert model.commands == ["classify quadric --h (1,1)", "divide torus_reflection"]
    assert parse_model(format_model(model)) == model


def test_cycle_marks_validated():
    text = """
[complex tri]
vertices 3
simplex 0 1 2
cycle broken : 0 4
"""
    with pytest.raises(InputError, match="missing simplex"):
        parse_model(text)


def test_lattice_section_errors():
    with pytest.raises(InputError, match="rank"):
        parse_model("[lattice L]\ngram\n")
    bad = """
[lattice L]
rank 2
gram
0 1
1 0
isometry
1 1
0 1
"""
    with pytest.raises(InputError, match="L"):
        parse_model(bad)


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_sizes_and_dimensions_name_the_line(case):
    """Sizes and dimension indices are range-checked where they are read:
    none indexes past the ranks, wraps to the last rank or reaches a shift."""
    text, reason = MALFORMED_MODELS[case]
    with pytest.raises(InputError) as err:
        parse_model(text)
    assert reason in str(err.value)

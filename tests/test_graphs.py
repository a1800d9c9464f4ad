import json

import pytest

from rcoxeter import (
    DefiningGraph,
    DuplicateLabelError,
    EmptyVertexListError,
    GraphParseError,
    SelfLoopError,
    UnknownLabelError,
    parse_graph,
    preset,
)


def test_parse_json_square():
    g = parse_graph('{"vertices":["a","b"],"edges":[["a","b"]]}')
    assert g.labels == ("a", "b")
    assert g.adjacent(0, 1) and g.adjacent(1, 0)
    assert g == preset("square")


def test_parse_json_dinfty():
    g = parse_graph('{"vertices":["a","b"],"edges":[]}')
    assert g.labels == ("a", "b")
    assert not g.adjacent(0, 1)
    assert g == preset("dinfty")


def test_parse_json_self_loop():
    with pytest.raises(SelfLoopError):
        parse_graph('{"vertices":["a"],"edges":[["a","a"]]}')


def test_parse_json_duplicate_label():
    with pytest.raises(DuplicateLabelError, match="'a'"):
        parse_graph('{"vertices":["a","a"],"edges":[]}')


def test_parse_json_unknown_edge_label():
    with pytest.raises(UnknownLabelError, match="'c'"):
        parse_graph('{"vertices":["a","b"],"edges":[["a","c"]]}')


def test_parse_json_empty_vertices():
    with pytest.raises(EmptyVertexListError):
        parse_graph('{"vertices":[],"edges":[]}')


def test_parse_json_garbage():
    with pytest.raises(GraphParseError):
        parse_graph("{not json")


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices":["a","b"],"edges":5}',
        "[1,2]",
        '{"vertices":["a","b"],"edges":[{"a":1,"b":2}]}',
        '{"vertices":["a","b"],"edges":[["a","b","a"]]}',
        '{"vertices":["a","b"],"edges":[["a",1]]}',
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=[
        "edges-not-a-list", "top-level-array", "edge-object",
        "edge-of-three", "edge-non-string", "nested-too-deep",
    ],
)
def test_parse_json_schema_violations(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)


@pytest.mark.parametrize("label", ["a b", "a\tb", "a\n", "\u2003a"])
def test_parse_json_label_with_whitespace(label):
    # Words print as space-joined labels, so "a b" would read as a*b.
    with pytest.raises(GraphParseError, match="whitespace"):
        parse_graph(json.dumps({"vertices": [label, "a", "b"]}))


def test_parse_text_format():
    g = parse_graph("a b c\na b\nb c\n")
    assert g.labels == ("a", "b", "c")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_text_bad_edge_line():
    with pytest.raises(GraphParseError, match="two labels"):
        parse_graph("a b\na b c\n")


def test_parse_text_empty():
    with pytest.raises(EmptyVertexListError):
        parse_graph("   \n  \n")


def test_generator_order_is_input_order():
    g = parse_graph('{"vertices":["z","m","a"],"edges":[]}')
    assert g.labels == ("z", "m", "a")
    assert g.index("a") == 2


def test_presets():
    assert preset("square").edges == ((0, 1),)
    assert preset("dinfty").edges == ()
    pentagon = preset("pentagon")
    assert pentagon.labels == ("v0", "v1", "v2", "v3", "v4")
    assert pentagon.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    grid = preset("grid")
    assert grid.labels == ("a", "b", "c", "d")
    assert grid.edges == ((0, 2), (0, 3), (1, 2), (1, 3))


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("hexagon")


def test_adjacency_matrix_invariants():
    for name in ("square", "dinfty", "pentagon", "grid"):
        g = preset(name)
        matrix = g.adjacency
        for i in range(g.n):
            assert matrix[i][i] is False
            for j in range(g.n):
                assert matrix[i][j] == matrix[j][i]


def test_is_complete():
    assert preset("square").is_complete
    assert not preset("dinfty").is_complete
    assert not preset("pentagon").is_complete
    assert DefiningGraph.from_edges(("a",), ()).is_complete


def test_unknown_label_lookup():
    with pytest.raises(UnknownLabelError):
        preset("square").index("q")


def test_constructor_rejects_asymmetric_masks():
    with pytest.raises(GraphParseError, match="symmetric"):
        DefiningGraph(("a", "b"), (0b10, 0b00))

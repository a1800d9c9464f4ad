"""Property tests: the one-pass normal form, the one-pass canonical cube
and the automaton-built Davis ball against independent oracles, and the
closed form of the displacement.

Graphs have up to 8 generators and words up to 40 letters.  The two-phase
algorithm in ``oracles`` and the reflection matrices share no code with
``rcoxeter.words``; the breadth-first ball in ``oracles`` shares none with
``rcoxeter.davis.build_ball``, and the greedy canonical cube none with
``rcoxeter.davis.canonical_cube``.  The export is checked byte for byte
against the one-``json.dumps`` serializer in ``oracles``.  Examples are
derandomized so every run checks the same cases.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rcoxeter import (
    DefiningGraph,
    all_cliques,
    ball_census,
    build_ball,
    build_involution,
    canonical_cube,
    displacement_profile,
    export_complex,
    fixed_loci,
    matrix_product,
    maximum_spherical,
    multiply,
    normal_form,
    preset,
    tits_matrix,
)
from oracles import (
    assert_same_ball,
    bfs_ball,
    greedy_canonical_cube,
    random_graph,
    reference_export,
    two_phase_multiply,
    two_phase_normal_form,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def graphs(draw, max_generators=8):
    n = draw(st.integers(1, max_generators))
    labels = tuple(f"g{i}" for i in range(n))
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return DefiningGraph.from_edges(labels, [p for p, k in zip(pairs, keep) if k])


def words(graph, max_len=40):
    return st.lists(st.integers(0, graph.n - 1), max_size=max_len).map(tuple)


@st.composite
def graph_and_word(draw):
    graph = draw(graphs())
    return graph, draw(words(graph))


@st.composite
def graph_and_pair(draw):
    graph = draw(graphs())
    return graph, draw(words(graph, 20)), draw(words(graph, 20))


@PROPERTY
@given(graph_and_word())
def test_normal_form_matches_two_phase_oracle(case):
    graph, word = case
    assert normal_form(word, graph) == two_phase_normal_form(word, graph)


@PROPERTY
@given(graph_and_pair())
def test_multiply_matches_two_phase_oracle(case):
    graph, x, y = case
    x = normal_form(x, graph)
    assert multiply(x, y, graph) == two_phase_multiply(x, y, graph)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graph_and_pair())
def test_normal_forms_agree_with_tits_matrix(case):
    graph, x, y = case
    nf = normal_form(x + y, graph)
    assert tits_matrix(nf, graph) == tits_matrix(x + y, graph)
    product = multiply(normal_form(x, graph), y, graph)
    assert product == nf


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph_and_word())
def test_canonical_cube_matches_greedy_oracle(case):
    graph, word = case
    g = normal_form(word, graph)
    cliques = all_cliques(graph)
    # Every subset of a clique is a clique, so the matrices of the cliques'
    # products are exactly the elements of the finite subgroups W_T.
    subgroup = {tits_matrix(S, graph): S for S in cliques}
    g_matrix = tits_matrix(g, graph)
    inverses = {}
    for T in cliques:
        cube = canonical_cube(g, T, graph)
        assert cube == greedy_canonical_cube(g, T, graph)
        if cube.base not in inverses:
            inverses[cube.base] = tits_matrix(cube.base[::-1], graph)
        # base^-1 * g is a product of distinct letters of T.
        S = subgroup.get(matrix_product(inverses[cube.base], g_matrix))
        assert S is not None and set(S) <= set(T)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(), st.integers(0, 5))
def test_build_ball_matches_bfs_oracle(graph, radius):
    assert_same_ball(build_ball(graph, radius), bfs_ball(graph, radius))


def assert_closed_form_displacement(graph, radius):
    """Sphere r moves by at least max(k, 2r - k) and at most 2r + k, both
    attained, on every sphere up to the reliable radius, and the involution
    has exactly one fixed locus there."""
    k = len(maximum_spherical(graph))
    inv = build_involution(graph)
    census = ball_census(graph, radius)
    profile = displacement_profile(inv, census)
    assert profile.radii == tuple(range(radius - k + 1))
    assert profile.mins == tuple(max(k, 2 * r - k) for r in profile.radii)
    assert profile.maxs == tuple(2 * r + k for r in profile.radii)
    assert len(fixed_loci(inv, census).loci) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs(max_generators=6).filter(lambda g: not g.is_complete), st.integers(5, 7))
def test_displacement_closed_form(graph, extra):
    assert_closed_form_displacement(graph, len(maximum_spherical(graph)) + extra)


def test_displacement_closed_form_at_large_radii():
    for name, radius in (("pentagon", 12), ("grid", 20), ("dinfty", 400)):
        assert_closed_form_displacement(preset(name), radius)


# Label characters: DOT and JSON specials, control characters, non-ASCII
# and anything else but whitespace, which labels may not contain.
LABEL_CHARS = st.one_of(
    st.sampled_from('"\\\x00\x07\x1b\x7f\u00e9\u20ac\U0001f600'),
    st.characters(blacklist_categories=("Cs",)),
).filter(lambda c: not c.isspace())


@st.composite
def labelled_random_graphs(draw):
    shape = random_graph(random.Random(draw(st.integers(0, 2**32))), max_vertices=8)
    labels = draw(
        st.lists(
            st.text(LABEL_CHARS, min_size=1, max_size=4),
            min_size=shape.n,
            max_size=shape.n,
            unique=True,
        )
    )
    return DefiningGraph(tuple(labels), shape.neighbor_masks)


def dot_escaped(graph):
    labels = (label.replace("\\", "\\\\").replace('"', '\\"') for label in graph.labels)
    return DefiningGraph(tuple(labels), graph.neighbor_masks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(labelled_random_graphs(), st.integers(0, 5))
def test_export_matches_reference(graph, radius):
    ball = build_ball(graph, radius)
    assert export_complex(ball, "json") == reference_export(ball, "json")
    dot = export_complex(ball, "dot")
    if not any('"' in label or "\\" in label for label in graph.labels):
        assert dot == reference_export(ball, "dot")
    # Escaping is per label, so it equals the reference on escaped labels.
    assert dot == reference_export(build_ball(dot_escaped(graph), radius), "dot")

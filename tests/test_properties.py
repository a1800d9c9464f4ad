"""Property tests: the one-pass normal form, the one-pass canonical cube
and the automaton-built Davis ball against independent oracles, and the
closed form of the displacement.

Graphs have up to 8 generators and words up to 40 letters.  The two-phase
algorithm in ``oracles`` and the reflection matrices share no code with
``rcoxeter.words``; the breadth-first ball in ``oracles`` shares none with
``rcoxeter.davis.build_ball``, and the greedy canonical cube none with
``rcoxeter.davis.canonical_cube``.  The export is checked byte for byte
against the one-``json.dumps`` serializer in ``oracles``, the fixed loci
and the profile, read off a census and off a ball, against the references
that walk an enumerated ball, and the bitmask flag check against the
subset-by-subset reference, on whole balls and on balls missing one cube.
The left-descent lemma is checked vertex by vertex; the invariant cubes
found in the clique's subgroup against the walk that multiplies out every
conjugate, and the profile read off the growth series against that walk,
against the walk of left-descent bitmasks and against the closed form by
inclusion-exclusion.  Examples are derandomized so every
run checks the same cases.
"""

import random

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from rcoxeter import (
    Ball,
    DefiningGraph,
    PRESETS,
    all_cliques,
    ball_census,
    build_ball,
    build_involution,
    canonical_cube,
    conjugate,
    displacement_profile,
    export_complex,
    fixed_loci,
    invariant_cubes,
    links_flag_check,
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
    bitmask_walk,
    closed_form_spheres,
    complete_graph,
    filtered_invariant_cubes,
    greedy_canonical_cube,
    left_descents,
    multiply_walk,
    profile_of,
    random_graph,
    reference_export,
    reference_flag_check,
    two_phase_multiply,
    two_phase_normal_form,
    walked_profile,
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


# Every example builds and walks a ball, so shrinking a failure could run
# for minutes; the first failing example is reported as drawn.
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(graphs(max_generators=7).filter(lambda g: not g.is_complete), st.integers(1, 5))
def test_census_and_ball_match_ball_walk(graph, extra):
    """The fixed loci and the profile read the same off the census as off
    the enumerated ball, and the same as the references that walk it."""
    inv = build_involution(graph)
    radius = inv.n + extra
    census = ball_census(graph, radius)
    report = fixed_loci(inv, census)
    profile = displacement_profile(inv, census)
    ball = build_ball(graph, radius)
    assert report == fixed_loci(inv, ball)
    assert profile == displacement_profile(inv, ball)
    cubes = filtered_invariant_cubes(inv, ball)
    assert tuple(locus.cube for locus in report.loci) == cubes
    assert profile == walked_profile(inv, ball)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graphs(max_generators=7))
def test_displacement_from_left_descents(graph):
    """The left-descent lemma, vertex by vertex: |w^-1 * gamma * w| is
    2|w| + k - 2|LD(w) & C|, with LD(w) found by left multiplication.

    Every vertex of the ball of radius k + 5 is checked.  A few of these
    balls have up to a million vertices, at about 40 microseconds a
    vertex, so balls of more than 20,000 vertices are drawn again.
    """
    inv = build_involution(graph)
    radius = inv.n + 5
    assume(ball_census(graph, radius, max_vertices=10**8).vertex_count <= 20_000)
    clique = set(inv.clique)
    for w in build_ball(graph, radius).vertices:
        moved = len(conjugate(w, inv.element, graph))
        assert moved == 2 * len(w) + inv.n - 2 * len(left_descents(w, graph) & clique)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(max_generators=7))
def test_walk_matches_multiply_walk_at_every_radius(graph):
    """The search of W_C finds the invariant cubes, and the growth series the
    profile, of the walk that multiplies every state's conjugate and tests
    every sphere, and of the walk of left-descent bitmasks, at every radius
    up to k + 5."""
    inv = build_involution(graph)
    for radius in range(inv.n + 6):
        census = ball_census(graph, radius, max_vertices=10**8)
        walk = multiply_walk(inv, census)
        assert invariant_cubes(inv, census) == walk.cubes
        profile = displacement_profile(inv, census)
        assert profile == profile_of(walk.spheres)
        assert profile == profile_of(bitmask_walk(inv, census))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs(max_generators=7), st.integers(0, 5))
def test_walk_matches_closed_form_profile(graph, extra):
    """Each sphere's (min, max, sum, count) by inclusion-exclusion, and by
    the walk of left-descent bitmasks, gives the profile, complete graphs
    included."""
    radius = len(maximum_spherical(graph)) + extra
    census = ball_census(graph, radius, max_vertices=10**8)
    inv = build_involution(graph)
    profile = displacement_profile(inv, census)
    assert profile == profile_of(closed_form_spheres(graph, radius))
    assert profile == profile_of(bitmask_walk(inv, census))


def test_closed_form_profile_on_presets_and_complete_graphs():
    cases = [
        (preset(name), radius)
        for name, radius in (("square", 6), ("dinfty", 2000), ("pentagon", 12), ("grid", 12))
    ]
    cases += [(complete_graph(n), radius) for n in (1, 4, 8) for radius in range(12)]
    for graph, radius in cases:
        inv = build_involution(graph)
        census = ball_census(graph, radius)
        profile = displacement_profile(inv, census)
        assert profile == profile_of(closed_form_spheres(graph, radius))
        assert profile == profile_of(bitmask_walk(inv, census))


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


def without(ball, cube):
    cubes = tuple(c for c in ball.cubes if c != cube)
    return Ball(ball.graph, ball.radius, ball.vertices, cubes, ball.reliable_radius)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(max_generators=7), st.integers(-1, 3), st.data())
def test_flag_check_matches_reference(graph, extra, data):
    # Radii around the maximum clique size k put the reliable radius at
    # -1 to 3.  A hand-built ball missing one stored cube covers squares
    # missing an edge and cubes missing a face; one missing a cube of
    # dimension 3 or more is how a violation arises.
    radius = max(0, len(maximum_spherical(graph)) + extra)
    ball = build_ball(graph, radius)
    assert links_flag_check(ball) == reference_flag_check(ball)
    for least in (1, 3):
        cells = [cube for cube in ball.cubes if cube.dimension >= least]
        if cells:
            damaged = without(ball, cells[data.draw(st.integers(0, len(cells) - 1))])
            assert links_flag_check(damaged) == reference_flag_check(damaged)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_flag_check_matches_reference_on_presets(name):
    graph = PRESETS[name]
    for radius in range(len(maximum_spherical(graph)) + 5):
        ball = build_ball(graph, radius)
        assert links_flag_check(ball) == reference_flag_check(ball)


REMOVALS = [
    (n, i)
    for n in (4, 5)
    for i, cube in enumerate(build_ball(complete_graph(n), 2 * n).cubes)
    if cube.dimension in (3, 4)
]


@pytest.mark.parametrize("n, which", REMOVALS, ids=[f"K{n}-{i}" for n, i in REMOVALS])
def test_flag_check_matches_reference_without_a_large_cube(n, which):
    full = build_ball(complete_graph(n), 2 * n)
    ball = without(full, full.cubes[which])
    report = links_flag_check(ball)
    assert not report.ok
    assert report == reference_flag_check(ball)

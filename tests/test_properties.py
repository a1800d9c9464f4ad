"""Property tests: the one-pass normal form, the one-pass canonical cube
and the automaton-built Davis ball against independent oracles, and the
closed form of the displacement.

Graphs have up to 8 generators and words up to 40 letters; the normal
forms also see words of hundreds of letters on ``grid`` whose letters
scan long suffixes of commuting letters.  The two-phase
algorithm in ``oracles`` and the reflection matrices share no code with
``rcoxeter.words``; the breadth-first ball in ``oracles`` shares none with
``rcoxeter.davis.build_ball``, and the greedy canonical cube none with
``rcoxeter.davis.canonical_cube``, which must also agree with its former
per-letter scan, errors included, on any letters given in any iterable.
The export is checked byte for byte
against the one-``json.dumps`` serializer in ``oracles``, on whole balls
and on balls missing one cube, the fixed loci and the profile, read off a
census and off a ball, against the references that walk an enumerated
ball, and the bitmask flag check against the subset-by-subset reference,
on whole balls and on balls missing one cube.  The flag check, the cube
lists and the cube lookups must give the oracles' answers in any drawn
order, since whichever reads a vertex first freezes its cube groups.
The left-descent lemma is checked vertex by vertex, and so is the length
of gamma * w, which makes the Gromov product (w | gamma * w)_e zero; the
invariant cubes found in the clique's subgroup against the walk that
multiplies out every conjugate, and the profile read off the growth
series against that walk, against the walk of left-descent bitmasks and
against the closed form by inclusion-exclusion.  The census, the vertex
cap and the profile are checked at radii up to 40, and on ``dinfty`` at
400, against the count of automaton states with multiplicity, and
``certify``, which checks all three in one walk, against separate calls.
Examples are derandomized so every run checks the same cases.
"""

import random
from itertools import accumulate

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from rcoxeter import (
    Ball,
    Cube,
    DefiningGraph,
    PRESETS,
    ResourceCapError,
    all_cliques,
    antipodal_check,
    ball_census,
    build_ball,
    build_involution,
    canonical_cube,
    certify,
    conjugate,
    cubes_at_vertex,
    displacement_profile,
    export_complex,
    fixed_loci,
    has_order_two,
    invariant_cubes,
    links_flag_check,
    matrix_product,
    maximum_spherical,
    multiply,
    normal_form,
    preset,
    spherical_poset,
    tits_matrix,
)
from rcoxeter import probe
from oracles import (
    assert_same_ball,
    bfs_ball,
    bitmask_walk,
    closed_form_spheres,
    complete_graph,
    corrupted_census,
    cubes_through,
    filtered_invariant_cubes,
    greedy_canonical_cube,
    histogram_stats,
    left_descents,
    maximal_elements,
    multiply_walk,
    per_letter_canonical_cube,
    profile_of,
    random_graph,
    reference_export,
    reference_flag_check,
    state_census,
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


GRID = preset("grid")


@st.composite
def long_scans(draw):
    """A word on ``grid`` whose letters scan long suffixes of commuting
    letters: pieces (c d)^(L/2), L <= 200, with L/4 pairs "a a" at seeded
    positions, since a commutes with c and d, joined by free-product
    stretches (a b)^m, where every scan stops at the letter before."""
    rng = draw(st.randoms(use_true_random=False))
    word: list[int] = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            piece = [2, 3] * draw(st.integers(0, 100))
            for _ in range(len(piece) // 4):
                at = rng.randint(0, len(piece))
                piece[at:at] = (0, 0)
        else:
            piece = [0, 1] * draw(st.integers(1, 20))
        word += piece
    return GRID, tuple(word)


@st.composite
def long_scan_pairs(draw):
    graph, word = draw(long_scans())
    cut = draw(st.integers(0, len(word)))
    return graph, word[:cut], word[cut:]


@PROPERTY
@given(st.one_of(graph_and_word(), long_scans()))
def test_normal_form_matches_two_phase_oracle(case):
    graph, word = case
    assert normal_form(word, graph) == two_phase_normal_form(word, graph)


@PROPERTY
@given(st.one_of(graph_and_pair(), long_scan_pairs()))
def test_multiply_matches_two_phase_oracle(case):
    graph, x, y = case
    x = normal_form(x, graph)
    assert multiply(x, y, graph) == two_phase_multiply(x, y, graph)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(graph_and_pair(), long_scan_pairs()))
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graph_and_word(), st.data())
def test_canonical_cube_matches_per_letter_scan(case, data):
    # Any letters as the axis, given as a tuple, a list or a one-shot
    # iterator: an out-of-range, negative, unsorted or repeated letter, a
    # non-clique or the empty axis must give the former scan's cube or its
    # error.  Strictly increasing in-range axes, the one-pass case, are
    # drawn as often as the rest.
    graph, word = case
    g = normal_form(word, graph)
    n = graph.n
    axis = data.draw(
        st.lists(st.integers(-2, n + 1), max_size=n + 1)
        | st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(sorted)
    )
    given_as = data.draw(st.sampled_from([tuple, list, iter]))
    try:
        expected = per_letter_canonical_cube(g, given_as(axis), graph)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            canonical_cube(g, given_as(axis), graph)
        assert str(raised.value) == str(error)
    else:
        assert canonical_cube(g, given_as(axis), graph) == expected


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
    # The census enumerates nothing, so the default vertex cap is lifted:
    # six generators with one edge pass it at radius 9.
    census = ball_census(graph, radius, max_vertices=10**30)
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


def test_gamma_shortens_by_its_left_descents():
    """The Gromov-product property, vertex by vertex: |gamma * w| is
    |w| + k - 2|LD(w) & C| for every maximal clique C, with the product
    taken by ``multiply`` and LD(w) by left multiplication, so that
    (w | gamma * w)_e is 0.  Every vertex of the balls of radius 6 of the
    presets and of 20 random graphs is checked."""
    rng = random.Random(6)
    checked = 0
    for graph in [*PRESETS.values()] + [random_graph(rng, 6) for _ in range(20)]:
        cliques = maximal_elements(spherical_poset(graph))
        for w in build_ball(graph, 6).vertices:
            descents = left_descents(w, graph)
            for clique in cliques:
                k = len(clique)
                image = len(multiply(clique, w, graph))
                assert image == len(w) + k - 2 * len(descents & set(clique))
                assert len(w) + image == len(conjugate(w, clique, graph))
                checked += 1
    assert checked == 130_308


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(max_generators=7))
def test_walk_matches_multiply_walk_at_every_radius(graph):
    """The generator checks find the invariant cubes, and the growth series the
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


def assert_matches_state_census(graph, radius, data=None):
    """The census, the profile and, for a vertex cap drawn from ``data``,
    the radius the cap stops at agree with ``state_census``, which counts
    the ball by automaton state and shares neither the growth series nor
    the clique counts with them."""
    states = state_census(graph, radius)
    total = sum(states.sphere_sizes)
    census = ball_census(graph, radius, max_vertices=total)
    assert census.vertex_count == total
    assert census.cells_by_dimension == states.cells_by_dimension
    profile = displacement_profile(build_involution(graph), census)
    assert profile == profile_of([histogram_stats(h) for h in states.displacements])
    if data is None:
        return
    cap = data.draw(st.integers(1, total))
    if cap == total:
        return
    fits = [r for r, size in enumerate(accumulate(states.sphere_sizes)) if size <= cap]
    with pytest.raises(ResourceCapError) as caught:
        ball_census(graph, radius, max_vertices=cap)
    assert caught.value.radius_reached == fits[-1]


# An example takes up to half a second, and shrinking a failure, drawn cap
# included, could run for minutes; the first failing example is reported
# as drawn.
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(graphs(), st.integers(0, 40), st.data())
def test_census_and_profile_match_state_census(graph, radius, data):
    """At radii up to 40 on graphs of up to 8 generators, far past any
    enumerated ball, with a vertex cap drawn below the ball's size."""
    assert_matches_state_census(graph, radius, data)


@pytest.mark.parametrize(
    "name, radius", (("pentagon", 40), ("grid", 40), ("square", 40), ("dinfty", 400))
)
def test_state_census_on_presets_at_large_radii(name, radius):
    assert_matches_state_census(preset(name), radius)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(), st.integers(0, 40), st.data())
def test_certify_matches_separate_calls(graph, extra, data):
    """``certify`` checks the cap, the census and the least displacement
    in one walk of the growth series, and holds no profile.  Its fields,
    and at a drawn vertex cap the error it stops with, are those of
    separate ``ball_census``, ``fixed_loci`` and ``displacement_profile``
    calls; ``state_census`` above checks those."""
    inv = build_involution(graph)
    radius = (graph.n if graph.is_complete else inv.n + 1) + extra
    total = ball_census(graph, radius, max_vertices=10**100).vertex_count
    cap = data.draw(st.one_of(st.just(total), st.integers(1, total)))
    try:
        census = ball_census(graph, radius, max_vertices=cap)
    except ResourceCapError as error:
        with pytest.raises(ResourceCapError) as caught:
            certify(graph, radius, max_vertices=cap)
        assert caught.value.radius_reached == error.radius_reached
        assert str(caught.value) == str(error)
        return
    certificate = certify(graph, radius, max_vertices=cap)
    report = fixed_loci(inv, census)
    monotone = _meets_the_bound(displacement_profile(inv, census), inv.n)
    order_two = has_order_two(inv.element, graph)
    antipodal = antipodal_check(inv, graph)
    assert certificate.reliable_radius == census.reliable_radius == radius - inv.n
    assert certificate.unique_fixed_point == report.unique_point
    assert certificate.displacement_monotone == monotone
    assert (certificate.order_two, certificate.antipodal) == (order_two, antipodal)
    assert certificate.verdict == (
        order_two and report.unique_point and antipodal and monotone
    )


def _meets_the_bound(profile, k):
    """Whether the profile's minimum on each sphere r is max(k, 2r - k),
    the least displacement of the lemma in ``probe``."""
    return profile.mins == tuple(max(k, 2 * r - k) for r in profile.radii)


def _bound_both_ways(graph, radius):
    """``certify``'s bound check, made in the walk, and the closed form
    against the profile's minima.  Both must hold: every q the check reads
    is positive."""
    inv = build_involution(graph)
    census = ball_census(graph, radius, max_vertices=10**100)
    profile = displacement_profile(inv, census)
    assert profile.radii and profile.monotone
    return (
        certify(graph, radius, max_vertices=10**100).displacement_monotone,
        _meets_the_bound(profile, inv.n),
    )


@pytest.mark.parametrize("n", range(1, 11))
def test_certify_monotone_matches_profile_on_complete_graphs(n):
    """K_n at its diameter, one past it, at 2n and past 2n: the walk stops
    at the empty sphere n + 1, and the profile reads the spheres up to
    min(radius - n, n), each of which moves by n."""
    for radius in (n, n + 1, 2 * n, 2 * n + 3):
        assert _bound_both_ways(complete_graph(n), radius) == (True, True)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_certify_monotone_matches_profile_on_presets(name):
    graph = preset(name)
    k = len(maximum_spherical(graph))
    low = graph.n if graph.is_complete else k + 1
    for radius in range(low, 61):
        assert _bound_both_ways(graph, radius) == (True, True)


def test_a_zero_q3_fails_certify_where_the_bound_reads_it(monkeypatch):
    """q_3 := 0 handed to ``certify``'s receiver, on the presets, K1..K8
    and 40 random graphs.  At radius R the bound reads q_l for l up to
    R - 2k on an infinite group and only q_0 on K_n, whose spheres stop at
    n = k, so the check fails exactly when R - 2k >= 3 on an infinite
    group, and so does the profile's ``monotone``, the same bound.  A check
    that the minimum never drops passes every case: the most left descents
    in C rise by at most 1 a sphere, whatever the q's.
    """
    rng = random.Random(3)
    cases = [*PRESETS.values()] + [complete_graph(n) for n in range(1, 9)]
    cases += [random_graph(rng, 7) for _ in range(40)]
    monkeypatch.setattr(probe, "_census", corrupted_census(3, 0))
    failed = passed = 0
    for graph in cases:
        k = len(maximum_spherical(graph))
        if graph.is_complete:
            radii = (graph.n, 2 * graph.n)
        else:
            radii = (k + 1, 2 * k + 2, 2 * k + 3, 2 * k + 6)
        for radius in radii:
            certificate = certify(graph, radius, max_vertices=10**100)
            reads_q3 = not graph.is_complete and radius - 2 * k >= 3
            assert certificate.displacement_monotone != reads_q3
            assert certificate.verdict != reads_q3
            census = ball_census(graph, radius, max_vertices=10**100)
            profile = displacement_profile(build_involution(graph), census)
            assert profile.monotone != reads_q3
            failed += reads_q3
            passed += not reads_q3
    assert (failed, passed) == (68, 104)


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
@given(labelled_random_graphs(), st.integers(0, 5), st.data())
def test_export_matches_reference(graph, radius, data):
    # The DOT edges are read from the ascent table that ``Ball`` fills from
    # the cubes it is given, so a hand-built ball missing one positive-
    # dimensional cube is exported too.
    ball = build_ball(graph, radius)
    escaped = build_ball(dot_escaped(graph), radius)
    pairs = [(ball, escaped)]
    cells = [cube for cube in ball.cubes if cube.dimension >= 1]
    if cells:
        cube = cells[data.draw(st.integers(0, len(cells) - 1))]
        pairs.append((without(ball, cube), without(escaped, cube)))
    for ball, escaped in pairs:
        assert export_complex(ball, "json") == reference_export(ball, "json")
        dot = export_complex(ball, "dot")
        if not any('"' in label or "\\" in label for label in graph.labels):
            assert dot == reference_export(ball, "dot")
        # Escaping is per label, so it equals the reference on escaped labels.
        assert dot == reference_export(escaped, "dot")


def without(ball, cube):
    """A new ``Ball`` on the same cubes but ``cube``; a fresh copy for
    ``None``."""
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graphs(max_generators=6), st.integers(-1, 3), st.data())
def test_answers_do_not_depend_on_read_order(graph, extra, data):
    # A ball freezes each vertex's cube lists on the first read, whichever
    # reader makes it.  A drawn sequence of ``cubes_at_vertex`` and
    # ``has_cube`` reads with the flag check at a drawn place must give the
    # oracles' answers, on the whole ball or on one missing a drawn cube.
    radius = max(0, len(maximum_spherical(graph)) + extra)
    ball = build_ball(graph, radius)
    cells = [cube for cube in ball.cubes if cube.dimension >= 1]
    if cells and data.draw(st.booleans()):
        ball = without(ball, cells[data.draw(st.integers(0, len(cells) - 1))])
    stored = set(ball.cubes)
    flag = reference_flag_check(without(ball, None))
    reads = data.draw(st.lists(
        st.one_of(
            st.tuples(st.just("at"), st.integers(0, len(ball.vertices) - 1)),
            # A stored cube, or the same axis on its base times a generator.
            st.tuples(
                st.just("has"),
                st.integers(0, len(ball.cubes) - 1),
                st.none() | st.integers(0, graph.n - 1),
            ),
        ),
        max_size=12,
    ))
    reads.insert(data.draw(st.integers(0, len(reads))), ("flag",))
    reader = without(ball, None)
    for kind, *where in reads:
        if kind == "flag":
            assert links_flag_check(reader) == flag
        elif kind == "at":
            v = ball.vertices[where[0]]
            assert cubes_at_vertex(reader, v) == cubes_through(ball, v)
        else:
            base, axis = ball.cubes[where[0]]
            if where[1] is not None:
                base = multiply(base, (where[1],), graph)
            assert reader.has_cube(Cube(base, axis)) == ((base, axis) in stored)


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

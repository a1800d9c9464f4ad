import hashlib
import itertools
import json
import random
import re
import tracemalloc
from math import comb

import pytest

from rcoxeter import (
    IDENTITY,
    Ball,
    Cube,
    DefiningGraph,
    FlagViolation,
    ResourceCapError,
    ball_census,
    build_ball,
    canonical_cube,
    certify,
    cubes_at_vertex,
    export_complex,
    links_flag_check,
    multiply,
    preset,
    sphere,
    spherical_poset,
    tits_matrix,
    word_to_text,
)
from rcoxeter.cli import main
from oracles import (
    assert_same_ball,
    bfs_ball,
    complete_graph,
    cube_sort_key,
    cube_vertices,
    greedy_canonical_cube,
    matrix_ball_sphere_sizes,
    random_graph,
    reference_export,
)

SQUARE = preset("square")
DINFTY = preset("dinfty")
PENTAGON = preset("pentagon")
GRID = preset("grid")
ALL_PRESETS = (SQUARE, DINFTY, PENTAGON, GRID)


class TestBuildBall:
    def test_dinfty_is_a_line(self):
        ball = build_ball(DINFTY, 3)
        assert ball.vertices == (
            (),
            (0,),
            (1,),
            (0, 1),
            (1, 0),
            (0, 1, 0),
            (1, 0, 1),
        )
        assert ball.reliable_radius == 2

    def test_dinfty_sphere_sizes_match_matrix_bfs(self):
        for radius in range(9):
            ball = build_ball(DINFTY, radius)
            assert len(ball.vertices) == 2 * radius + 1
        assert matrix_ball_sphere_sizes(DINFTY, 8) == [1] + [2] * 8

    def test_square_order_four_group(self):
        ball = build_ball(SQUARE, 2)
        assert len(ball.vertices) == 4
        assert ball.cell_counts() == (4, 4, 1)
        assert sum(ball.cell_counts()) == 9
        assert ball.reliable_radius == 0

    def test_pentagon_radius_two_census(self):
        ball = build_ball(PENTAGON, 2)
        assert len(ball.vertices) == 21
        assert sum(matrix_ball_sphere_sizes(PENTAGON, 2)) == 21

    def test_sphere_sizes_match_matrix_bfs_everywhere(self):
        for graph, radius in ((SQUARE, 4), (DINFTY, 6), (PENTAGON, 4), (GRID, 5)):
            ball = build_ball(graph, radius)
            sizes = matrix_ball_sphere_sizes(graph, radius)
            assert [len(sphere(ball, r)) for r in range(radius + 1)] == sizes

    def test_vertices_have_distinct_matrices(self):
        for graph, radius in ((SQUARE, 2), (DINFTY, 5), (PENTAGON, 3), (GRID, 4)):
            ball = build_ball(graph, radius)
            matrices = {tits_matrix(w, graph) for w in ball.vertices}
            assert len(matrices) == len(ball.vertices)

    def test_vertex_order_is_shortlex(self):
        for graph in ALL_PRESETS:
            ball = build_ball(graph, 3)
            assert list(ball.vertices) == sorted(
                ball.vertices, key=lambda w: (len(w), w)
            )

    def test_cube_order_is_canonical(self):
        ball = build_ball(GRID, 3)
        keys = [cube_sort_key(c) for c in ball.cubes]
        assert keys == sorted(keys)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            build_ball(SQUARE, -1)

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError) as info:
            build_ball(PENTAGON, 6, max_vertices=50)
        assert info.value.limit == 50
        assert info.value.radius_reached == 2
        assert "50" in str(info.value)

    def test_resource_cap_stops_before_the_sphere_is_built(self):
        # 24 free generators: spheres of 1, 24, 552, 12,696 and then
        # 292,008 words, the last far over the cap.
        labels = tuple(f"g{i}" for i in range(24))
        free = DefiningGraph.from_edges(labels, [])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError) as info:
                build_ball(free, 6, max_vertices=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.radius_reached == 3
        assert peak < 10 * 2**20

    def test_zero_cap_rejects_even_the_identity(self):
        for radius in (0, 3):
            with pytest.raises(ResourceCapError) as info:
                build_ball(PENTAGON, radius, max_vertices=0)
            assert info.value.radius_reached == -1
            assert "no radius fits" in str(info.value)


class TestCapBeforeAllocation:
    """The census raises the cap error before any automaton state exists."""

    @staticmethod
    def traced_cap_error(build, *args, **kwargs):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError) as info:
                build(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return info.value, peak

    def test_line_at_a_huge_radius(self):
        # dinfty has 2r + 1 vertices within radius r.
        with pytest.raises(ResourceCapError) as info:
            build_ball(DINFTY, 10**8)
        assert info.value.radius_reached == 499_999
        assert str(info.value) == (
            "vertex cap 1000000 exceeded; last complete radius was 499999"
        )
        # Tracing allocations slows the census loop about fifteenfold, so
        # the traced run takes a smaller cap; a ball of radius 9,999 would
        # still hold some 800 MB of words.
        error, peak = self.traced_cap_error(build_ball, DINFTY, 10**8, max_vertices=20_000)
        assert error.radius_reached == 9_999
        assert peak < 2**20

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_complete_graph_caps(self, n):
        # K_n has C(n, r) elements of length r.  A cap below the clique
        # count of some size stops the census while it counts cliques.
        graph = complete_graph(n)
        totals = list(itertools.accumulate(comb(n, r) for r in range(n + 1)))
        for cap in range(1, 2**n):
            fits = sum(1 for total in totals if total <= cap) - 1
            for radius in (fits + 1, n, 10**6):
                with pytest.raises(ResourceCapError) as info:
                    ball_census(graph, radius, max_vertices=cap)
                assert info.value.radius_reached == fits
            assert ball_census(graph, fits, max_vertices=cap).vertex_count == totals[fits]
        assert ball_census(graph, 10**6, max_vertices=2**n).vertex_count == 2**n

    def test_random_graph_caps(self):
        rng = random.Random(8)
        for _ in range(30):
            graph = random_graph(rng, max_vertices=8)
            sizes = [ball_census(graph, r).vertex_count for r in range(6)]
            for cap in range(1, min(sizes[5], 300)):
                with pytest.raises(ResourceCapError) as info:
                    ball_census(graph, 5, max_vertices=cap)
                assert info.value.radius_reached == sum(v <= cap for v in sizes) - 1

    def test_pentagon_at_radius_forty(self):
        for build in (build_ball, ball_census, certify):
            error, peak = self.traced_cap_error(build, PENTAGON, 40)
            assert error.radius_reached == 13
            assert str(error) == "vertex cap 1000000 exceeded; last complete radius was 13"
            assert peak < 2**20


class TestFiniteGroupAtHugeRadius:
    def test_build_stops_at_the_first_empty_sphere(self):
        tracemalloc.start()
        try:
            ball = build_ball(SQUARE, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert ball.vertices == ((), (0,), (1,), (0, 1))
        assert ball.cell_counts() == (4, 4, 1)
        assert ball.reliable_radius == 10**7 - 2
        assert sphere(ball, 2) == ((0, 1),)
        assert sphere(ball, 3) == sphere(ball, 10**7) == ()
        with pytest.raises(ValueError):
            sphere(ball, 10**7 + 1)

    def test_certify_square(self):
        certificate = certify(SQUARE, 10**6)
        assert certificate.verdict
        assert certificate.reliable_radius == 10**6 - 2


class TestCensus:
    @staticmethod
    def assert_matches_ball(graph, radius):
        ball = build_ball(graph, radius)
        census = ball_census(graph, radius)
        assert census.vertex_count == len(ball.vertices)
        assert census.cells_by_dimension == ball.cell_counts()
        assert census.reliable_radius == ball.reliable_radius
        assert census.radius == radius
        assert census.as_dict() == {
            "radius": radius,
            "reliable_radius": ball.reliable_radius,
            "vertex_count": len(ball.vertices),
            "cells_by_dimension": list(ball.cell_counts()),
            "cells_total": len(ball.cubes),
        }

    @staticmethod
    def sphere_sizes(graph, radius):
        counts = [ball_census(graph, r).vertex_count for r in range(radius + 1)]
        return [b - a for a, b in zip([0] + counts, counts)]

    def test_presets_and_complete_graphs(self):
        for graph in ALL_PRESETS + (complete_graph(3), complete_graph(5)):
            for radius in range(9):
                self.assert_matches_ball(graph, radius)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_graphs(self, seed):
        graph = random_graph(random.Random(seed))
        for radius in range(6):
            self.assert_matches_ball(graph, radius)

    def test_sphere_sizes_match_the_ball_and_matrix_bfs(self):
        for graph, radius in ((SQUARE, 4), (DINFTY, 6), (PENTAGON, 4), (GRID, 5)):
            ball = build_ball(graph, radius)
            sizes = self.sphere_sizes(graph, radius)
            assert sizes == [len(sphere(ball, r)) for r in range(radius + 1)]
            assert sizes == matrix_ball_sphere_sizes(graph, radius)

    def test_radii_out_of_the_balls_reach(self):
        line = ball_census(DINFTY, 10**4)
        assert line.vertex_count == 2 * 10**4 + 1
        assert line.cells_by_dimension == (2 * 10**4 + 1, 2 * 10**4)
        # pentagon: W(t) = (1+t)^2 / (1 - 3t + t^2)
        assert self.sphere_sizes(PENTAGON, 12)[9:] == [12_920, 33_825, 88_555, 231_840]
        # the group of the square is (Z/2)^2 whatever the radius
        assert ball_census(SQUARE, 10**9).as_dict() == {
            "radius": 10**9,
            "reliable_radius": 10**9 - 2,
            "vertex_count": 4,
            "cells_by_dimension": [4, 4, 1],
            "cells_total": 9,
        }

    def test_argument_errors_match_build_ball(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ball_census(SQUARE, -1)
        with pytest.raises(ResourceCapError) as info:
            ball_census(PENTAGON, 6, max_vertices=50)
        assert info.value.radius_reached == 2


class TestAgainstBfsOracle:
    @pytest.mark.parametrize("graph", ALL_PRESETS, ids=lambda g: " ".join(g.labels))
    def test_presets(self, graph):
        for radius in range(7):
            assert_same_ball(build_ball(graph, radius), bfs_ball(graph, radius))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_graphs(self, seed):
        graph = random_graph(random.Random(seed))
        for radius in range(6):
            assert_same_ball(build_ball(graph, radius), bfs_ball(graph, radius))

    def test_same_cap_errors(self):
        def outcome(build, graph, cap):
            try:
                return len(build(graph, 8, max_vertices=cap).vertices)
            except ResourceCapError as exc:
                return str(exc), exc.radius_reached

        for graph in ALL_PRESETS:
            for cap in (1, 2, 4, 6, 20, 50):
                assert outcome(build_ball, graph, cap) == outcome(bfs_ball, graph, cap)


class TestSphere:
    def test_radius_zero_is_identity(self):
        for graph in ALL_PRESETS:
            assert sphere(build_ball(graph, 2), 0) == (IDENTITY,)

    def test_dinfty_radius_two(self):
        assert sphere(build_ball(DINFTY, 2), 2) == ((0, 1), (1, 0))

    def test_square_radius_two(self):
        assert sphere(build_ball(SQUARE, 2), 2) == ((0, 1),)

    def test_out_of_range(self):
        ball = build_ball(SQUARE, 2)
        with pytest.raises(ValueError):
            sphere(ball, 3)
        with pytest.raises(ValueError):
            sphere(ball, -1)


class TestCanonicalCube:
    def test_vertex_already_in_coset(self):
        assert canonical_cube((0,), (0,), SQUARE) == Cube(IDENTITY, (0,))

    def test_base_outside_subgroup(self):
        assert canonical_cube((1,), (0,), SQUARE) == Cube((1,), (0,))

    def test_grid_square_at_identity(self):
        word_ca = multiply((2,), (0,), GRID)
        assert canonical_cube(word_ca, (0, 2), GRID) == Cube(IDENTITY, (0, 2))

    def test_idempotent(self):
        ball = build_ball(PENTAGON, 3)
        for cube in ball.cubes:
            assert canonical_cube(cube.base, cube.axis, PENTAGON) == cube

    def test_rejects_non_clique(self):
        with pytest.raises(ValueError, match="not a clique"):
            canonical_cube(IDENTITY, (0, 1), DINFTY)


class TestCubesAtVertex:
    def test_square_identity(self):
        grouped = cubes_at_vertex(build_ball(SQUARE, 2), IDENTITY)
        assert {dim: len(cubes) for dim, cubes in grouped.items()} == {0: 1, 1: 2, 2: 1}

    def test_pentagon_identity_matches_cliques(self):
        grouped = cubes_at_vertex(build_ball(PENTAGON, 2), IDENTITY)
        assert {dim: len(cubes) for dim, cubes in grouped.items()} == {0: 1, 1: 5, 2: 5}
        # k-cubes at the identity are exactly the k-cliques
        for dim, cubes in grouped.items():
            assert all(cube.base == IDENTITY for cube in cubes)

    def test_dinfty_boundary_vertex(self):
        grouped = cubes_at_vertex(build_ball(DINFTY, 3), (0, 1, 0))
        assert {dim: len(cubes) for dim, cubes in grouped.items()} == {0: 1, 1: 1}

    def test_cubes_at_identity_count_cliques_everywhere(self):
        for graph in ALL_PRESETS:
            cliques_by_size: dict[int, int] = {}
            for clique in spherical_poset(graph):
                cliques_by_size[len(clique)] = cliques_by_size.get(len(clique), 0) + 1
            grouped = cubes_at_vertex(build_ball(graph, 4), IDENTITY)
            assert {dim: len(cubes) for dim, cubes in grouped.items()} == cliques_by_size

    def test_absent_vertex(self):
        with pytest.raises(ValueError, match="not in the ball"):
            cubes_at_vertex(build_ball(DINFTY, 2), (0, 1, 0))


# sha256 of the stdout of ``rcoxeter cubes --preset P --radius R WORD``,
# computed before the per-dimension index replaced regrouping per read.
CUBES_CLI_DIGESTS = {
    ("pentagon", 6): {
        "e": "7e5200329e0fe546b5d9a776c3dd414834946739bbce7353491cb85847b1000f",
        "v0": "3fb875b2259e56770fc454c7567a1f002b1a507bf2b5df915eced660badb94fb",
        "v2 v0 v3": "a33bef3c6bedc224b7390b003af5b80b20b5ed0c7e368355010304b066d16704",
        "v0 v2 v4 v1 v3": "e4a609c4afd4cb94a0e756d65235c6b3d7c3a49708412744a2353a4981f38345",
        "v1 v3 v0 v2 v4 v1": "4812ef6d9ae12494af124fcdb7166ff8238f8d68921d7e46b2f8d16bce4cf1e5",
    },
    ("grid", 5): {
        "e": "db019379dcea90d4727f706e075b292c128a885369b3ba5696071b0d63c21f28",
        "c a": "849693d286f852f0a7eb350e7792435ee860f4e73c28e454bc90cba036615b07",
        "a b c d": "8b80961b1c5f00fab208f66dfaf74678bd972199b770db2904522a766e651428",
        "a b a b a": "5b8c9af266d60f0f2613a8faf1fff879d16b22aaf559e53d799fe5e5648c88e4",
    },
    ("dinfty", 30): {
        "e": "1136f42b075085251f0c2acddf8b79257b51cb8c2ce8d6108fed03ff104cc798",
        "b a": "5b78ce25860f7e625179b3ccb1a57fef2f4a856dbfc9666c9c62874df2b2969a",
        "ab" * 14 + "a": "488c3b809160480247205742326bbb0b9facaa3ba95fdbe62d9511fecf95c9fd",
        "ba" * 15: "ce1eadbbdfc19b3885561dd931574130717779ba486e1333c578ff1ff1d274b1",
    },
}


class TestCubesAtVertexContract:
    """The shape ``rcoxeter cubes`` prints from: ascending dimensions, no
    empty group, each group in ``ball.cubes`` order, and a fresh dict per
    read."""

    @pytest.mark.parametrize(
        "graph",
        [*ALL_PRESETS, complete_graph(5)],
        ids=["square", "dinfty", "pentagon", "grid", "K5"],
    )
    def test_every_vertex_at_radius_five(self, graph):
        ball = build_ball(graph, 5)
        position = {cube: i for i, cube in enumerate(ball.cubes)}
        for v in ball.vertices:
            grouped = cubes_at_vertex(ball, v)
            assert list(grouped) == sorted(grouped)
            for dim, cubes in grouped.items():
                assert cubes
                assert all(cube.dimension == dim for cube in cubes)
                places = [position[cube] for cube in cubes]
                assert places == sorted(places)
            expected = dict(grouped)
            grouped.clear()
            grouped[99] = ()
            assert cubes_at_vertex(ball, v) == expected

    @pytest.mark.parametrize(
        "name, radius, word",
        [(*key, word) for key, by_word in CUBES_CLI_DIGESTS.items() for word in by_word],
    )
    def test_cli_output_is_pinned(self, capsys, name, radius, word):
        code = main(["cubes", "--preset", name, "--radius", str(radius), *word.split()])
        out = capsys.readouterr().out
        assert code == 0
        digest = CUBES_CLI_DIGESTS[name, radius][word]
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFaceClosure:
    def test_facets_of_stored_cubes_are_stored(self):
        for graph, radius in ((SQUARE, 2), (DINFTY, 4), (PENTAGON, 4), (GRID, 4)):
            ball = build_ball(graph, radius)
            for cube in ball.cubes:
                for t in cube.axis:
                    rest = tuple(g for g in cube.axis if g != t)
                    near = greedy_canonical_cube(cube.base, rest, graph)
                    far = greedy_canonical_cube(multiply(cube.base, (t,), graph), rest, graph)
                    assert ball.has_cube(near)
                    assert ball.has_cube(far)

    def test_cube_vertices_all_in_ball(self):
        for graph, radius in ((PENTAGON, 4), (GRID, 4)):
            ball = build_ball(graph, radius)
            for cube in ball.cubes:
                corners = cube_vertices(cube, graph)
                for vertex in corners:
                    assert vertex in ball
                assert len(set(corners)) == 2 ** cube.dimension


HAS_CUBE_CASES = (SQUARE, DINFTY, PENTAGON, GRID, complete_graph(5))
HAS_CUBE_IDS = ("square", "dinfty", "pentagon", "grid", "K5")


class TestHasCube:
    """``has_cube`` reads the per-vertex index at the cube's base; it must
    answer as membership in the stored cube list does."""

    @pytest.mark.parametrize("graph", HAS_CUBE_CASES, ids=HAS_CUBE_IDS)
    def test_matches_the_stored_cube_set(self, graph):
        # Every stored cube, and the coset cube v*W_T of every vertex and
        # clique; in an infinite group some of those straddle the boundary
        # and are not stored.
        ball = build_ball(graph, 5)
        stored = set(ball.cubes)
        assert all(ball.has_cube(cube) and ball.has_cube(tuple(cube)) for cube in stored)
        answers = set()
        for v in ball.vertices:
            for clique in spherical_poset(graph):
                cube = canonical_cube(v, clique, graph)
                answers.add(ball.has_cube(cube))
                assert ball.has_cube(cube) == (cube in stored)
        assert answers == ({True} if graph.is_complete else {True, False})

    @pytest.mark.parametrize("graph", HAS_CUBE_CASES, ids=HAS_CUBE_IDS)
    def test_non_canonical_cubes(self, graph):
        # (base*t, axis) with t in the axis is the same coset as a stored
        # cube, but base*t is not its shortest element.
        ball = build_ball(graph, 5)
        stored = set(ball.cubes)
        tried = 0
        for base, axis in ball.cubes:
            for t in axis:
                moved = Cube(multiply(base, (t,), graph), axis)
                assert moved not in stored
                assert not ball.has_cube(moved)
                tried += 1
        assert tried > 0

    @pytest.mark.parametrize("graph", HAS_CUBE_CASES, ids=HAS_CUBE_IDS)
    def test_cubes_based_outside_the_ball(self, graph):
        # The next sphere (empty for the finite square and K5 groups) and
        # words that are no normal form at all.
        ball = build_ball(graph, 5)
        beyond = sphere(build_ball(graph, 6), 6)
        assert not any(w in ball for w in beyond)
        for w in beyond + ((0, 0), (1, 0, 0), (graph.n,)):
            for axis in ((), (0,), tuple(range(graph.n))):
                assert not ball.has_cube(Cube(w, axis))

    def test_axis_above_the_top_dimension(self):
        ball = build_ball(PENTAGON, 5)
        assert len(ball.cell_counts()) == 3
        assert not ball.has_cube(Cube(IDENTITY, (0, 1, 2)))

    def test_removed_cube_is_absent(self):
        full = build_ball(complete_graph(4), 8)
        missing = full.cubes[-20]
        kept = tuple(c for c in full.cubes if c != missing)
        ball = Ball(full.graph, full.radius, full.vertices, kept, full.reliable_radius)
        assert not ball.has_cube(missing)
        assert all(ball.has_cube(c) for c in kept)


class TestIndexWalksEachEdgeOnce:
    @pytest.mark.parametrize("graph", HAS_CUBE_CASES, ids=HAS_CUBE_IDS)
    def test_one_multiply_per_edge(self, monkeypatch, graph):
        # bench/tracing.py wraps this module-level name and divides the
        # traced davis.useful_ratio by the count it sees under build_ball,
        # which is therefore the number of edges of the ball.
        import rcoxeter.davis as davis_module

        calls = []
        real = davis_module.multiply

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(davis_module, "multiply", counted)
        ball = build_ball(graph, 5)
        edges = ball.cell_counts()[1]
        assert edges > 0
        assert len(calls) == edges


class TestFlagCondition:
    def test_presets_pass(self):
        for graph, radius in ((SQUARE, 2), (DINFTY, 4), (PENTAGON, 3), (GRID, 3)):
            report = links_flag_check(build_ball(graph, radius))
            assert report.ok
            assert report.violations == ()
            assert bool(report)

    def test_complete_graph_passes(self):
        assert links_flag_check(build_ball(complete_graph(4), 8)).ok

    @pytest.mark.parametrize("which", range(8))
    def test_missing_three_cube_is_reported_at_its_base(self, which):
        full = build_ball(complete_graph(4), 8)
        three_cubes = [cube for cube in full.cubes if cube.dimension == 3]
        assert len(three_cubes) == 8
        missing = three_cubes[which]
        cubes = tuple(cube for cube in full.cubes if cube != missing)
        ball = Ball(full.graph, full.radius, full.vertices, cubes, full.reliable_radius)
        report = links_flag_check(ball)
        assert not report.ok
        assert report.violations == (FlagViolation(missing.base, missing.axis),)

    def test_checks_every_reliable_vertex(self):
        ball = build_ball(PENTAGON, 3)
        expected = sum(1 for w in ball.vertices if len(w) <= ball.reliable_radius)
        assert links_flag_check(ball).vertices_checked == expected


class TestExport:
    def test_json_square(self):
        ball = build_ball(SQUARE, 2)
        payload = json.loads(export_complex(ball, "json"))
        assert payload["radius"] == 2
        assert payload["reliable_radius"] == 0
        assert payload["vertices"] == ["", "a", "b", "a b"]
        assert len(payload["cubes"]) == 5
        assert {"base": "", "axis": ["a", "b"]} in payload["cubes"]

    def test_dot_dinfty_is_a_path(self):
        ball = build_ball(DINFTY, 3)
        dot = export_complex(ball, "dot")
        assert dot.startswith("graph")
        edge_lines = [line for line in dot.splitlines() if "--" in line]
        assert len(edge_lines) == 6
        degree: dict[str, int] = {}
        for line in edge_lines:
            a, b = line.strip().rstrip(";").split(" -- ")
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert sorted(degree.values()) == [1, 1, 2, 2, 2, 2, 2]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="obj"):
            export_complex(build_ball(SQUARE, 2), "obj")

    @pytest.mark.parametrize(
        "graph, radius",
        [(SQUARE, 3), (DINFTY, 7), (PENTAGON, 5), (GRID, 5), (complete_graph(5), 5)],
        ids=["square", "dinfty", "pentagon", "grid", "K5"],
    )
    def test_matches_reference(self, graph, radius):
        for r in range(radius + 1):
            ball = build_ball(graph, r)
            for format in ("json", "dot"):
                assert export_complex(ball, format) == reference_export(ball, format)

    def test_dot_escapes_quote_and_backslash(self):
        graph = DefiningGraph.from_edges(('a"b', "c\\d", "e"), [('a"b', "e")])
        ball = build_ball(graph, 3)
        lines = export_complex(ball, "dot").splitlines()
        assert lines[1:4] == [
            '  n0 [label="1"];',
            '  n1 [label="a\\"b"];',
            '  n2 [label="c\\\\d"];',
        ]
        # Every label is one DOT quoted string that unescapes to the word.
        for i, w in enumerate(ball.vertices):
            match = re.fullmatch(rf'  n{i} \[label="((?:[^"\\]|\\.)*)"\];', lines[i + 1])
            assert match
            text = re.sub(r"\\(.)", r"\1", match.group(1))
            assert text == (word_to_text(w, graph) or "1")


# sha256 of the stdout of ``rcoxeter export --radius R --format F`` on a
# preset or on K5 (generators x0..x4), computed before each vertex text was
# built from its parent's.
EXPORT_CLI_DIGESTS = {
    ("pentagon", 6, "json"): "dcf8fd1e45a38465f50af3196350b4fca6662c8a02f70f8f7c41d111e18ab42c",
    ("pentagon", 6, "dot"): "1bd9654063596235f209770f57a6c3253315a5c155998760111fd94261f41370",
    ("grid", 5, "json"): "181e0bad82fc4aa85700ed1db1a8c9568ed10df08a63b390d5234224604127de",
    ("grid", 5, "dot"): "504b22d58a137879958057e43a1e8e1779e09a2101ee1873307b3012c0b8e362",
    ("dinfty", 30, "json"): "5b8d1c9b6c0293518a70a00b8ad18d3bedcf1353470969d866a952bb8433927a",
    ("dinfty", 30, "dot"): "18ad49df1a095956e53c7af4adfe682db589786102aa12fc2d3b012ffde8e906",
    ("K5", 5, "json"): "65e6c76013987add08d52d9f5edd1eeeec84a527b774cc84846b52e2f1e7bc5e",
    ("K5", 5, "dot"): "9d7018b1da90aa550fceff637fae101366f8df43d769ba2ea17971329e514e6d",
}


@pytest.mark.parametrize("name, radius, format", list(EXPORT_CLI_DIGESTS))
def test_export_cli_output_is_pinned(tmp_path, capsys, name, radius, format):
    if name == "K5":
        path = tmp_path / "k5.json"
        graph = complete_graph(5)
        path.write_text(json.dumps({
            "vertices": list(graph.labels),
            "edges": [[graph.labels[i], graph.labels[j]] for i, j in graph.edges],
        }))
        source = ["--graph", str(path)]
    else:
        source = ["--preset", name]
    code = main(["export", *source, "--radius", str(radius), "--format", format])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_CLI_DIGESTS[name, radius, format]

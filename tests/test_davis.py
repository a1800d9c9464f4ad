import json
import random
import tracemalloc

import pytest

from rcoxeter import (
    IDENTITY,
    Cube,
    DefiningGraph,
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
)
from oracles import (
    assert_same_ball,
    bfs_ball,
    complete_graph,
    matrix_ball_sphere_sizes,
    random_graph,
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
        keys = [c.sort_key() for c in ball.cubes]
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


class TestFaceClosure:
    def test_facets_of_stored_cubes_are_stored(self):
        for graph, radius in ((SQUARE, 2), (DINFTY, 4), (PENTAGON, 4), (GRID, 4)):
            ball = build_ball(graph, radius)
            for cube in ball.cubes:
                for t in cube.axis:
                    rest = tuple(g for g in cube.axis if g != t)
                    near = canonical_cube(cube.base, rest, graph)
                    far = canonical_cube(multiply(cube.base, (t,), graph), rest, graph)
                    assert ball.has_cube(near)
                    assert ball.has_cube(far)

    def test_cube_vertices_all_in_ball(self):
        for graph, radius in ((PENTAGON, 4), (GRID, 4)):
            ball = build_ball(graph, radius)
            for cube in ball.cubes:
                for vertex in cube.vertices(graph):
                    assert vertex in ball
                assert len(set(cube.vertices(graph))) == 2 ** cube.dimension


class TestFlagCondition:
    def test_presets_pass(self):
        for graph, radius in ((SQUARE, 2), (DINFTY, 4), (PENTAGON, 3), (GRID, 3)):
            report = links_flag_check(build_ball(graph, radius))
            assert report.ok
            assert report.violations == ()
            assert bool(report)

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

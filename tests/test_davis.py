import hashlib
import itertools
import json
import random
import re
import tracemalloc
from math import comb, inf

import pytest

from rcoxeter import (
    IDENTITY,
    Ball,
    Cube,
    DefiningGraph,
    FlagViolation,
    ResourceCapError,
    all_cliques,
    ball_census,
    build_ball,
    canonical_cube,
    certify,
    cubes_at_vertex,
    export_complex,
    links_flag_check,
    maximum_spherical,
    multiply,
    preset,
    sphere,
    spherical_poset,
    tits_matrix,
    word_to_text,
)
from rcoxeter.cli import main
from rcoxeter.growth import _census
from oracles import (
    assert_same_ball,
    bfs_ball,
    complete_graph,
    cube_sort_key,
    cubes_through,
    cube_vertices,
    greedy_canonical_cube,
    matrix_ball_sphere_sizes,
    random_graph,
    reference_export,
    reference_flag_check,
)
from test_probe import CLI_DIGESTS

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

    def test_radius_zero_is_a_complete_radius(self):
        assert str(ResourceCapError(3, 0)) == (
            "vertex cap 3 exceeded; last complete radius was 0"
        )
        assert str(ResourceCapError(3, -1)) == (
            "vertex cap 3 exceeded; no radius fits, since the identity alone is 1 vertex"
        )


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

    def test_clique_sizes_are_counted_up_to_the_radius_and_the_cap(self, monkeypatch):
        # A clique larger than the radius fits no cube, and once the cliques
        # outnumber the cap the walk raises, so no further size is counted.
        import rcoxeter.growth as growth_module

        real = growth_module._clique_counts
        pulled = []

        def counted(n, masks):
            for size in real(n, masks):
                pulled.append(size)
                yield size

        monkeypatch.setattr(growth_module, "_clique_counts", counted)
        for radius in range(4):
            pulled.clear()
            ball_census(PENTAGON, radius)
            assert pulled == [1, 5, 5][: radius + 1]
        pulled.clear()
        with pytest.raises(ResourceCapError):
            ball_census(complete_graph(24), 30)
        # 536,155 cliques have at most 7 generators, 1,271,626 at most 8.
        assert pulled == [comb(24, d) for d in range(9)]

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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_graphs_past_saturation(self, n):
        # K_n is (Z/2)^n: a d-cube is a d-subset T with a base that misses
        # T, and the base is a subset of the other n - d generators with at
        # most r - d of them, so that the whole cube fits in the ball.
        graph = complete_graph(n)
        for radius in range(n):
            assert ball_census(graph, radius).cells_by_dimension == tuple(
                comb(n, d) * sum(comb(n - d, i) for i in range(radius - d + 1))
                for d in range(radius + 1)
            )
        whole = tuple(comb(n, d) * 2 ** (n - d) for d in range(n + 1))
        for radius in (n, n + 1, 10**6, 10**30):
            census = ball_census(graph, radius)
            assert (census.vertex_count, census.cells_by_dimension) == (2**n, whole)

    def test_receiver_gets_the_qs_of_a_clique_of_any_size(self):
        # W(t) = (1+t)^c * Q(t) for a clique of c generators, so the q's
        # handed over for c rebuild every sphere; c left out is c = k.
        for graph in ALL_PRESETS + (complete_graph(3), complete_graph(5)):
            k = len(maximum_spherical(graph))
            radius = k + 8
            sizes = self.sphere_sizes(graph, radius)
            default = []
            _census(graph, radius, inf, k, default.append)
            for c in range(k + 1):
                qs = []
                _census(graph, radius, inf, k, qs.append, c)
                rebuilt = [
                    sum(comb(c, m) * qs[r - m] for m in range(min(r, c) + 1))
                    for r in range(len(qs))
                ]
                assert rebuilt == sizes[: len(qs)]
                assert (qs == default) == (c == k)
        # pentagon: 1/P(t) = 1/(1 - 3t + t^2)
        qs = []
        _census(PENTAGON, 7, inf, 2, qs.append)
        assert qs == [1, 3, 8, 21, 55, 144]

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

    @pytest.mark.parametrize(
        "axis, message",
        [
            ((0, 1), "axis (0, 1) is not a clique of the defining graph"),
            ([1, 0, 1], "axis (0, 1) is not a clique of the defining graph"),
            ((0, 1, 2), "generator index 2 out of range"),
            ((2, 0, 1), "generator index 2 out of range"),
            ((-1,), "generator index -1 out of range"),
            ((1, -2, 3), "generator index -2 out of range"),
        ],
    )
    def test_error_messages(self, axis, message):
        # An axis out of range is reported before one that is not a clique,
        # each with the normalized axis or the least bad letter.
        with pytest.raises(ValueError) as raised:
            canonical_cube(IDENTITY, axis, DINFTY)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "graph", ALL_PRESETS + (complete_graph(5),),
        ids=["square", "dinfty", "pentagon", "grid", "K5"],
    )
    def test_a_listed_clique_is_never_normalized(self, monkeypatch, graph):
        # Every clique the library lists is strictly increasing, so it is
        # checked in one pass as it is read, from a tuple or an iterator.
        import rcoxeter.davis as davis_module

        ball = build_ball(graph, 3)
        expected = [
            (v, axis, greedy_canonical_cube(v, axis, graph))
            for v in ball.vertices for axis in all_cliques(graph)
        ]

        def refuse(*args):
            raise AssertionError("a canonical axis was normalized")

        monkeypatch.setattr(davis_module, "_mask_of", refuse)
        for v, axis, cube in expected:
            assert canonical_cube(v, axis, graph) == cube
            result = canonical_cube(v, iter(axis), graph)
            assert result == cube and type(result) is Cube


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

    def test_the_ball_of_radius_length_plus_k_holds_every_cube(self):
        # A cube (b, T) through v has |b| + |T| <= |v| + k, so the cubes
        # through v are those of the ball of radius min(R, |v| + k), the
        # one ``rcoxeter cubes`` builds.
        rng = random.Random(33)
        graphs = [
            *ALL_PRESETS,
            *(complete_graph(n) for n in range(1, 6)),
            *(random_graph(rng, 6) for _ in range(40)),
        ]
        for graph in graphs:
            k = len(maximum_spherical(graph))
            balls = [build_ball(graph, r) for r in range(6)]
            for radius, ball in enumerate(balls):
                for v in ball.vertices:
                    near = balls[min(radius, len(v) + k)]
                    assert cubes_at_vertex(near, v) == cubes_at_vertex(ball, v)


class TestCubesAtVertexContract:
    """The shape ``rcoxeter cubes`` prints from: ascending dimensions, no
    empty group, each group in ``ball.cubes`` order, and a fresh dict per
    read over the groups frozen at the first one."""

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
            # A second read shares the frozen groups in a dict of its own.
            again = cubes_at_vertex(ball, v)
            assert again == grouped and again is not grouped
            assert all(again[dim] is cubes for dim, cubes in grouped.items())
            expected = dict(grouped)
            del again[max(again)]
            grouped.clear()
            grouped[99] = ()
            assert cubes_at_vertex(ball, v) == expected


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

    @pytest.mark.parametrize(
        "graph, radius", [(complete_graph(8), 8), (PENTAGON, 6)], ids=["K8-r8", "pentagon-r6"]
    )
    def test_long_groups_and_moved_bases(self, graph, radius):
        # Balls with long groups (K8) and with many bases (pentagon).  An
        # axis given as a list equals no stored axis: the answer is False.
        ball = build_ball(graph, radius)
        stored = set(ball.cubes)
        answers = set()
        for base, axis in ball.cubes:
            assert ball.has_cube(Cube(base, axis))
            assert ball.has_cube((base, axis))
            assert not ball.has_cube(Cube(base, list(axis)))
            # Moved by an axis letter the base is no longer canonical; moved
            # by any other generator it may be the base of another cube.
            for g in range(graph.n):
                moved = multiply(base, (g,), graph)
                answer = ball.has_cube(Cube(moved, axis))
                assert answer == ((moved, axis) in stored)
                assert answer == ball.has_cube((moved, axis))
                answers.add((g in axis, answer))
        assert answers >= {(True, False), (False, True)}

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


def _balls_missing_one_cube(graph, radius):
    """The ball, and hand-built copies each missing one cube of a dimension
    from 1 up: the first and the last stored cube of that dimension."""
    full = build_ball(graph, radius)
    balls = [full]
    for d in range(1, len(full.cell_counts())):
        of_d = [cube for cube in full.cubes if cube.dimension == d]
        for missing in {of_d[0], of_d[-1]}:
            cubes = tuple(cube for cube in full.cubes if cube != missing)
            balls.append(Ball(graph, radius, full.vertices, cubes, full.reliable_radius))
    return balls


REFILINGS = ("reversed", "shuffled", "distinct-bases")


def _refiled(cubes, how):
    """A ball's cubes in reverse or shuffled order, or in order with every
    base an equal but distinct tuple; CPython keeps one empty tuple, so the
    identity's cubes still share theirs.  ``Ball`` files either kind the
    same way, only without one base lookup per run."""
    if how == "reversed":
        return cubes[::-1]
    if how == "shuffled":
        shuffled = list(cubes)
        random.Random(23).shuffle(shuffled)
        return tuple(shuffled)
    copied = tuple(Cube(tuple(list(base)), axis) for base, axis in cubes)
    assert all(c.base is not d.base for c, d in zip(copied, cubes) if c.base)
    return copied


class TestReadOrder:
    """Whichever reader freezes a vertex first, the flag check, the cube
    lists and the cube lookups give the oracles' answers."""

    @staticmethod
    def copy(ball):
        return Ball(ball.graph, ball.radius, ball.vertices, ball.cubes, ball.reliable_radius)

    @staticmethod
    def read(ball):
        assert all(ball.has_cube(cube) for cube in ball.cubes)
        return [cubes_at_vertex(ball, v) for v in ball.vertices]

    @pytest.mark.parametrize(
        "graph, radius, outcomes",
        [(complete_graph(4), 8, {True, False}), (PENTAGON, 4, {True})],
        ids=["K4-r8", "pentagon-r4"],
    )
    def test_flag_check_before_and_after_the_reads(self, graph, radius, outcomes):
        # Without a 3-cube K4 fails the check; pentagon has no triangle.
        seen = set()
        for ball in _balls_missing_one_cube(graph, radius):
            expected = reference_flag_check(self.copy(ball))
            seen.add(expected.ok)
            first = self.copy(ball)
            flag_first = links_flag_check(first)
            grouped_after = self.read(first)
            last = self.copy(ball)
            grouped_before = self.read(last)
            flag_last = links_flag_check(last)
            assert flag_first == flag_last == expected
            assert grouped_after == grouped_before
            for v, grouped in zip(ball.vertices, grouped_after):
                assert grouped == cubes_through(ball, v)
        assert seen == outcomes

    @pytest.mark.parametrize("how", REFILINGS)
    @pytest.mark.parametrize(
        "graph, radius",
        [(PENTAGON, 4), (GRID, 4), (DINFTY, 6), (complete_graph(4), 8)],
        ids=["pentagon-r4", "grid-r4", "dinfty-r6", "K4-r8"],
    )
    def test_cubes_in_any_order_or_with_copied_bases(self, graph, radius, how):
        built = build_ball(graph, radius)
        cubes = _refiled(built.cubes, how)
        ball = Ball(graph, radius, built.vertices, cubes, built.reliable_radius)
        assert ball._up == built._up
        # Each group keeps the order of the cubes as given.
        position = {cube: i for i, cube in enumerate(cubes)}
        for v in ball.vertices:
            expected = {
                d: tuple(sorted(group, key=position.__getitem__))
                for d, group in cubes_through(ball, v).items()
            }
            assert cubes_at_vertex(ball, v) == expected
        assert all(ball.has_cube(cube) for cube in built.cubes)
        assert links_flag_check(ball) == links_flag_check(built)


class TestIndexWalksEachEdgeOnce:
    # bench/tracing.py wraps this module-level name and divides the traced
    # davis.useful_ratio by the count it sees under build_ball, which is
    # therefore the number of edges of the ball.
    @staticmethod
    def count_multiply(monkeypatch):
        import rcoxeter.davis as davis_module

        calls = []
        real = davis_module.multiply

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(davis_module, "multiply", counted)
        return calls

    @pytest.mark.parametrize("graph", HAS_CUBE_CASES, ids=HAS_CUBE_IDS)
    def test_one_multiply_per_edge(self, monkeypatch, graph):
        calls = self.count_multiply(monkeypatch)
        ball = build_ball(graph, 5)
        edges = ball.cell_counts()[1]
        assert edges > 0
        assert len(calls) == edges

    def test_one_multiply_per_edge_of_k8(self, monkeypatch):
        calls = self.count_multiply(monkeypatch)
        ball = build_ball(complete_graph(8), 8)
        assert ball.cell_counts()[1] == 8 * 2**7 == len(calls)

    @pytest.mark.parametrize("how", REFILINGS)
    @pytest.mark.parametrize("graph", HAS_CUBE_CASES, ids=HAS_CUBE_IDS)
    def test_one_multiply_per_edge_in_any_order(self, monkeypatch, graph, how):
        # A square met before its edges walks them, and each edge met later
        # reads its ascent-table entry instead of multiplying again.
        built = build_ball(graph, 5)
        cubes = _refiled(built.cubes, how)
        calls = self.count_multiply(monkeypatch)
        ball = Ball(graph, 5, built.vertices, cubes, built.reliable_radius)
        assert len(calls) == ball.cell_counts()[1] > 0


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

    def test_square_missing_an_edge_is_ignored(self):
        # Without the edge ((), (0,)) the squares on axes (0, 1) and (0, 2)
        # at the identity and at (0,) join no two edges there, so the
        # 3-cube on them is owed nowhere.
        full = build_ball(complete_graph(3), 6)
        missing = Cube(IDENTITY, (0,))
        assert missing in full.cubes
        cubes = tuple(cube for cube in full.cubes if cube != missing)
        ball = Ball(full.graph, full.radius, full.vertices, cubes, full.reliable_radius)
        assert links_flag_check(ball) == (True, (), 8)
        # Without the 3-cube too, the first vertex owed it is (1,), the
        # third in shortlex order, where all three edges are stored.
        cubes = tuple(cube for cube in cubes if cube != Cube(IDENTITY, (0, 1, 2)))
        ball = Ball(full.graph, full.radius, full.vertices, cubes, full.reliable_radius)
        report = links_flag_check(ball)
        assert report == (False, (FlagViolation((1,), (0, 1, 2)),), 3)
        assert report == reference_flag_check(ball)

    def test_vertex_without_squares_is_passed_over(self):
        # Without the squares through (0,) that vertex has none, so no
        # triangle; the identity before it keeps three, and (1,) after it
        # keeps the triangle on (0, 2, 3) but not its 3-cube.
        full = build_ball(complete_graph(4), 8)
        missing = Cube((1,), (0, 2, 3))
        dropped = {missing, *cubes_at_vertex(full, (0,))[2]}
        assert missing in full.cubes
        cubes = tuple(cube for cube in full.cubes if cube not in dropped)
        ball = Ball(full.graph, full.radius, full.vertices, cubes, full.reliable_radius)
        assert 2 not in cubes_at_vertex(ball, (0,))
        assert 2 in cubes_at_vertex(ball, IDENTITY)
        report = links_flag_check(ball)
        assert report == (False, (FlagViolation((1,), (0, 2, 3)),), 3)
        assert report == reference_flag_check(ball)

    @pytest.mark.parametrize(
        "n, radius, checked",
        [(4, 2, 0), (4, 3, 0), (4, 4, 1), (8, 8, 1), (4, 10, 16)],
        ids=["K4-r2", "K4-r3", "K4-r4", "K8-r8", "K4-r10"],
    )
    def test_reliable_radius_edge_cases(self, n, radius, checked):
        # Reliable radius -2, -1, 0, 0, and 6: past the last sphere (4) of
        # the whole group, so every vertex is checked.
        ball = build_ball(complete_graph(n), radius)
        assert ball.reliable_radius == radius - n
        report = links_flag_check(ball)
        assert report == reference_flag_check(ball)
        assert report == (True, (), checked)

    def test_line_stores_no_squares(self):
        ball = build_ball(DINFTY, 100)
        assert len(ball.cell_counts()) == 2
        report = links_flag_check(ball)
        assert report == reference_flag_check(ball)
        assert report == (True, (), 199)


def _k4_with_pendant() -> DefiningGraph:
    """K4 on x0..x3 with a fifth generator x4 commuting with x3 only."""
    labels = tuple(f"x{i}" for i in range(5))
    edges = [(a, b) for i, a in enumerate(labels[:4]) for b in labels[i + 1 : 4]]
    return DefiningGraph.from_edges(labels, edges + [("x3", "x4")])


class TestFlagCheckReadsTheBall:
    """``links_flag_check`` tests each clique against the axes of the cubes
    filed at the vertex: it neither canonicalizes a cube nor looks one up."""

    @staticmethod
    def refuse_lookups(monkeypatch):
        import rcoxeter.davis as davis_module

        def refuse(*args):
            raise AssertionError("the flag check looked a cube up")

        monkeypatch.setattr(davis_module, "canonical_cube", refuse)
        monkeypatch.setattr(Ball, "has_cube", refuse)

    @pytest.mark.parametrize(
        "graph, radius", [(complete_graph(4), 8), (_k4_with_pendant(), 9)],
        ids=["K4-r8", "K4-pendant-r9"],
    )
    def test_passing_balls(self, monkeypatch, graph, radius):
        ball = build_ball(graph, radius)
        expected = reference_flag_check(ball)
        assert expected.ok
        reliable = [v for v in ball.vertices if len(v) <= ball.reliable_radius]
        # A 3-cube, and so a triangle of squares, at every reliable vertex.
        assert all(3 in cubes_at_vertex(ball, v) for v in reliable)
        self.refuse_lookups(monkeypatch)
        assert links_flag_check(ball) == expected

    @pytest.mark.parametrize("which", range(8))
    def test_missing_three_cube(self, monkeypatch, which):
        full = build_ball(complete_graph(4), 8)
        missing = [cube for cube in full.cubes if cube.dimension == 3][which]
        cubes = tuple(cube for cube in full.cubes if cube != missing)
        ball = Ball(full.graph, full.radius, full.vertices, cubes, full.reliable_radius)
        expected = reference_flag_check(ball)
        self.refuse_lookups(monkeypatch)
        report = links_flag_check(ball)
        assert report == expected
        assert report.violations == (FlagViolation(missing.base, missing.axis),)


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

    @pytest.mark.parametrize("how", REFILINGS)
    @pytest.mark.parametrize("graph", [PENTAGON, GRID], ids=["pentagon", "grid"])
    def test_refiled_cubes_match_reference(self, graph, how):
        built = build_ball(graph, 4)
        cubes = _refiled(built.cubes, how)
        ball = Ball(graph, 4, built.vertices, cubes, built.reliable_radius)
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


@pytest.mark.parametrize(
    "name, radius, format",
    [(name, radius, format) for name, radius in (("pentagon", 6), ("grid", 5))
     for format in ("json", "dot")],
)
def test_export_cli_output_is_pinned(capsys, name, radius, format):
    # The command prints what export_complex returns for the same ball,
    # byte for byte, and that is the output CLI_DIGESTS pins.
    command = "export" if format == "json" else "export --format dot"
    code = main([*command.split(), "--preset", name, "--radius", str(radius)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == export_complex(build_ball(preset(name), radius), format)
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[command, name, radius][1]


@pytest.mark.parametrize("name, radius", [("pentagon", 6), ("K5", 5)])
def test_export_reads_the_ball_and_makes_no_multiply(monkeypatch, name, radius):
    # Both formats name vertices by the ball's numbering and read the DOT
    # edges from its ascent table, so no product is formed after the build.
    import rcoxeter.davis as davis_module

    ball = build_ball(complete_graph(5) if name == "K5" else preset(name), radius)

    def refuse(*args):
        raise AssertionError("export_complex called multiply")

    monkeypatch.setattr(davis_module, "multiply", refuse)
    for command, format in (("export", "json"), ("export --format dot", "dot")):
        out = export_complex(ball, format)
        assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[command, name, radius][1]

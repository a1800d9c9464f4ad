import random
import tracemalloc

import pytest

from rcoxeter import (
    IDENTITY,
    Cube,
    antipodal_check,
    ball_census,
    build_ball,
    build_involution,
    canonical_cube,
    certify,
    conjugate,
    displacement_profile,
    fixed_loci,
    has_order_two,
    invariant_cubes,
    multiply,
    preset,
    support,
    walk_spheres,
)
from oracles import (
    complete_graph,
    conjugates,
    filtered_invariant_cubes,
    random_graph,
    walked_conjugates,
    walked_profile,
)

SQUARE = preset("square")
DINFTY = preset("dinfty")
PENTAGON = preset("pentagon")
GRID = preset("grid")
ALL_PRESETS = (SQUARE, DINFTY, PENTAGON, GRID)


class TestBuildInvolution:
    def test_square(self):
        inv = build_involution(SQUARE)
        assert inv.element == (0, 1)
        assert inv.clique == (0, 1)
        assert inv.n == 2

    def test_dinfty_degenerate_single_generator(self):
        inv = build_involution(DINFTY)
        assert inv.element == (0,)
        assert inv.n == 1

    def test_pentagon(self):
        assert build_involution(PENTAGON).element == (0, 1)

    def test_invariants_on_presets_and_random_graphs(self):
        rng = random.Random(31)
        graphs = list(ALL_PRESETS) + [random_graph(rng) for _ in range(60)]
        for graph in graphs:
            inv = build_involution(graph)
            assert has_order_two(inv.element, graph)
            assert len(inv.element) == inv.n == len(inv.clique)
            assert support(inv.element) == set(inv.clique)
            assert multiply(inv.element, inv.element, graph) == IDENTITY


class TestInvariantCubes:
    def test_square_single_invariant_square(self):
        inv = build_involution(SQUARE)
        assert invariant_cubes(inv, build_ball(SQUARE, 2)) == (
            Cube(IDENTITY, (0, 1)),
        )

    def test_dinfty_single_invariant_edge(self):
        inv = build_involution(DINFTY)
        assert invariant_cubes(inv, build_ball(DINFTY, 4)) == (Cube(IDENTITY, (0,)),)

    def test_grid_single_invariant_square(self):
        inv = build_involution(GRID)
        assert invariant_cubes(inv, build_ball(GRID, 4)) == (Cube(IDENTITY, (0, 2)),)

    def test_translations_are_involutions_in_the_axis_subgroup(self):
        from rcoxeter import conjugate

        for graph, radius in ((PENTAGON, 4), (GRID, 4)):
            inv = build_involution(graph)
            ball = build_ball(graph, radius)
            for cube in invariant_cubes(inv, ball):
                t = conjugate(cube.base, inv.element, graph)
                assert support(t) <= set(cube.axis)
                assert multiply(t, t, graph) == IDENTITY


class TestConjugates:
    def test_matches_conjugate_within_reliable_radius(self):
        rng = random.Random(29)
        cases = [(g, 5) for g in ALL_PRESETS] + [
            (random_graph(rng), 4) for _ in range(25)
        ]
        for graph, radius in cases:
            inv = build_involution(graph)
            ball = build_ball(graph, radius)
            expected = {
                v: conjugate(v, inv.element, graph)
                for v in ball.vertices
                if len(v) <= ball.reliable_radius
            }
            assert conjugates(inv, ball) == expected

    def test_certify_builds_no_ball_and_no_conjugate_map(self, monkeypatch):
        import rcoxeter.davis as davis_module
        import rcoxeter.involution as involution_module

        balls = []
        real_init = davis_module.Ball.__init__

        def counted_init(self, *args, **kwargs):
            balls.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(davis_module.Ball, "__init__", counted_init)
        for graph in ALL_PRESETS:
            assert certify(graph, 6).verdict
        assert balls == []
        # The conjugate map is a test oracle now; the library has no
        # routine that builds one.
        assert not hasattr(involution_module, "conjugates")

    def test_negative_radius_is_empty(self):
        ball = build_ball(GRID, 1)
        assert ball.reliable_radius < 0
        assert conjugates(build_involution(GRID), ball) == {}


class TestOneWalk:
    """``certify`` walks the spheres once and shares the walk between the
    fixed loci and the profile, holding a sphere and the next at a time."""

    @pytest.mark.parametrize(
        "graph, radius",
        ((PENTAGON, 8), (DINFTY, 100), (complete_graph(6), 6)),
        ids=("pentagon-r8", "dinfty-r100", "K6-r6"),
    )
    def test_one_walk_per_certify(self, monkeypatch, graph, radius):
        import rcoxeter.involution as involution_module

        # Every walk, through whichever name, starts the automaton of
        # ``davis._spheres`` as ``involution`` imported it.
        walks = []
        real = involution_module._spheres

        def counted(graph, radius, *args):
            walks.append(radius)
            return real(graph, radius, *args)

        monkeypatch.setattr(involution_module, "_spheres", counted)
        inv = build_involution(graph)
        assert certify(graph, radius).verdict
        assert walks == [radius - inv.n]

    @pytest.mark.parametrize(
        "graph, radius, bound",
        ((PENTAGON, 11, 10 * 2**20), (DINFTY, 400, 2**20)),
        ids=("pentagon-r11", "dinfty-r400"),
    )
    def test_certify_streams(self, graph, radius, bound):
        # The walk holds one sphere and builds the next.  On the pentagon
        # group the last two spheres are most of the ball, so the bound
        # there only rules out a Ball; on the line a sphere is two vertices,
        # while keeping every state up to radius 399 would hold about 4 MiB
        # of conjugates.
        tracemalloc.start()
        try:
            assert certify(graph, radius).verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_walk_is_tied_to_its_involution(self):
        walk = walk_spheres(build_involution(PENTAGON), ball_census(PENTAGON, 5))
        assert walk_spheres(build_involution(PENTAGON), walk) is walk
        with pytest.raises(ValueError, match="another involution"):
            fixed_loci(build_involution(GRID), walk)


class TestStreamingAgainstBallWalk:
    """The sphere-by-sphere walk against references that walk an
    enumerated ball, given the ball itself, its census and a finished walk."""

    @staticmethod
    def assert_same(graph, radius):
        inv = build_involution(graph)
        ball = build_ball(graph, radius)
        census = ball_census(graph, radius)
        cubes = filtered_invariant_cubes(inv, ball)
        profile = walked_profile(inv, ball)
        assert conjugates(inv, ball) == walked_conjugates(inv, ball)
        assert conjugates(inv, census) == walked_conjugates(inv, ball)
        reports = []
        for source in (ball, census, walk_spheres(inv, census)):
            assert invariant_cubes(inv, source) == cubes
            report = fixed_loci(inv, source)
            assert tuple(locus.cube for locus in report.loci) == cubes
            assert report.radius_examined == ball.reliable_radius
            assert displacement_profile(inv, source) == profile
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("graph", ALL_PRESETS, ids=lambda g: " ".join(g.labels))
    def test_presets(self, graph):
        for radius in range(9):
            self.assert_same(graph, radius)

    @pytest.mark.parametrize("n", (3, 5, 8))
    def test_complete_graphs(self, n):
        for radius in range(10):
            self.assert_same(complete_graph(n), radius)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_graphs(self, seed):
        graph = random_graph(random.Random(seed))
        for radius in (2, 4, 6):
            self.assert_same(graph, radius)


class TestFixedLoci:
    def test_square_unique_point(self):
        report = fixed_loci(build_involution(SQUARE), build_ball(SQUARE, 2))
        assert report.unique_point
        assert len(report.loci) == 1
        locus = report.loci[0]
        assert locus.cube == Cube(IDENTITY, (0, 1))
        assert locus.dimension == 0
        assert locus.translation == (0, 1)
        assert locus.flipped == (0, 1)
        assert locus.center == ("midpoint", "midpoint")
        assert report.radius_examined == 0

    def test_dinfty_midpoint_of_first_edge(self):
        report = fixed_loci(build_involution(DINFTY), build_ball(DINFTY, 4))
        assert report.unique_point
        (locus,) = report.loci
        assert locus.cube == Cube(IDENTITY, (0,))
        assert locus.dimension == 0
        assert locus.center == ("midpoint",)

    def test_pentagon_radius_four(self):
        report = fixed_loci(build_involution(PENTAGON), build_ball(PENTAGON, 4))
        assert report.unique_point
        (locus,) = report.loci
        assert locus.cube == Cube(IDENTITY, (0, 1))
        assert locus.dimension == 0

    def test_unique_point_across_radii(self):
        for graph in ALL_PRESETS:
            inv = build_involution(graph)
            for radius in range(2, 7):
                report = fixed_loci(inv, build_ball(graph, radius))
                assert report.unique_point, (graph.labels, radius)
                assert all(l.dimension == 0 for l in report.loci)

    def test_locus_sits_at_the_home_cube_with_gamma_translation(self):
        for graph in ALL_PRESETS:
            inv = build_involution(graph)
            report = fixed_loci(inv, build_ball(graph, 5))
            (locus,) = report.loci
            assert locus.cube == canonical_cube(IDENTITY, inv.clique, graph)
            assert locus.translation == inv.element

    def test_as_dict_schema(self):
        report = fixed_loci(build_involution(SQUARE), build_ball(SQUARE, 4))
        payload = report.as_dict()
        assert payload == {
            "gamma": "a b",
            "clique": ["a", "b"],
            "loci": [{"base": "", "axis": ["a", "b"], "dimension": 0}],
            "unique_point": True,
            "radius_examined": 2,
        }


class TestAntipodal:
    def test_square_coordinates_complement(self):
        # e -> ab is (0,0) -> (1,1); a -> b is (1,0) -> (0,1)
        inv = build_involution(SQUARE)
        assert multiply(inv.element, IDENTITY, SQUARE) == (0, 1)
        assert multiply(inv.element, (0,), SQUARE) == (1,)
        assert antipodal_check(inv, SQUARE)

    def test_dinfty_one_dimensional_flip(self):
        assert antipodal_check(build_involution(DINFTY), DINFTY)

    def test_grid_all_four_vertices(self):
        inv = build_involution(GRID)
        for bits, expected in (
            (IDENTITY, (0, 2)),
            ((0,), (2,)),
            ((2,), (0,)),
            ((0, 2), IDENTITY),
        ):
            assert multiply(inv.element, bits, GRID) == expected
        assert antipodal_check(inv, GRID)

    def test_random_graphs(self):
        rng = random.Random(37)
        for _ in range(60):
            graph = random_graph(rng)
            assert antipodal_check(build_involution(graph), graph)

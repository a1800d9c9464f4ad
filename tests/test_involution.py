import random

from rcoxeter import (
    IDENTITY,
    Cube,
    antipodal_check,
    build_ball,
    build_involution,
    canonical_cube,
    certify,
    conjugate,
    conjugates,
    fixed_loci,
    has_order_two,
    invariant_cubes,
    multiply,
    preset,
    support,
)
from oracles import random_graph

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

    def test_certify_builds_the_map_twice(self, monkeypatch):
        import rcoxeter.involution as involution_module
        import rcoxeter.probe as probe_module

        calls = []

        def counted(inv, ball):
            calls.append(ball.radius)
            return conjugates(inv, ball)

        monkeypatch.setattr(involution_module, "conjugates", counted)
        monkeypatch.setattr(probe_module, "conjugates", counted)
        assert certify(DINFTY, 20).verdict
        assert calls == [20, 20]

    def test_negative_radius_is_empty(self):
        ball = build_ball(GRID, 1)
        assert ball.reliable_radius < 0
        assert conjugates(build_involution(GRID), ball) == {}


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

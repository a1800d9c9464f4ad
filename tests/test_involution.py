import random
import tracemalloc
from itertools import combinations

import pytest

from rcoxeter import (
    IDENTITY,
    BallCensus,
    Cube,
    DefiningGraph,
    Involution,
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
    maximum_spherical,
    multiply,
    normal_form,
    preset,
    spherical_poset,
    support,
)
import oracles
from oracles import (
    complete_graph,
    conjugates,
    filtered_invariant_cubes,
    gray_code_antipodal,
    lex_cliques,
    maximal_elements,
    random_graph,
    subset_invariant_cubes,
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
            assert normal_form(inv.clique, graph) == inv.element
            assert support(inv.element) == set(inv.clique)
            assert multiply(inv.element, inv.element, graph) == IDENTITY

    def test_the_record_is_the_clique_and_the_graph(self):
        # gamma and k are read off the clique, so no record can disagree.
        inv = Involution((0, 2), GRID)
        assert Involution._fields == ("clique", "graph")
        assert inv == build_involution(GRID)
        assert (inv.element, inv.n) == ((0, 2), 2)
        for name in ("element", "n"):
            with pytest.raises(AttributeError):
                setattr(inv, name, (0,))
        assert (inv.element, inv.n) == ((0, 2), 2)


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


def clique_involution(graph, clique):
    """The involution of any clique, not only the one ``build_involution``
    picks."""
    return Involution(clique, graph)


def triangle_and_edge(u, v):
    """The triangle a, b, c plus the edge u-v."""
    labels = tuple(sorted({"a", "b", "c", u, v}))
    return DefiningGraph.from_edges(labels, (("a", "b"), ("a", "c"), ("b", "c"), (u, v)))


class TestMaximalCliques:
    """The left-descent lemma needs only a maximal clique, so every maximal
    clique has one fixed point, and its profile is read off the same
    census walk as a maximum one's.  A clique that is not maximal is
    rejected where it would give a wrong answer."""

    @staticmethod
    def assert_profile_is_walked(inv, ball, census):
        profile = displacement_profile(inv, ball)
        assert profile == displacement_profile(inv, census) == walked_profile(inv, ball)
        assert profile.monotone
        return profile

    def test_every_maximal_clique_of_random_graphs(self):
        rng = random.Random(1)
        tried = below = 0
        for _ in range(200):
            graph = random_graph(rng, 6)
            ball, census = build_ball(graph, 5), ball_census(graph, 5)
            top = len(maximum_spherical(graph))
            for clique in maximal_elements(spherical_poset(graph)):
                inv = clique_involution(graph, clique)
                assert invariant_cubes(inv, ball) == filtered_invariant_cubes(inv, ball)
                assert fixed_loci(inv, ball).unique_point
                self.assert_profile_is_walked(inv, ball, census)
                tried += 1
                below += inv.n < top
        assert (tried, below) == (529, 151)

    @pytest.mark.parametrize(
        "graph, radius",
        [(graph, 7) for graph in ALL_PRESETS]
        + [(complete_graph(n), 2 * n) for n in range(1, 11)],
        ids=["square", "dinfty", "pentagon", "grid"] + [f"K{n}" for n in range(1, 11)],
    )
    def test_every_maximal_clique_of_presets_and_complete_graphs(self, graph, radius):
        ball, census = build_ball(graph, radius), ball_census(graph, radius)
        for clique in maximal_elements(spherical_poset(graph)):
            inv = clique_involution(graph, clique)
            profile = self.assert_profile_is_walked(inv, ball, census)
            assert profile.mins[0] == inv.n

    def test_clique_that_is_not_maximal_is_rejected(self):
        # (d,) lies in the clique (a, d); a commutes with d, so the cube
        # based at a is invariant too, outside W_C, and the fixed set of
        # the walking oracle is more than one point.
        graph = triangle_and_edge("d", "a")
        inv = clique_involution(graph, (3,))
        ball = build_ball(graph, 6)
        assert filtered_invariant_cubes(inv, ball) == (
            Cube((), (0, 3)),
            Cube((), (3,)),
            Cube((0,), (3,)),
        )
        for query in (invariant_cubes, fixed_loci, displacement_profile):
            with pytest.raises(ValueError, match="not a maximal clique"):
                query(inv, ball)

    def test_profile_of_a_clique_below_the_maximum(self):
        # (d, e) is maximal but smaller than (a, b, c), so its q's are the
        # rise of entry 3 - 2 of the columns, not of entry 0.
        graph = triangle_and_edge("d", "e")
        inv = clique_involution(graph, (3, 4))
        ball = build_ball(graph, 7)
        assert fixed_loci(inv, ball).unique_point
        profile = self.assert_profile_is_walked(inv, ball, ball_census(graph, 7))
        assert profile.means[:2] == (2.0, 3.2)

    @pytest.mark.parametrize(
        "graph, clique",
        [
            # a a is the identity, not the product of the clique (a,)
            (DINFTY, (0, 0)),
            # the grid's clique (0, 2) spelt the other way round
            (GRID, (2, 0)),
            # b a, not the normal form a b of the clique's product
            (SQUARE, (1, 0)),
            # a b a is the element b, though its letters span (a, b)
            (SQUARE, (0, 1, 0)),
        ],
    )
    def test_involution_that_is_not_its_clique_is_rejected(self, graph, clique):
        inv = Involution(clique, graph)
        for where in (build_ball(graph, 6), ball_census(graph, 6)):
            for query in (invariant_cubes, fixed_loci, displacement_profile):
                with pytest.raises(ValueError, match="is not the product of"):
                    query(inv, where)

    def test_involution_of_another_graph_is_rejected(self):
        inv = build_involution(DINFTY)
        other = DefiningGraph.from_edges(("p", "q"), [])
        for where in (build_ball(other, 5), ball_census(other, 5)):
            for query in (invariant_cubes, fixed_loci, displacement_profile):
                with pytest.raises(ValueError, match="used with"):
                    query(inv, where)
        with pytest.raises(ValueError, match="used with"):
            antipodal_check(inv, other)

    def test_involution_of_an_equal_graph_is_accepted(self):
        twin = DefiningGraph.from_edges(("a", "b"), [])
        assert twin == DINFTY and twin is not DINFTY
        inv, census = build_involution(DINFTY), ball_census(twin, 5)
        own = build_involution(twin)
        assert invariant_cubes(inv, census) == invariant_cubes(own, census)
        assert fixed_loci(inv, census).as_dict() == fixed_loci(own, census).as_dict()
        assert displacement_profile(inv, census) == displacement_profile(own, census)
        assert antipodal_check(inv, twin)

    def test_out_of_range_clique_is_rejected(self):
        inv = clique_involution(PENTAGON, (5,))
        census = ball_census(PENTAGON, 4)
        for query in (invariant_cubes, fixed_loci, displacement_profile):
            with pytest.raises(ValueError, match="out of range"):
                query(inv, census)
        with pytest.raises(ValueError, match="out of range"):
            antipodal_check(inv, PENTAGON)


class TestAxesTried:
    """The axes the subset search ``oracles.subset_invariant_cubes`` builds
    from the flipped generators are the cliques a filter over every clique
    keeps, also where the flips are not the whole clique, as a wrong
    conjugation would make them."""

    @staticmethod
    def filtered(inv, ball, flips_of):
        cliques = lex_cliques(ball.graph, ball.radius)
        found = []
        for r in range(min(inv.n, ball.radius - inv.n) + 1):
            for base in combinations(inv.clique, r):
                flips = set(flips_of(base))
                found += [
                    Cube(base, c)
                    for c, _ in cliques
                    if len(c) <= ball.radius - r
                    and not set(c) & set(base)
                    and flips <= set(c)
                ]
        return tuple(found)

    @pytest.mark.parametrize("seed", range(20))
    def test_any_flips(self, monkeypatch, seed):
        rng = random.Random(seed)
        graph = random_graph(rng)
        inv = build_involution(graph)
        picks = {}

        def flips_of(base):
            if base not in picks:
                picks[base] = tuple(g for g in range(graph.n) if rng.random() < 0.3)
            return picks[base]

        monkeypatch.setattr(
            oracles, "conjugate", lambda base, element, graph: flips_of(base)
        )
        for radius in range(inv.n, inv.n + 4):
            census = ball_census(graph, radius)
            assert subset_invariant_cubes(inv, census) == self.filtered(
                inv, census, flips_of
            )


class TestGeneratorChecks:
    """One conjugation, and one product, per generator of the clique give
    the answers of the former searches over all 2^k of its subsets, and a
    conjugation that moves gamma for one generator is caught."""

    @staticmethod
    def cases():
        rng = random.Random(26)
        for _ in range(60):
            graph = random_graph(rng)
            for clique in maximal_elements(spherical_poset(graph)):
                yield graph, clique_involution(graph, clique)
        for n in range(1, 13):
            graph = complete_graph(n)
            yield graph, build_involution(graph)

    def test_subset_searches_agree(self):
        tried = 0
        for graph, inv in self.cases():
            k = inv.n
            for radius in (k - 1, k, 2 * k):
                census = ball_census(graph, radius, max_vertices=10**8)
                assert invariant_cubes(inv, census) == subset_invariant_cubes(inv, census)
            assert antipodal_check(inv, graph) == gray_code_antipodal(inv, graph)
            tried += 1
        assert tried == 175 + 12

    @pytest.mark.parametrize(
        "graph",
        ALL_PRESETS + (complete_graph(4),),
        ids=("square", "dinfty", "pentagon", "grid", "K4"),
    )
    def test_conjugate_that_moves_gamma_fails(self, monkeypatch, graph):
        import rcoxeter.involution as involution_module

        inv = build_involution(graph)
        moved = inv.clique[-1]

        def wrong(g, x, graph):
            return x + (moved,) if g == (moved,) else conjugate(g, x, graph)

        monkeypatch.setattr(involution_module, "conjugate", wrong)
        assert invariant_cubes(inv, ball_census(graph, 6)) == ()
        certificate = certify(graph, 6)
        assert not certificate.unique_fixed_point
        assert not certificate.verdict


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
    """``certify`` walks no sphere: the fixed locus comes from one check per
    generator of the clique and the profile from the growth series.  Only
    ``build_ball`` walks the shortlex automaton, and it builds one
    ``Ball``."""

    @pytest.mark.parametrize(
        "graph, radius",
        ((PENTAGON, 8), (DINFTY, 100), (complete_graph(6), 6)),
        ids=("pentagon-r8", "dinfty-r100", "K6-r6"),
    )
    def test_one_walk_per_certify(self, monkeypatch, graph, radius):
        import rcoxeter.davis as davis_module
        import rcoxeter.involution as involution_module
        import rcoxeter.probe as probe_module

        built = []

        class Counted(davis_module.Ball):
            def __init__(self, graph, radius, *rest):
                built.append(radius)
                super().__init__(graph, radius, *rest)

        monkeypatch.setattr(davis_module, "Ball", Counted)
        inv = build_involution(graph)
        assert certify(graph, radius).verdict
        displacement_profile(inv, ball_census(graph, radius))
        assert built == []
        assert isinstance(build_ball(graph, radius), Counted)
        assert built == [radius]
        for module in (davis_module, involution_module, probe_module):
            assert not hasattr(module, "_spheres")

    @pytest.mark.parametrize(
        "graph, radius",
        ((PENTAGON, 8), (DINFTY, 100), (complete_graph(6), 6)),
        ids=("pentagon-r8", "dinfty-r100", "K6-r6"),
    )
    def test_conjugations_per_certify(self, monkeypatch, graph, radius):
        # ``invariant_cubes`` conjugates gamma by each generator of the
        # clique, and ``fixed_loci`` by the base of each invariant cube,
        # all through the module-level ``conjugate``; the profile
        # conjugates and multiplies nothing.
        import rcoxeter.davis as davis_module
        import rcoxeter.involution as involution_module
        import rcoxeter.probe as probe_module

        calls = []

        def count(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls.append((module.__name__, name))
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        count(involution_module, "conjugate")
        count(probe_module, "conjugate")
        count(davis_module, "multiply")
        inv = build_involution(graph)
        census = ball_census(graph, radius)
        displacement_profile(inv, census)
        assert calls == []
        cubes = len(invariant_cubes(inv, census))
        calls.clear()
        assert certify(graph, radius).verdict
        assert calls == [("rcoxeter.involution", "conjugate")] * (inv.n + cubes)

    @pytest.mark.parametrize(
        "graph, radius, bound",
        ((PENTAGON, 11, 10 * 2**20), (DINFTY, 400, 2**20)),
        ids=("pentagon-r11", "dinfty-r400"),
    )
    def test_certify_streams(self, graph, radius, bound):
        # Nothing sized by a sphere is held: the profile reads the growth
        # series.  On the pentagon group the bound rules out a Ball; on the
        # line, keeping every vertex up to radius 399 with its conjugate
        # would hold about 4 MiB.
        tracemalloc.start()
        try:
            assert certify(graph, radius).verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize(
        "graph, radius",
        (
            (PENTAGON, 8),
            (DINFTY, 100),
            (GRID, 12),
            (complete_graph(6), 6),
            (complete_graph(4), 10**30),
        ),
        ids=("pentagon-r8", "dinfty-r100", "grid-r12", "K6-r6", "K4-r1e30"),
    )
    @pytest.mark.parametrize("command", ("certify", "profile", "fixed"))
    def test_one_clique_search_and_one_series_walk(
        self, monkeypatch, capsys, command, graph, radius
    ):
        # The census's walk feeds the cap, the cells and the profile, and
        # the involution's clique gives the census its k: the clique search
        # runs once, and the series is asked for columns 0..R at most.
        import rcoxeter.davis as davis_module
        import rcoxeter.involution as involution_module
        import rcoxeter.probe as probe_module
        from rcoxeter.cli import main

        searches, columns = [], []
        real_columns = davis_module._growth_columns

        def counted_search(graph):
            searches.append(graph)
            return maximum_spherical(graph)

        def counted_columns(by_size):
            for column in real_columns(by_size):
                columns.append(column[-1])
                yield column

        # Each module that searches looks the search up by its own name.
        for module in (davis_module, involution_module, probe_module):
            monkeypatch.setattr(module, "maximum_spherical", counted_search)
        monkeypatch.setattr(davis_module, "_growth_columns", counted_columns)
        if command == "certify":
            assert certify(graph, radius).verdict
        else:
            # ``rcoxeter profile`` or ``fixed`` on this graph, given under a
            # preset's name.
            monkeypatch.setattr("rcoxeter.cli.preset", lambda name: graph)
            assert main([command, "--preset", "square", "--radius", str(radius)]) == 0
            assert capsys.readouterr().err == ""
        assert len(searches) == 1
        assert 0 < len(columns) <= radius + 1


class TestStreamingAgainstBallWalk:
    """The home cube found by the generator checks and the profile read off
    the growth series against references that walk an enumerated ball,
    given the ball itself and its census."""

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
        for source in (ball, census):
            assert invariant_cubes(inv, source) == cubes
            report = fixed_loci(inv, source)
            assert tuple(locus.cube for locus in report.loci) == cubes
            assert report.radius_examined == ball.reliable_radius
            assert displacement_profile(inv, source) == profile
            reports.append(report)
        assert reports[0] == reports[1]

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
        # Hand-built censuses of an infinite group, the second at a radius
        # no index reaches: the axis search bounds its clique sizes by n.
        inv = build_involution(PENTAGON)
        for radius in (40, 10**30):
            census = BallCensus(PENTAGON, radius, radius - 2, 0, ())
            assert invariant_cubes(inv, census) == (Cube(IDENTITY, (0, 1)),)
            assert fixed_loci(inv, census).unique_point

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

    def test_one_letter_product_per_generator(self, monkeypatch):
        # gamma times each generator of the clique, and nothing else.
        import rcoxeter.involution as involution_module

        graph = complete_graph(6)
        inv = build_involution(graph)
        letters = []

        def recorded(x, y, graph):
            letters.append(y)
            return multiply(x, y, graph)

        monkeypatch.setattr(involution_module, "multiply", recorded)
        assert antipodal_check(inv, graph)
        assert letters == [(s,) for s in inv.clique]

    @pytest.mark.parametrize(
        "graph, clique", [(SQUARE, (1, 0))], ids=["descending-clique"]
    )
    def test_involution_that_is_not_its_clique_is_rejected(self, graph, clique):
        inv = Involution(clique, graph)
        with pytest.raises(ValueError, match="is not the product of"):
            antipodal_check(inv, graph)

    def test_clique_that_is_not_maximal_is_rejected(self):
        inv = Involution((0,), SQUARE)
        with pytest.raises(ValueError, match="not a maximal clique"):
            antipodal_check(inv, SQUARE)

    @pytest.mark.parametrize(
        "graph",
        (SQUARE, PENTAGON, GRID, complete_graph(4)),
        ids=("square", "pentagon", "grid", "K4"),
    )
    def test_product_by_the_wrong_generator_fails(self, monkeypatch, graph):
        # gamma * s comes out as gamma * s' for the next generator s' of the
        # clique: every support is C less one generator, the wrong one.
        import rcoxeter.involution as involution_module

        inv = build_involution(graph)
        clique = inv.clique
        following = dict(zip(clique, clique[1:] + clique[:1]))

        def wrong(x, y, graph):
            return multiply(x, tuple(following.get(g, g) for g in y), graph)

        monkeypatch.setattr(involution_module, "multiply", wrong)
        monkeypatch.setattr(oracles, "multiply", wrong)
        assert not antipodal_check(inv, graph)
        assert not gray_code_antipodal(inv, graph)

    @pytest.mark.parametrize(
        "wrong",
        (lambda x, y, graph: x, lambda x, y, graph: x + y),
        ids=("drops-the-subset", "never-cancels"),
    )
    def test_wrong_multiply_fails(self, monkeypatch, wrong):
        import rcoxeter.involution as involution_module

        monkeypatch.setattr(involution_module, "multiply", wrong)
        for graph in ALL_PRESETS + (complete_graph(4),):
            assert not antipodal_check(build_involution(graph), graph)

import random
import tracemalloc
from math import comb

import pytest

from rcoxeter import (
    SphericalPoset,
    all_cliques,
    chamber_complex,
    is_spherical,
    maximum_spherical,
    preset,
    spherical_poset,
)
from rcoxeter import spherical
from rcoxeter.graphs import _bits
from rcoxeter.spherical import _clique_counts
from oracles import (
    brute_force_cliques,
    brute_force_maximum_clique,
    complete_graph,
    listed_clique_counts,
    listed_maximum_clique,
    maximal_clique_masks,
    maximal_elements,
    moon_moser_graph,
    random_graph,
    recursive_chamber_complex,
)

SQUARE = preset("square")
DINFTY = preset("dinfty")
PENTAGON = preset("pentagon")
GRID = preset("grid")
ALL_PRESETS = (SQUARE, DINFTY, PENTAGON, GRID)


class TestIsSpherical:
    def test_edge_is_spherical(self):
        assert is_spherical({0, 1}, SQUARE)

    def test_non_edge_is_not(self):
        assert not is_spherical({0, 1}, DINFTY)

    def test_empty_set_vacuously_spherical(self):
        for graph in ALL_PRESETS:
            assert is_spherical((), graph)

    def test_near_every_mask(self):
        # The empty mask is near every generator, and is no maximal clique.
        rng = random.Random(35)
        for graph in ALL_PRESETS + tuple(random_graph(rng, 6) for _ in range(20)):
            for mask in range(1 << graph.n):
                near = sum(
                    1 << h
                    for h in range(graph.n)
                    if all(h == g or graph.adjacent(h, g) for g in _bits(mask))
                )
                assert spherical._near(mask, graph) == near

    def test_out_of_range(self):
        # The square has generators 0 and 1: index 2 is the first too large.
        for g in (5, 2, -1):
            with pytest.raises(ValueError, match=f"generator index {g} out of range"):
                is_spherical({g}, SQUARE)


class TestPoset:
    def test_square_is_boolean_lattice(self):
        assert spherical_poset(SQUARE).elements == ((), (0,), (1,), (0, 1))

    def test_dinfty_has_no_edges(self):
        assert spherical_poset(DINFTY).elements == ((), (0,), (1,))

    def test_pentagon_count(self):
        # brute force over all 32 subsets: 1 empty + 5 vertices + 5 edges
        poset = spherical_poset(PENTAGON)
        assert len(poset) == 11
        assert set(poset.elements) == brute_force_cliques(PENTAGON)

    def test_membership(self):
        poset = spherical_poset(PENTAGON)
        assert (0, 1) in poset
        assert [0, 1] in poset
        assert () in poset
        assert (1, 0) not in poset  # unsorted
        assert (0, 2) not in poset  # not a clique

    def test_matches_brute_force_on_presets_and_random_graphs(self):
        rng = random.Random(23)
        graphs = list(ALL_PRESETS) + [random_graph(rng) for _ in range(25)]
        for graph in graphs:
            assert set(all_cliques(graph)) == brute_force_cliques(graph)

    def test_enumeration_order_is_size_then_lex(self):
        for graph in ALL_PRESETS:
            elements = spherical_poset(graph).elements
            assert list(elements) == sorted(elements, key=lambda c: (len(c), c))

    def test_downward_closed(self):
        for graph in ALL_PRESETS:
            poset = spherical_poset(graph)
            members = set(poset.elements)
            for clique in members:
                for drop in range(len(clique)):
                    face = clique[:drop] + clique[drop + 1 :]
                    assert face in members

    def test_maximal_elements_are_maximal_cliques(self):
        assert maximal_elements(spherical_poset(SQUARE)) == ((0, 1),)
        assert maximal_elements(spherical_poset(DINFTY)) == ((0,), (1,))
        assert maximal_elements(spherical_poset(PENTAGON)) == (
            (0, 1),
            (0, 4),
            (1, 2),
            (2, 3),
            (3, 4),
        )


class TestCliqueCounts:
    def test_counts_match_brute_force_by_size(self):
        rng = random.Random(41)
        for graph in ALL_PRESETS + tuple(random_graph(rng, 9) for _ in range(60)):
            by_size = [0] * (graph.n + 1)
            for clique in brute_force_cliques(graph):
                by_size[len(clique)] += 1
            while not by_size[-1]:
                by_size.pop()
            assert list(_clique_counts(graph.n, graph.neighbor_masks)) == by_size

    @pytest.mark.parametrize("n", range(1, 25))
    def test_complete_graph_counts_are_binomials(self, n):
        graph = complete_graph(n)
        counts = list(_clique_counts(graph.n, graph.neighbor_masks))
        assert counts == [comb(n, d) for d in range(n + 1)]
        assert counts == list(listed_clique_counts(graph.n, graph.neighbor_masks))

    def test_counts_match_listed_oracle(self):
        rng = random.Random(27)
        dense = random_graph(random.Random(0), 24, 0.85, 24)
        graphs = [
            *ALL_PRESETS,
            *(random_graph(rng, 12, 0.1 + 0.85 * i / 59) for i in range(60)),
            dense,
        ]
        for graph in graphs:
            counts = list(_clique_counts(graph.n, graph.neighbor_masks))
            assert counts == list(listed_clique_counts(graph.n, graph.neighbor_masks))
        assert sum(_clique_counts(dense.n, dense.neighbor_masks)) == 25997

    def test_a_size_is_counted_before_it_is_built(self, monkeypatch):
        # The count of the 3-cliques of K24 comes from the masks of the
        # 2-cliques, before any mask of a 3-clique exists: it reads the
        # bits of the 23 masks of the 1-cliques (the 24th has no
        # extension) to build the 22 masks of the 2-cliques, and no more.
        graph = complete_graph(24)
        counts = _clique_counts(graph.n, graph.neighbor_masks)
        assert [next(counts) for _ in range(3)] == [1, 24, 276]
        read = []
        monkeypatch.setattr(
            spherical, "_bits", lambda mask: read.append(mask) or _bits(mask)
        )
        tracemalloc.start()
        try:
            assert next(counts) == 2024
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read) == 23
        # The 22 merged masks of the 2-cliques peak at 2,712 bytes (Python
        # 3.11); one mask per clique, 276 of them, peaked at 11,088.
        assert peak < 4 * 2712


class TestMaximumSpherical:
    def test_square_whole_graph(self):
        assert maximum_spherical(SQUARE) == (0, 1)

    def test_dinfty_lex_tie_break(self):
        assert maximum_spherical(DINFTY) == (0,)

    def test_pentagon(self):
        assert maximum_spherical(PENTAGON) == (0, 1)
        assert maximum_spherical(PENTAGON) == brute_force_maximum_clique(PENTAGON)

    def test_grid_tie_break(self):
        # ties {a,c},{a,d},{b,c},{b,d} break to {a,c}
        assert maximum_spherical(GRID) == (0, 2)
        assert maximum_spherical(GRID) == brute_force_maximum_clique(GRID)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(29)
        for _ in range(40):
            graph = random_graph(rng)
            assert maximum_spherical(graph) == brute_force_maximum_clique(graph)

    def test_search_finds_each_maximal_clique_once(self):
        # listed_maximum_clique reads only the largest cliques the oracle
        # lists, so this pins the rest of what it lists: every maximal
        # clique, each once, and nothing below one.
        rng = random.Random(30)
        graphs = list(ALL_PRESETS) + [random_graph(rng, 9) for _ in range(40)]
        for graph in graphs:
            found = maximal_clique_masks(graph.n, graph.neighbor_masks)
            cliques = sorted(tuple(_bits(mask)) for mask in found)
            assert cliques == sorted(maximal_elements(spherical_poset(graph)))

    def test_matches_the_least_largest_listed_clique(self):
        rng = random.Random(32)
        graphs = [
            *ALL_PRESETS,
            *(complete_graph(n) for n in range(1, 25)),
            *(moon_moser_graph(m) for m in range(1, 9)),
            *(random_graph(rng, 14, 0.1 + 0.85 * i / 199) for i in range(200)),
        ]
        for graph in graphs:
            assert maximum_spherical(graph) == listed_maximum_clique(graph)

    def test_lists_no_maximal_clique(self):
        # K_{3,...,3} with 8 parts has 3^8 = 6,561 maximal cliques, all
        # of the largest size; listing them peaked at 266-472 KB (Python
        # 3.11).  The search holds one path of at most 8 cliques and the
        # best one, 592 bytes.
        graph = moon_moser_graph(8)
        tracemalloc.start()
        try:
            clique = maximum_spherical(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clique == tuple(range(0, 24, 3))
        assert peak < 4096

    def test_size_is_max_over_poset(self):
        for graph in ALL_PRESETS:
            poset = spherical_poset(graph)
            assert len(maximum_spherical(graph)) == max(len(c) for c in poset)


class TestChamberComplex:
    def test_dinfty_cone_on_two_points(self):
        complex_ = chamber_complex(spherical_poset(DINFTY))
        assert complex_.vertex_count == 3
        assert complex_.counts_by_dimension() == (3, 2)
        assert complex_.dimension == 1
        assert complex_.maximal_chains == (((), (0,)), ((), (1,)))

    def test_square_boolean_chains(self):
        # chains of the 4-element boolean poset: 4 + 5 + 2
        complex_ = chamber_complex(spherical_poset(SQUARE))
        assert complex_.counts_by_dimension() == (4, 5, 2)
        assert complex_.dimension == 2
        assert complex_.maximal_chains == (
            ((), (0,), (0, 1)),
            ((), (1,), (0, 1)),
        )

    def test_edgeless_graph_gives_star(self):
        from rcoxeter import DefiningGraph

        graph = DefiningGraph.from_edges(("a", "b", "c", "d"), ())
        complex_ = chamber_complex(spherical_poset(graph))
        assert complex_.counts_by_dimension() == (5, 4)

    def test_vertices_count_the_poset(self):
        for graph in ALL_PRESETS:
            poset = spherical_poset(graph)
            assert chamber_complex(poset).vertex_count == len(poset)

    def test_dimension_is_maximum_clique_size(self):
        for graph in ALL_PRESETS:
            poset = spherical_poset(graph)
            assert chamber_complex(poset).dimension == len(maximum_spherical(graph))

    def test_closed_under_subchains(self):
        for graph in ALL_PRESETS:
            complex_ = chamber_complex(spherical_poset(graph))
            simplices = set(complex_.simplices)
            for chain in simplices:
                for drop in range(len(chain)):
                    face = chain[:drop] + chain[drop + 1 :]
                    if face:
                        assert face in simplices

    def test_every_maximal_chain_spans_bottom_to_top(self):
        for graph in ALL_PRESETS:
            poset = spherical_poset(graph)
            complex_ = chamber_complex(poset)
            maximal = set(maximal_elements(poset))
            assert len(complex_.maximal_chains) >= 1
            for chain in complex_.maximal_chains:
                assert chain[0] == ()
                assert chain[-1] in maximal

    def test_matches_the_recursive_oracle(self):
        rng = random.Random(33)
        graphs = [
            *ALL_PRESETS,
            *(complete_graph(n) for n in range(1, 7)),
            *(random_graph(rng, 8) for _ in range(300)),
        ]
        for graph in graphs:
            poset = spherical_poset(graph)
            assert chamber_complex(poset) == recursive_chamber_complex(poset)

    def test_shuffled_poset_matches_the_recursive_oracle(self):
        # With the elements out of size order a superset can come before
        # its subset; only a later strict superset extends a chain.
        rng = random.Random(34)
        graphs = [
            *ALL_PRESETS, complete_graph(4), *(random_graph(rng, 7) for _ in range(40))
        ]
        for graph in graphs:
            elements = list(all_cliques(graph))
            for _ in range(3):
                rng.shuffle(elements)
                poset = SphericalPoset(graph, tuple(elements))
                assert chamber_complex(poset) == recursive_chamber_complex(poset)

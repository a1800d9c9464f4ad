import itertools

import pytest

from rcoxeter import (
    generator_matrix,
    identity_matrix,
    matrix_product,
    normal_form,
    preset,
    tits_matrix,
)
from oracles import determinant, shortlex_class_table

SQUARE = preset("square")
DINFTY = preset("dinfty")
PENTAGON = preset("pentagon")
GRID = preset("grid")


def test_identity_word_is_identity_matrix():
    for graph in (SQUARE, DINFTY, PENTAGON, GRID):
        assert tits_matrix((), graph) == identity_matrix(graph.n)


def test_free_pair_generator_matrix():
    # reflection formula applied by hand: e_a -> -e_a, e_b -> e_b + 2 e_a
    assert generator_matrix(0, DINFTY) == ((-1, 2), (0, 1))
    assert generator_matrix(1, DINFTY) == ((1, 0), (2, -1))


def test_commuting_pair_generator_matrix():
    # the edge makes m(a, b) = 2, so the reflection fixes e_b
    assert generator_matrix(0, SQUARE) == ((-1, 0), (0, 1))
    assert generator_matrix(1, SQUARE) == ((1, 0), (0, -1))


@pytest.mark.parametrize("g", [5, -1])
def test_generator_index_out_of_range(g):
    with pytest.raises(ValueError, match=f"generator index {g} out of range"):
        generator_matrix(g, PENTAGON)


def test_generator_matrices_are_involutions():
    for graph in (SQUARE, DINFTY, PENTAGON, GRID):
        for g in range(graph.n):
            m = generator_matrix(g, graph)
            assert matrix_product(m, m) == identity_matrix(graph.n)
            assert determinant(m) == -1


def test_homomorphism_and_unit_determinant():
    words = [(0,), (1, 0), (0, 1, 0, 1), (1, 1, 0)]
    for graph in (SQUARE, DINFTY, GRID):
        for u in words:
            for v in words:
                assert tits_matrix(u + v, graph) == matrix_product(
                    tits_matrix(u, graph), tits_matrix(v, graph)
                )
                assert determinant(tits_matrix(u + v, graph)) in (-1, 1)


def test_round_trip_words_up_to_six():
    # normalizing never changes the matrix, for every word of length <= 6
    for graph in (SQUARE, DINFTY, PENTAGON, GRID):
        for k in range(7):
            for word in itertools.product(range(graph.n), repeat=k):
                assert tits_matrix(normal_form(word, graph), graph) == tits_matrix(
                    word, graph
                )


def test_faithfulness_at_desk_scale():
    # on the <= 4 generator presets, words of length <= 6 agree in the
    # group exactly when their matrices agree
    for graph in (SQUARE, DINFTY, GRID):
        table, words = shortlex_class_table(graph, 6)
        for word, matrix in words:
            assert normal_form(word, graph) == table[matrix]


def test_pentagon_matches_oracle_up_to_five():
    table, words = shortlex_class_table(PENTAGON, 5)
    for word, matrix in words:
        assert normal_form(word, graph=PENTAGON) == table[matrix]


def test_geodesy_and_shortlex_minimality():
    # the oracle table maps each matrix to the shortlex-least word reaching
    # it, so equality below certifies both geodesy and lex minimality
    for graph, max_len in ((SQUARE, 5), (DINFTY, 5), (GRID, 5), (PENTAGON, 5)):
        table, words = shortlex_class_table(graph, max_len)
        for word, matrix in words:
            expected = table[matrix]
            got = normal_form(word, graph)
            assert got == expected
            assert (len(got), got) <= (len(word), tuple(word))


def test_long_words_still_agree_with_the_oracle():
    import random

    rng = random.Random(41)
    for graph in (DINFTY, PENTAGON, GRID):
        for _ in range(25):
            word = tuple(rng.randrange(graph.n) for _ in range(rng.randint(7, 20)))
            nf = normal_form(word, graph)
            assert tits_matrix(nf, graph) == tits_matrix(word, graph)
            assert normal_form(nf, graph) == nf


def test_determinant_helper():
    assert determinant(((2, 0), (0, 3))) == 6
    assert determinant(((0, 1), (1, 0))) == -1
    assert determinant(((1, 2), (2, 4))) == 0

import random

import pytest

from rcoxeter import (
    IDENTITY,
    UnknownLabelError,
    conjugate,
    has_order_two,
    inverse,
    length,
    multiply,
    normal_form,
    parse_word,
    preset,
    support,
    tits_matrix,
    word_to_text,
)

SQUARE = preset("square")
DINFTY = preset("dinfty")
PENTAGON = preset("pentagon")
GRID = preset("grid")
ALL_PRESETS = (SQUARE, DINFTY, PENTAGON, GRID)


def words_up_to(graph, max_len, rng, count):
    out = []
    for _ in range(count):
        k = rng.randint(0, max_len)
        out.append(tuple(rng.randrange(graph.n) for _ in range(k)))
    return out


class TestNormalForm:
    def test_generator_squares_cancel(self):
        assert normal_form((0, 0), SQUARE) == IDENTITY

    def test_commuting_swap(self):
        assert normal_form((1, 0), SQUARE) == (0, 1)

    def test_free_product_untouched(self):
        assert normal_form((1, 0), DINFTY) == (1, 0)

    def test_pentagon_edge_swap(self):
        assert normal_form((1, 0), PENTAGON) == (0, 1)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            normal_form((2,), SQUARE)

    def test_long_dinfty_word_with_cancelling_pairs(self):
        rng = random.Random(8000)
        expected = tuple(k % 2 for k in range(8000))
        letters = list(expected)
        for _ in range(500):
            g = rng.randrange(2)
            pos = rng.randint(0, len(letters))
            letters[pos:pos] = (g, g)
        assert normal_form(letters, DINFTY) == expected

    def test_idempotent(self):
        rng = random.Random(7)
        for graph in ALL_PRESETS:
            for word in words_up_to(graph, 9, rng, 50):
                once = normal_form(word, graph)
                assert normal_form(once, graph) == once


class TestMultiply:
    def test_right_cancellation(self):
        assert multiply((0, 1), (1,), SQUARE) == (0,)

    def test_involution(self):
        assert multiply((0,), (0,), DINFTY) == IDENTITY

    def test_translation_grows(self):
        # ab has infinite order in the free product; its square is a
        # 4-letter geodesic (checked against the matrix oracle below).
        assert multiply((0, 1), (0, 1), DINFTY) == (0, 1, 0, 1)
        assert tits_matrix((0, 1, 0, 1), DINFTY) != tits_matrix((), DINFTY)

    def test_identity_is_neutral(self):
        rng = random.Random(11)
        for graph in ALL_PRESETS:
            for word in words_up_to(graph, 8, rng, 20):
                w = normal_form(word, graph)
                assert multiply(w, IDENTITY, graph) == w
                assert multiply(IDENTITY, w, graph) == w

    def test_associative_on_random_triples(self):
        rng = random.Random(13)
        for _ in range(1000):
            graph = ALL_PRESETS[rng.randrange(len(ALL_PRESETS))]
            x, y, z = (
                normal_form(w, graph) for w in words_up_to(graph, 6, rng, 3)
            )
            assert multiply(multiply(x, y, graph), z, graph) == multiply(
                x, multiply(y, z, graph), graph
            )


class TestInverse:
    def test_identity(self):
        assert inverse(IDENTITY, SQUARE) == IDENTITY

    def test_free_product_reversal(self):
        assert inverse((0, 1), DINFTY) == (1, 0)

    def test_commuting_reversal_renormalizes(self):
        assert inverse((0, 1), SQUARE) == (0, 1)

    def test_inverse_law(self):
        rng = random.Random(17)
        for graph in ALL_PRESETS:
            for word in words_up_to(graph, 8, rng, 30):
                w = normal_form(word, graph)
                assert multiply(w, inverse(w, graph), graph) == IDENTITY
                assert inverse(inverse(w, graph), graph) == w


def test_length():
    assert length(IDENTITY) == 0
    assert length(normal_form((0, 1, 0), DINFTY)) == 3
    assert length(normal_form((0, 1, 0, 1), SQUARE)) == 0


class TestConjugate:
    def test_identity_conjugator(self):
        for graph in ALL_PRESETS:
            w = normal_form((0, 1), graph)
            assert conjugate(IDENTITY, w, graph) == w

    def test_dinfty_reflection(self):
        assert conjugate((1,), (0,), DINFTY) == (1, 0, 1)

    def test_abelian_conjugation_trivial(self):
        assert conjugate((0,), (0, 1), SQUARE) == (0, 1)


def test_support():
    assert support(IDENTITY) == frozenset()
    assert support(normal_form((1, 0, 1), DINFTY)) == {0, 1}
    assert support((0, 1)) == {0, 1}


class TestHasOrderTwo:
    def test_identity_is_not_an_involution(self):
        assert not has_order_two(IDENTITY, SQUARE)

    def test_commuting_product(self):
        assert has_order_two((0, 1), SQUARE)

    def test_infinite_order_translation(self):
        assert not has_order_two((0, 1), DINFTY)

    def test_translation_powers_never_trivial(self):
        # matrix oracle: (ab)^n stays away from the identity for n <= 10
        identity = tits_matrix((), DINFTY)
        step = tits_matrix((0, 1), DINFTY)
        power = identity
        for _ in range(10):
            from rcoxeter import matrix_product

            power = matrix_product(power, step)
            assert power != identity


def test_generator_involutions():
    for graph in ALL_PRESETS:
        for g in range(graph.n):
            assert normal_form((g, g), graph) == IDENTITY


class TestWordText:
    def test_parse_spaced(self):
        assert parse_word("v1 v0", PENTAGON) == (0, 1)

    def test_parse_contiguous(self):
        assert parse_word("ba", SQUARE) == (0, 1)

    def test_parse_empty_marker(self):
        assert parse_word("e", SQUARE) == IDENTITY
        assert parse_word("", SQUARE) == IDENTITY

    def test_e_as_a_real_label(self):
        from rcoxeter import DefiningGraph

        g2 = DefiningGraph.from_edges(("e", "f"), (("e", "f"),))
        assert parse_word("e", g2) == (0,)
        assert parse_word("", g2) == IDENTITY

    def test_parse_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            parse_word("q", SQUARE)
        with pytest.raises(UnknownLabelError):
            parse_word("v9", PENTAGON)

    def test_round_trip(self):
        assert word_to_text((0, 1), SQUARE) == "a b"
        assert word_to_text(IDENTITY, SQUARE) == ""
        assert parse_word(word_to_text((0, 1, 0), DINFTY), DINFTY) == (0, 1, 0)

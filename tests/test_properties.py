"""Property tests: the one-pass normal form and the automaton-built Davis
ball against independent oracles.

Graphs have up to 8 generators and words up to 40 letters.  The two-phase
algorithm in ``oracles`` and the reflection matrices share no code with
``rcoxeter.words``; the breadth-first ball in ``oracles`` shares none with
``rcoxeter.davis.build_ball``.  Examples are derandomized so every run
checks the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rcoxeter import DefiningGraph, build_ball, multiply, normal_form, tits_matrix
from oracles import (
    assert_same_ball,
    bfs_ball,
    two_phase_multiply,
    two_phase_normal_form,
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


@PROPERTY
@given(graph_and_word())
def test_normal_form_matches_two_phase_oracle(case):
    graph, word = case
    assert normal_form(word, graph) == two_phase_normal_form(word, graph)


@PROPERTY
@given(graph_and_pair())
def test_multiply_matches_two_phase_oracle(case):
    graph, x, y = case
    x = normal_form(x, graph)
    assert multiply(x, y, graph) == two_phase_multiply(x, y, graph)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graph_and_pair())
def test_normal_forms_agree_with_tits_matrix(case):
    graph, x, y = case
    nf = normal_form(x + y, graph)
    assert tits_matrix(nf, graph) == tits_matrix(x + y, graph)
    product = multiply(normal_form(x, graph), y, graph)
    assert product == nf


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(), st.integers(0, 5))
def test_build_ball_matches_bfs_oracle(graph, radius):
    assert_same_ball(build_ball(graph, radius), bfs_ball(graph, radius))

"""The benchmark's workloads and the seeded inputs each one runs.

A workload fixes a defining graph, a radius and the sizes of its batches.
The seed decides three things only: the order in which the generators are
written into the graph file (a relabelling, so every count stays the same),
the word batches, and which ball vertices are queried.  The program under
test receives nothing but the generated graph file and the words.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations


@dataclass(frozen=True)
class Workload:
    name: str
    labels: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    radius: int
    #: random words of 1..radius letters sent through ``normal_form``
    short_words: int
    #: ball vertex pairs sent through ``multiply``
    pairs: int
    #: ``cubes_at_vertex`` calls, and as many ``canonical_cube`` calls
    queries: int
    #: normal-form lengths of long alternating words, each padded with
    #: ``cancel_pairs`` inserted cancelling pairs
    long_words: tuple[int, ...] = ()
    cancel_pairs: int = 0
    why: str = field(default="", compare=False)


def _cycle(labels):
    return tuple((labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels)))


def _complete(labels):
    return tuple(combinations(labels, 2))


PENTAGON = tuple(f"v{i}" for i in range(5))
DINFTY = ("a", "b")

#: The timed workloads.  Sizes are chosen so one repetition of the whole
#: operation mix takes about three seconds on one core, which leaves room
#: for several repetitions, and so medians, in a run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hyperbolic", PENTAGON, _cycle(PENTAGON), radius=8,
            short_words=20000, pairs=5000, queries=2000,
            why="pentagon r8: exponential growth, so vertex and cube "
            "enumeration and Ball indexing dominate; many short normal forms",
        ),
        Workload(
            "long_words", DINFTY, (), radius=100,
            short_words=400, pairs=400, queries=1000,
            long_words=(2000, 2500), cancel_pairs=300,
            why="dinfty r100 plus words of thousands of letters: quadratic "
            "normal forms and conjugation dominate, the ball is tiny",
        ),
        Workload(
            "complete", tuple(f"x{i}" for i in range(8)),
            _complete(tuple(f"x{i}" for i in range(8))), radius=8,
            short_words=20000, pairs=5000, queries=2048,
            why="K8 r8, the whole finite group: few vertices, 3^8 cubes, so "
            "cube enumeration and Ball indexing dominate; read-heavy queries",
        ),
    )
}

#: Tiny cases the self-check runs through every check in seconds.
SELF_CHECK = (
    Workload("pentagon-r4", PENTAGON, _cycle(PENTAGON), radius=4,
             short_words=200, pairs=100, queries=40),
    Workload("dinfty-r20", DINFTY, (), radius=20, short_words=100, pairs=50,
             queries=20, long_words=(60, 90), cancel_pairs=20),
    Workload("k4-r4", tuple(f"x{i}" for i in range(4)),
             _complete(tuple(f"x{i}" for i in range(4))), radius=4,
             short_words=200, pairs=100, queries=40),
    Workload("square-r4", ("a", "b"), (("a", "b"),), radius=4,
             short_words=50, pairs=20, queries=10),
    Workload("grid-r5", ("a", "b", "c", "d"),
             (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")), radius=5,
             short_words=200, pairs=100, queries=40),
)


@dataclass(frozen=True)
class Inputs:
    """Everything a run sends to the program, generated from one seed."""

    graph_text: str
    #: generator labels in file order; index i in every word means order[i]
    order: tuple[str, ...]
    words: tuple[tuple[int, ...], ...]
    #: long words and the normal form each must reduce to
    long_words: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    rng: random.Random


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{w.name}/{seed}")
    order = list(w.labels)
    rng.shuffle(order)
    graph_text = json.dumps(
        {"vertices": order, "edges": [list(edge) for edge in w.edges]}
    ) + "\n"
    n = len(order)
    words = tuple(
        tuple(rng.randrange(n) for _ in range(rng.randint(1, w.radius)))
        for _ in range(w.short_words)
    )
    index = {label: i for i, label in enumerate(order)}
    edges = {frozenset((index[a], index[b])) for a, b in w.edges}
    free = [(s, t) for s in range(n) for t in range(s + 1, n)
            if frozenset((s, t)) not in edges]
    long_words = []
    for length in w.long_words:
        s, t = rng.choice(free)
        if rng.random() < 0.5:
            s, t = t, s
        reduced = tuple(s if k % 2 == 0 else t for k in range(length))
        letters = list(reduced)
        for _ in range(w.cancel_pairs):
            g = rng.randrange(n)
            pos = rng.randint(0, len(letters))
            letters[pos:pos] = (g, g)
        long_words.append((tuple(letters), reduced))
    return Inputs(graph_text, tuple(order), words, tuple(long_words), rng)

"""Independent oracles the tests check the library against.

Everything here deliberately avoids the normal-form machinery: group
elements are identified by their exact reflection matrices, which are
computed by plain matrix products over raw words.  Clique enumeration is
redone by filtering all subsets.  Normal forms are also recomputed by a
two-phase algorithm (reduce to a geodesic, then sort it greedily), which
shares no code with the one-pass step in ``rcoxeter.words``.  Davis balls
are rebuilt by a breadth-first search that finds vertices and cubes with
``multiply`` instead of the shortlex automaton of ``rcoxeter.davis``.
Expected values frozen into the tests were produced by these routines.
"""

from __future__ import annotations

import itertools
import random

from rcoxeter import (
    IDENTITY,
    Ball,
    Cube,
    DefiningGraph,
    ResourceCapError,
    all_cliques,
    canonical_cube,
    cubes_at_vertex,
    generator_matrix,
    identity_matrix,
    matrix_product,
    maximum_spherical,
    multiply,
)


def shortlex_class_table(graph: DefiningGraph, max_len: int):
    """Map each reachable matrix to the shortlex-least word producing it.

    Words are enumerated in shortlex order (length first, then
    lexicographically), so the first word hitting a matrix is the normal
    form of every word with that matrix.  Returns (table, words) where
    words lists every enumerated word with its matrix.
    """
    gens = [generator_matrix(g, graph) for g in range(graph.n)]
    table = {identity_matrix(graph.n): ()}
    words = [((), identity_matrix(graph.n))]
    level = [((), identity_matrix(graph.n))]
    for _ in range(max_len):
        nxt = []
        for word, matrix in level:
            for g in range(graph.n):
                pair = (word + (g,), matrix_product(matrix, gens[g]))
                nxt.append(pair)
                words.append(pair)
                table.setdefault(pair[1], pair[0])
        level = nxt
    return table, words


def matrix_ball_sphere_sizes(graph: DefiningGraph, radius: int) -> list[int]:
    """Sphere sizes of the Cayley graph, by breadth-first search on matrices."""
    gens = [generator_matrix(g, graph) for g in range(graph.n)]
    seen = {identity_matrix(graph.n)}
    level = list(seen)
    sizes = [1]
    for _ in range(radius):
        nxt = set()
        for matrix in level:
            for gen in gens:
                product = matrix_product(matrix, gen)
                if product not in seen:
                    nxt.add(product)
        seen |= nxt
        sizes.append(len(nxt))
        level = list(nxt)
    return sizes


def brute_force_cliques(graph: DefiningGraph) -> set[tuple[int, ...]]:
    """All cliques by filtering every subset of the generators."""
    out = set()
    for size in range(graph.n + 1):
        for subset in itertools.combinations(range(graph.n), size):
            if all(graph.adjacent(a, b) for a, b in itertools.combinations(subset, 2)):
                out.add(subset)
    return out


def brute_force_maximum_clique(graph: DefiningGraph) -> tuple[int, ...]:
    """Largest clique, ties broken by least sorted index tuple."""
    cliques = brute_force_cliques(graph)
    best = max(len(c) for c in cliques)
    return min(c for c in cliques if len(c) == best)


def random_graph(rng: random.Random, max_vertices: int = 7) -> DefiningGraph:
    """A random defining graph on 1..max_vertices generators."""
    n = rng.randint(1, max_vertices)
    labels = tuple(f"g{i}" for i in range(n))
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return DefiningGraph.from_edges(labels, edges)


def _append_letter(out: list[int], g: int, masks: tuple[int, ...]) -> None:
    """Append generator ``g`` to the geodesic word ``out``, in place.

    Scans from the right for an occurrence of ``g`` that commutes with
    everything after it; such an occurrence exists in one geodesic of the
    element exactly when it exists in all of them, so cancelling it is
    safe whatever representative ``out`` happens to be.
    """
    gbit = 1 << g
    i = len(out) - 1
    while i >= 0:
        letter = out[i]
        if letter == g:
            del out[i]
            return
        if not masks[letter] & gbit:
            break
        i -= 1
    out.append(g)


def _lex_minimize(word: list[int], masks: tuple[int, ...]) -> list[int]:
    """Least representative of a geodesic word under commuting swaps.

    Greedily fronts the smallest letter whose whole left context commutes
    with it; a letter occurrence is movable to the front exactly when no
    earlier letter blocks it, so one left-to-right sweep per output letter
    suffices.
    """
    out = []
    while word:
        blocked = 0
        best = -1
        best_pos = -1
        for pos, x in enumerate(word):
            if not blocked >> x & 1 and (best < 0 or x < best):
                best, best_pos = x, pos
            # letters that do not commute with x (x itself included) can
            # no longer reach the front
            blocked |= ~masks[x]
        out.append(best)
        del word[best_pos]
    return out


def two_phase_normal_form(letters, graph: DefiningGraph) -> tuple[int, ...]:
    """Shortlex normal form by the two-phase algorithm: reduce to a
    geodesic letter by letter, then sort it once with ``_lex_minimize``.
    Costs O(k^2) for a word of length k."""
    masks = graph.neighbor_masks
    out: list[int] = []
    for g in letters:
        _append_letter(out, g, masks)
    return tuple(_lex_minimize(out, masks))


def two_phase_multiply(x, y, graph: DefiningGraph) -> tuple[int, ...]:
    """Normal form of x*y by the two-phase algorithm; x need only be a
    geodesic."""
    masks = graph.neighbor_masks
    out = list(x)
    for g in y:
        _append_letter(out, g, masks)
    return tuple(_lex_minimize(out, masks))


def bfs_ball(graph: DefiningGraph, radius: int, max_vertices: int = 1_000_000) -> Ball:
    """The ball found by breadth-first search with set deduplication.

    Vertices are the products w*g of the previous sphere that grow longer
    and are new; the cube (w, T) is kept when every t in T is an ascent of
    w, i.e. w*t is longer, and w*W_T fits inside the radius.  Both lists
    are then sorted.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if max_vertices < 1:
        raise ResourceCapError(max_vertices, -1)
    levels = [[IDENTITY]]
    seen = {IDENTITY}
    total = 1
    for r in range(1, radius + 1):
        frontier = set()
        for w in levels[r - 1]:
            for g in range(graph.n):
                u = multiply(w, (g,), graph)
                if len(u) == r and u not in seen:
                    frontier.add(u)
        total += len(frontier)
        if total > max_vertices:
            raise ResourceCapError(max_vertices, r - 1)
        seen.update(frontier)
        levels.append(sorted(frontier))
    vertices = tuple(w for level in levels for w in level)

    cliques = all_cliques(graph)
    cubes = []
    for w in vertices:
        for clique in cliques:
            if len(w) + len(clique) > radius:
                continue
            if all(len(multiply(w, (t,), graph)) == len(w) + 1 for t in clique):
                cubes.append(Cube(w, clique))
    cubes.sort(key=Cube.sort_key)
    reliable = radius - len(maximum_spherical(graph))
    return Ball(graph, radius, vertices, tuple(cubes), reliable)


def cubes_through(ball: Ball, v) -> dict[int, tuple[Cube, ...]]:
    """Stored cubes containing v, grouped by dimension and in sort-key order.

    The cube with axis T that contains v is the coset v*W_T, so it is found
    by canonicalizing that coset for every clique T, without the ball's
    per-vertex index.
    """
    found = []
    for T in all_cliques(ball.graph):
        cube = canonical_cube(v, T, ball.graph)
        if ball.has_cube(cube):
            found.append(cube)
    found.sort(key=Cube.sort_key)
    grouped: dict[int, list[Cube]] = {}
    for cube in found:
        grouped.setdefault(cube.dimension, []).append(cube)
    return {dim: tuple(cubes) for dim, cubes in sorted(grouped.items())}


def assert_same_ball(ball: Ball, oracle: Ball) -> None:
    """Equal vertices, cubes and censuses, and equal cubes at every vertex,
    boundary vertices included."""
    assert ball.vertices == oracle.vertices
    assert ball.cubes == oracle.cubes
    assert ball.cell_counts() == oracle.cell_counts()
    assert ball.reliable_radius == oracle.reliable_radius
    for v in oracle.vertices:
        assert cubes_at_vertex(ball, v) == cubes_through(oracle, v)

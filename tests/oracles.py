"""Independent oracles the tests check the library against.

Everything here deliberately avoids the normal-form machinery: group
elements are identified by their exact reflection matrices, which are
computed by plain matrix products over raw words.  Clique enumeration is
redone by filtering all subsets, and ``listed_clique_counts`` counts
cliques by size with one extension mask per clique, where the library
merges cliques with equal masks.  ``maximal_clique_masks`` lists every
maximal clique by Bron-Kerbosch with pivoting, and
``listed_maximum_clique`` takes the least largest of them, where the
library finds a maximum clique by a branch-and-bound search that lists
none.  ``recursive_chamber_complex`` grows the chains of the spherical
poset by a recursion over successor lists and sorts them, where the
library lists them as cliques.  Normal forms are also recomputed by a two-phase algorithm (reduce
to a geodesic, then sort it greedily), which
shares no code with the one-pass step in ``rcoxeter.words``.  Davis balls
are rebuilt by a breadth-first search that finds vertices and cubes with
``multiply`` instead of the shortlex automaton of ``rcoxeter.davis``.  The
conjugates, invariant cubes and displacement profile of the involution are
recomputed by walking an enumerated ball, where the library enumerates
no vertex.  ``subset_invariant_cubes`` and ``gray_code_antipodal`` keep
the library's former search over every subset of the clique, where it
now makes one conjugation or product per generator.  The library
counts the displacements of each sphere by left descents off the growth
series and looks for invariant cubes in the clique's subgroup alone;
``sphere_states`` and ``multiply_walk`` redo both the way it was done
before, in one walk that multiplies out every vertex's conjugate,
``bitmask_walk`` reads each displacement off two bitmasks per automaton
state, the way the library did before it read the profile off the growth
series, ``left_descents`` finds left descents by multiplication, and
``closed_form_spheres`` counts each sphere's displacements from the
growth series by inclusion-exclusion.  ``sphere_states`` and
``bitmask_walk`` walk ``automaton_spheres``, the shortlex-automaton walker
that was ``davis._spheres`` before ``build_ball`` ran the automaton
itself, so a change to the library's step rule no longer reaches them.
``state_census`` walks the same automaton with merged states, each with
the number of words it stands for, and so counts the spheres, cubes and
displacements of balls far too large to enumerate, without the growth
series or the library's clique counts.  Canonical cubes are recomputed by
greedy right multiplication, where the library deletes descents in one
pass; ``per_letter_canonical_cube`` keeps the library's former scan, one
per axis letter, where the library now makes one scan for all of them.
Exports are re-serialized the way the library did before it built
each vertex text from its parent's: one ``json.dumps`` of the whole
payload and one label join per word.  The flag condition is rechecked
the way the library did before it read square bitmasks, with every
subset of the edges at a vertex tried in turn.  Helpers only the tests
use (a determinant, the maximal elements of the spherical poset, the cube
sort key, a census that hands its receiver one wrong q) live here too,
and so do three former library names that lost their last caller there:
``cube_vertices`` (once ``Cube.vertices``), ``conjugates`` and
``displacement``.  Expected values frozen into the
tests were produced by these routines.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from math import comb
from operator import sub
from typing import Callable, Iterator, NamedTuple

from rcoxeter import (
    IDENTITY,
    Ball,
    ChamberComplex,
    Clique,
    Cube,
    DefiningGraph,
    DisplacementProfile,
    FlagCheckReport,
    FlagViolation,
    Involution,
    Matrix,
    ResourceCapError,
    SphericalPoset,
    Word,
    all_cliques,
    conjugate,
    cubes_at_vertex,
    generator_matrix,
    identity_matrix,
    matrix_product,
    maximum_spherical,
    multiply,
    sphere,
    support,
    word_to_text,
)
from rcoxeter.growth import _census, _growth_columns
from rcoxeter.graphs import _bits
from rcoxeter.spherical import _clique_counts, _clique_levels, _mask_of


def determinant(matrix: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def maximal_elements(poset: SphericalPoset) -> tuple[Clique, ...]:
    """The elements of the spherical poset below no other one: exactly the
    maximal cliques of the defining graph."""
    return tuple(
        a
        for a in poset.elements
        if not any(a != b and set(a) <= set(b) for b in poset.elements)
    )


def cube_sort_key(cube: Cube):
    """The order of ``Ball.cubes``: base length, then base, then axis."""
    return (len(cube.base), cube.base, cube.axis)


def cube_vertices(cube: Cube, graph: DefiningGraph) -> tuple[Word, ...]:
    """The 2^k vertices of a cube, its base times each subset of its axis,
    by one ``multiply`` per vertex; the library's ``Ball`` walks each
    ascent edge once instead."""
    out = [cube.base]
    for g in cube.axis:
        out.extend(multiply(w, (g,), graph) for w in list(out))
    return tuple(out)


def greedy_canonical_cube(g: Word, axis, graph: DefiningGraph) -> Cube:
    """The canonical form of the coset cube g*W_axis, by greedy rounds of
    right multiplication by axis generators while that shortens the
    representative, until a round shortens nothing."""
    axis = tuple(sorted(set(axis)))
    base = g
    shrinking = True
    while shrinking:
        shrinking = False
        for t in axis:
            shorter = multiply(base, (t,), graph)
            if len(shorter) < len(base):
                base = shorter
                shrinking = True
    return Cube(base, axis)


def per_letter_canonical_cube(g: Word, axis, graph: DefiningGraph) -> Cube:
    """``canonical_cube`` the way the library did it before its one pass
    from the right: each axis letter in turn is checked to be a clique
    member, then the base is scanned from the right over the letters
    commuting with it, and the occurrence the scan stops at is deleted when
    it is that letter."""
    axis = tuple(sorted(set(axis)))
    bits = _mask_of(axis, graph.n)
    masks = graph.neighbor_masks
    base = g
    for t in axis:
        tmask = masks[t]
        if bits & ~tmask != 1 << t:
            raise ValueError(f"axis {axis!r} is not a clique of the defining graph")
        i = len(base)
        while i:
            i -= 1
            letter = base[i]
            if not tmask >> letter & 1:
                if letter == t:
                    base = base[:i] + base[i + 1 :]
                break
    return Cube(base, axis)


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


def listed_clique_counts(n: int, masks: tuple[int, ...]) -> Iterator[int]:
    """``spherical._clique_counts`` as it was before it merged equal
    extension masks: one mask per clique, in a list, so a size of K_n holds
    C(n, d) masks.  Each size is counted from its parents' masks."""
    level = [(1 << n) - 1]
    yield 1
    while True:
        size = sum(above.bit_count() for above in level)
        if not size:
            return
        yield size
        level = [
            above & masks[v] >> v + 1 << v + 1 for above in level for v in _bits(above)
        ]


def maximal_clique_masks(n: int, masks: tuple[int, ...]) -> list[int]:
    """Every maximal clique as a bitmask, by Bron-Kerbosch with pivoting:
    the search ``maximum_spherical`` made before it grew cliques in
    lexicographic order, listing them all to take the least largest."""
    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            return
        pivot = max(_bits(p | x), key=lambda v: (p & masks[v]).bit_count())
        for v in _bits(p & ~masks[pivot]):
            bit = 1 << v
            expand(r | bit, p & masks[v], x & masks[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << n) - 1, 0)
    return found


def listed_maximum_clique(graph: DefiningGraph) -> tuple[int, ...]:
    """The lexicographically least of the largest cliques that
    ``maximal_clique_masks`` lists."""
    masks = maximal_clique_masks(graph.n, graph.neighbor_masks)
    return min((tuple(_bits(mask)) for mask in masks), key=lambda c: (-len(c), c))


def recursive_chamber_complex(poset: SphericalPoset) -> ChamberComplex:
    """``spherical.chamber_complex`` as it was before it listed the chains as
    cliques: each element's successors are the later elements that strictly
    contain it, each chain grows by a successor of its last element, and
    the chains are sorted by size, then by element rank."""
    elements = poset.elements
    successors = [
        [j for j in range(i + 1, len(elements)) if set(elements[i]) < set(elements[j])]
        for i in range(len(elements))
    ]
    chains: list[tuple[int, ...]] = []

    def grow(chain: list[int]) -> None:
        chains.append(tuple(chain))
        for j in successors[chain[-1]]:
            chain.append(j)
            grow(chain)
            chain.pop()

    for i in range(len(elements)):
        grow([i])
    chains.sort(key=lambda c: (len(c), c))
    simplices = tuple(tuple(elements[i] for i in chain) for chain in chains)
    return ChamberComplex(poset, simplices)


def moon_moser_graph(m: int) -> DefiningGraph:
    """K_{3,...,3} with m parts: generators 3i, 3i+1 and 3i+2 form part i,
    and two generators commute when their parts differ.  Its 3^m maximal
    cliques, one generator from each part, are the most an n = 3m graph
    can have (Moon and Moser, 1965)."""
    labels = tuple(f"m{i}" for i in range(3 * m))
    return DefiningGraph.from_edges(
        labels,
        [(a, b) for i, a in enumerate(labels) for b in labels[i // 3 * 3 + 3 :]],
    )


def lex_cliques(graph: DefiningGraph, radius: int) -> list[tuple[Clique, int]]:
    """The cliques of at most ``radius`` generators with their bitmasks, in
    lexicographic order, from ``brute_force_cliques``."""
    return sorted(
        (c, sum(1 << t for t in c)) for c in brute_force_cliques(graph) if len(c) <= radius
    )


def brute_force_maximum_clique(graph: DefiningGraph) -> tuple[int, ...]:
    """Largest clique, ties broken by least sorted index tuple."""
    cliques = brute_force_cliques(graph)
    best = max(len(c) for c in cliques)
    return min(c for c in cliques if len(c) == best)


def random_graph(
    rng: random.Random,
    max_vertices: int = 7,
    density: float = 0.5,
    min_vertices: int = 1,
) -> DefiningGraph:
    """A random defining graph on min_vertices..max_vertices generators,
    each pair commuting with probability ``density``."""
    n = rng.randint(min_vertices, max_vertices)
    labels = tuple(f"g{i}" for i in range(n))
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
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
    cubes.sort(key=cube_sort_key)
    reliable = radius - len(maximum_spherical(graph))
    return Ball(graph, radius, vertices, tuple(cubes), reliable)


def cubes_through(ball: Ball, v) -> dict[int, tuple[Cube, ...]]:
    """Stored cubes containing v, grouped by dimension and in sort-key order.

    The cube with axis T that contains v is the coset v*W_T, so it is found
    by canonicalizing that coset greedily for every clique T, without the
    ball's per-vertex index or the library's ``canonical_cube``.
    """
    stored = set(ball.cubes)
    found = []
    for T in all_cliques(ball.graph):
        cube = greedy_canonical_cube(v, T, ball.graph)
        if cube in stored:
            found.append(cube)
    found.sort(key=cube_sort_key)
    grouped: dict[int, list[Cube]] = {}
    for cube in found:
        grouped.setdefault(cube.dimension, []).append(cube)
    return {dim: tuple(cubes) for dim, cubes in sorted(grouped.items())}


def reference_flag_check(ball: Ball) -> FlagCheckReport:
    """``links_flag_check`` the way the library did it before it read square
    bitmasks: at every vertex within the reliable radius, the sorted edge
    generators, the set of square axes, and every subset of three or more
    edges in size-then-lexicographic order whose pairs all span squares.
    Such a subset's cube is looked up, canonicalized greedily, in the set of
    stored cubes; the library's clique enumeration, ``canonical_cube`` and
    ``has_cube`` are not used.
    """
    stored = set(ball.cubes)
    checked = 0
    for v in ball.vertices:
        if len(v) > ball.reliable_radius:
            continue
        checked += 1
        at_v = cubes_at_vertex(ball, v)
        edge_gens = sorted(cube.axis[0] for cube in at_v.get(1, ()))
        square_pairs = {cube.axis for cube in at_v.get(2, ())}
        for size in range(3, len(edge_gens) + 1):
            for axis in itertools.combinations(edge_gens, size):
                pairs = itertools.combinations(axis, 2)
                if not all(pair in square_pairs for pair in pairs):
                    continue
                if greedy_canonical_cube(v, axis, ball.graph) not in stored:
                    return FlagCheckReport(False, (FlagViolation(v, axis),), checked)
    return FlagCheckReport(True, (), checked)


def assert_same_ball(ball: Ball, oracle: Ball) -> None:
    """Equal vertices, cubes and censuses, and equal cubes at every vertex,
    boundary vertices included."""
    assert ball.vertices == oracle.vertices
    assert ball.cubes == oracle.cubes
    assert ball.cell_counts() == oracle.cell_counts()
    assert ball.reliable_radius == oracle.reliable_radius
    for v in oracle.vertices:
        assert cubes_at_vertex(ball, v) == cubes_through(oracle, v)


def automaton_spheres(
    graph: DefiningGraph, radius: int, extra, carry: Callable
) -> Iterator[Counter]:
    """Yield the spheres 0..radius of shortlex-automaton states, stopping at
    the first empty one.  This is the walker ``davis._spheres`` was before
    ``build_ball`` ran the automaton itself.

    A state is (blocked, descents, extra) for a normal form w.  ``blocked``
    holds the generators x for which w*x is not a longer normal form, and
    ``descents`` the x that shorten w.  Extending a sphere in shortlex order
    by the unblocked letters in ascending order lists the next sphere once
    and in shortlex order.  ``extra`` is the caller's: the identity carries
    the given one, and w*x carries ``carry(extra of w, x)``.  A sphere is a
    ``Counter`` of states, each with the number of normal forms it stands
    for; a walk whose ``extra`` holds the word merges no two states, so its
    spheres keep the shortlex order.
    """
    if radius < 0:
        return
    masks = graph.neighbor_masks
    letters = [(x, 1 << x) for x in range(graph.n)]
    level = Counter({(0, 0, extra): 1})
    yield level
    for _ in range(radius):
        # After w*x, x is blocked, and so is each letter commuting with x
        # that was blocked or is smaller than x; the descents are x and
        # the descents of w commuting with x.
        nxt: Counter = Counter()
        for (blocked, descents, extra), count in level.items():
            for x, bit in letters:
                if not blocked & bit:
                    state = (
                        bit | masks[x] & (blocked | bit - 1),
                        bit | descents & masks[x],
                        carry(extra, x),
                    )
                    nxt[state] += count
        if not nxt:
            return
        yield nxt
        level = nxt


def sphere_states(inv: Involution, ball):
    """Yield the spheres 0, 1, ... up to the reliable radius of a ball or
    census, as lists of ``(word, blocked, descents, conj)`` automaton
    states in shortlex order, where conj is word^-1 * gamma * word.

    The automaton is ``automaton_spheres``; each state carries its word and
    its conjugate, and the conjugate by w*x is x times the conjugate by w
    times x, one ``multiply`` of a word about as long as the conjugate.
    This is how the library walked the spheres before it read the
    displacement off left descents.
    """
    graph = ball.graph

    def step(extra, x):
        w, conj = extra
        return w + (x,), multiply((x,), conj + (x,), graph)

    start = (IDENTITY, inv.element)
    for level in automaton_spheres(graph, ball.radius - inv.n, start, step):
        yield [(w, blocked, descents, conj) for blocked, descents, (w, conj) in level]


class MultiplyWalk(NamedTuple):
    """What ``multiply_walk`` keeps: the (min, max, sum, count) of the
    displacements over each nonempty sphere up to the reliable radius, and
    the invariant cubes in ``Ball.cubes`` order."""

    spheres: tuple[tuple[int, int, int, int], ...]
    cubes: tuple[Cube, ...]


def multiply_walk(inv: Involution, ball) -> MultiplyWalk:
    """The one walk the library shared between the profile and the fixed
    loci before it read the displacement off left descents: every state's
    conjugate from ``sphere_states``, its length for the statistics, and
    every conjugate no longer than the clique tested for invariant cubes,
    on every sphere."""
    cliques = lex_cliques(ball.graph, ball.radius)
    spheres = []
    found: list[Cube] = []
    for r, level in enumerate(sphere_states(inv, ball)):
        lengths = [len(conj) for _, _, _, conj in level]
        spheres.append((min(lengths), max(lengths), sum(lengths), len(lengths)))
        fitting = [(c, mask) for c, mask in cliques if len(c) <= ball.radius - r]
        for w, _, descents, conj in level:
            if len(conj) > inv.n:
                continue
            flips = sum(1 << g for g in set(conj))
            found.extend(
                Cube(w, c)
                for c, mask in fitting
                if not mask & descents and not flips & ~mask
            )
    return MultiplyWalk(tuple(spheres), tuple(found))


def profile_of(spheres) -> DisplacementProfile:
    """The profile of each sphere's (min, max, sum, count), the mean being
    sum / count."""
    return DisplacementProfile(
        tuple(range(len(spheres))),
        tuple(low for low, _, _, _ in spheres),
        tuple(high for _, high, _, _ in spheres),
        tuple(total / count for _, _, total, count in spheres),
    )


def histogram_stats(histogram: dict[int, int]) -> tuple[int, int, int, int]:
    """The (min, max, sum, count) of the values a histogram counts."""
    return (
        min(histogram),
        max(histogram),
        sum(value * count for value, count in histogram.items()),
        sum(histogram.values()),
    )


def _displacements(level: Counter, r: int, k: int) -> dict[int, int]:
    """The histogram of displacements over sphere r, whose states carry
    LD(w) & C first in their extra: a vertex with m left descents in the
    clique C of k generators moves by 2r + k - 2m."""
    moved: Counter = Counter()
    for (_, _, (ld, _)), count in level.items():
        moved[2 * r + k - 2 * ld.bit_count()] += count
    return dict(moved)


def bitmask_walk(inv: Involution, ball) -> tuple:
    """``multiply_walk(...).spheres`` from a walk of ``automaton_spheres``
    whose states carry two bitmasks and no word, the way the library read
    the profile before it read it off the growth series.

    Each state carries LD(w) & C and the support of w.  An ascent w -> w*x
    adds x to the left descents exactly when x is in C and every letter of
    w commutes with x, and a vertex with m of them moves by 2r + k - 2m.
    """
    graph = ball.graph
    masks = graph.neighbor_masks
    k = inv.n
    cmask = sum(1 << g for g in inv.clique)

    def step(state, x):
        ld, supp = state
        bit = 1 << x
        if bit & cmask and not supp & ~masks[x]:
            ld |= bit
        return ld, supp | bit

    levels = enumerate(automaton_spheres(graph, ball.radius - k, (0, 0), step))
    return tuple(histogram_stats(_displacements(level, r, k)) for r, level in levels)


class StateCensus(NamedTuple):
    """What ``state_census`` counts in the ball of radius R: the size of
    each nonempty sphere, the cubes of the ball by dimension, and for each
    nonempty sphere up to R - k the histogram of its displacements."""

    sphere_sizes: tuple[int, ...]
    cells_by_dimension: tuple[int, ...]
    displacements: tuple[dict[int, int], ...]


def state_census(graph: DefiningGraph, radius: int) -> StateCensus:
    """Count the ball of a radius by automaton state, with multiplicity.

    The next sphere depends only on the states of this one, not on the
    words, so ``automaton_spheres`` merges the words that share a state and
    counts them: the transfer-matrix count of an automaton's words (Epstein
    et al., *Word Processing in Groups*).  Besides blocked and descents a
    state carries LD(w) & C and the generators of the maximum clique C that
    commute with every letter of w; w*x adds x to the left descents exactly
    when x is one of the latter.  Sphere r bases one d-cube at each vertex
    per clique of d <= R - r generators, from ``brute_force_cliques``, that
    misses its descents, and a vertex with m left descents in C moves by
    2r + k - 2m.  Neither the growth series nor the library's clique counts
    are used, so this checks them at radii no enumeration reaches.
    """
    masks = graph.neighbor_masks
    clique = brute_force_maximum_clique(graph)
    k = len(clique)
    cliques = [(len(c), sum(1 << g for g in c)) for c in brute_force_cliques(graph)]

    def step(state, x):
        ld, near = state
        return ld | 1 << x & near, near & masks[x]

    sizes = []
    cells = [0] * (min(k, radius) + 1)
    histograms = []
    start = (0, sum(1 << g for g in clique))
    for r, level in enumerate(automaton_spheres(graph, radius, start, step)):
        sizes.append(sum(level.values()))
        by_descents: Counter = Counter()
        for (_, descents, _), count in level.items():
            by_descents[descents] += count
        for descents, count in by_descents.items():
            for d, mask in cliques:
                if d <= radius - r and not mask & descents:
                    cells[d] += count
        if r <= radius - k:
            histograms.append(_displacements(level, r, k))
    return StateCensus(tuple(sizes), tuple(cells), tuple(histograms))


def left_descents(w: Word, graph: DefiningGraph) -> set[int]:
    """The generators s with |s * w| < |w|, one ``multiply`` each."""
    return {s for s in range(graph.n) if len(multiply((s,), w, graph)) < len(w)}


def closed_form_spheres(graph: DefiningGraph, radius: int) -> tuple:
    """``multiply_walk(...).spheres`` with no enumeration, from the growth
    series.

    Column l of ``growth._growth_columns`` has in entry k - j the number of
    elements of length at most l with no left descent in a given j-subset S
    of the maximum clique C (the count is the same for right descents, by
    inversion), so col_l, column l less column l - 1, counts those of
    length exactly l.  The elements of length r whose left descents contain
    S are gamma_S * u for those u of length r - j, so by inclusion-exclusion

        E_m(r) = sum over j >= m of (-1)^(j-m) C(j, m) C(k, j) col_{r-j}[k-j]

    counts the elements of length r with exactly m left descents in C.
    Each moves by 2r + k - 2m, which gives the min, max, sum and count of
    each nonempty sphere up to the reliable radius ``radius - k``.
    """
    k = len(maximum_spherical(graph))
    by_size = list(_clique_counts(graph.n, graph.neighbor_masks))
    cumulative = list(itertools.islice(_growth_columns(by_size), max(radius - k + 1, 0)))
    previous = [[0] * (k + 1)] + cumulative
    columns = [list(map(sub, b, a)) for a, b in zip(previous, cumulative)]
    spheres = []
    for r, column in enumerate(columns):
        if not column[k]:
            break
        exactly = [
            sum(
                (-1) ** (j - m) * comb(j, m) * comb(k, j) * columns[r - j][k - j]
                for j in range(m, min(k, r) + 1)
            )
            for m in range(k + 1)
        ]
        present = [m for m, count in enumerate(exactly) if count]
        far = 2 * r + k
        spheres.append(
            (
                far - 2 * present[-1],
                far - 2 * present[0],
                sum(count * (far - 2 * m) for m, count in enumerate(exactly)),
                column[k],
            )
        )
    return tuple(spheres)


def conjugates(inv: Involution, ball) -> dict:
    """Map every vertex v of a ball or census within its reliable radius to
    v^-1 * gamma * v, read off the multiply walk ``sphere_states``."""
    return {w: conj for level in sphere_states(inv, ball) for w, _, _, conj in level}


def displacement(inv: Involution, v: Word, graph: DefiningGraph) -> int:
    """Distance from v to gamma*v: the length of v^-1 * gamma * v."""
    return len(conjugate(v, inv.element, graph))


def walked_conjugates(inv: Involution, ball: Ball) -> dict:
    """Map every vertex v of an enumerated ball within its reliable radius
    to v^-1 * gamma * v.

    Walks ``ball.vertices`` in shortlex order.  The prefix v[:-1] of a
    normal form is a normal form that comes earlier in that order, so its
    conjugate is already known, and the conjugate by v = u*x is
    x * conj(u) * x.
    """
    graph = ball.graph
    out: dict = {}
    for v in ball.vertices:
        if len(v) > ball.reliable_radius:
            break
        out[v] = conjugate(v[-1:], out[v[:-1]], graph) if v else inv.element
    return out


def filtered_invariant_cubes(inv: Involution, ball: Ball) -> tuple[Cube, ...]:
    """The stored cubes (g, T) based within the reliable radius whose
    conjugate g^-1 * gamma * g has its support in T."""
    conj = walked_conjugates(inv, ball)
    return tuple(
        cube
        for cube in ball.cubes
        if cube.base in conj and support(conj[cube.base]) <= set(cube.axis)
    )


def _support_mask(word: Word) -> int:
    """The generators of a word, as a bitmask."""
    mask = 0
    for g in word:
        mask |= 1 << g
    return mask


def _near(mask: int, graph: DefiningGraph) -> int:
    """The generators in, or adjacent to, every generator of the mask."""
    near = (1 << graph.n) - 1
    for g in range(graph.n):
        if mask >> g & 1:
            near &= graph.neighbor_masks[g] | 1 << g
    return near


def subset_invariant_cubes(inv: Involution, ball) -> tuple[Cube, ...]:
    """``invariant_cubes`` the way the library did before it made one
    conjugation per generator: a search over the at most 2^k subsets S of
    the maximal clique, each conjugated through this module's
    ``conjugate``.

    Each S is its own normal form and its descents are S.  The cube (S, T)
    is invariant iff T misses S and the support of S^-1 * gamma * S, the
    flips, is contained in T.  So the axes tried are the flips, when they
    form a clique missing S, joined with each clique ``_clique_levels``
    lists from the generators adjacent to every flip and in neither S nor
    the flips, no longer than the radius left; they are sorted
    lexicographically.
    """
    graph = ball.graph
    found: list[Cube] = []
    for r in range(min(inv.n, ball.radius - inv.n) + 1):
        room = ball.radius - r
        for base in itertools.combinations(inv.clique, r):
            descents = _support_mask(base)
            flips = _support_mask(conjugate(base, inv.element, graph))
            near = _near(flips, graph)
            if flips & ~near or flips & descents:
                continue
            # An axis has at most ``room`` generators, and no clique more
            # than n: the smaller bound keeps islice's stop an index.
            flipped = tuple(_bits(flips))
            levels = itertools.islice(
                _clique_levels(graph.n, graph.neighbor_masks, near & ~flips & ~descents),
                min(room, graph.n) + 1 - len(flipped),
            )
            axes = [tuple(sorted(flipped + c)) for level in levels for c, _ in level]
            found.extend(Cube(base, axis) for axis in sorted(axes))
    return tuple(found)


def gray_code_antipodal(inv: Involution, graph: DefiningGraph) -> bool:
    """``antipodal_check`` the way the library did before it checked the
    generators alone: every element of W_C times gamma, the subsets
    visited in Gray-code order, each one letter away from the last, so
    that each product is the previous one times one generator through
    this module's ``multiply``."""
    clique = inv.clique
    product, bits, full = inv.element, 0, _support_mask(clique)
    for step in range(1, 1 << len(clique)):
        if _support_mask(product) != full ^ bits:
            return False
        g = clique[(step & -step).bit_length() - 1]
        product = multiply(product, (g,), graph)
        bits ^= 1 << g
    return _support_mask(product) == full ^ bits


def walked_profile(inv: Involution, ball: Ball) -> DisplacementProfile:
    """Displacement per nonempty sphere up to the reliable radius, read off
    the enumerated ball's spheres."""
    conj = walked_conjugates(inv, ball)
    radii, mins, maxs, means = [], [], [], []
    for r in range(max(ball.reliable_radius, -1) + 1):
        vertices = sphere(ball, r)
        if not vertices:
            break
        values = [len(conj[v]) for v in vertices]
        radii.append(r)
        mins.append(min(values))
        maxs.append(max(values))
        means.append(sum(values) / len(values))
    return DisplacementProfile(tuple(radii), tuple(mins), tuple(maxs), tuple(means))


def complete_graph(n: int) -> DefiningGraph:
    """K_n: the defining graph of the finite group (Z/2)^n."""
    labels = tuple(f"x{i}" for i in range(n))
    return DefiningGraph.from_edges(
        labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    )


def complete_graph_file(directory, n: int) -> str:
    """Write K_n in the text format to a file in ``directory``; return its path."""
    labels = [f"x{i}" for i in range(n)]
    path = directory / f"k{n}.txt"
    path.write_text(
        " ".join(labels) + "\n"
        + "".join(f"{a} {b}\n" for i, a in enumerate(labels) for b in labels[i + 1 :])
    )
    return str(path)


def reference_export(ball: Ball, format: str) -> str:
    """``export_complex`` as one ``json.dumps`` of a payload of dicts, or a
    DOT graph whose labels are joined word by word and not escaped."""
    graph = ball.graph
    if format == "json":
        payload = {
            "radius": ball.radius,
            "reliable_radius": ball.reliable_radius,
            "vertices": [word_to_text(w, graph) for w in ball.vertices],
            "cubes": [
                {
                    "base": word_to_text(c.base, graph),
                    "axis": [graph.labels[g] for g in c.axis],
                }
                for c in ball.cubes
                if c.dimension > 0
            ],
        }
        return json.dumps(payload) + "\n"
    if format == "dot":
        index = {w: i for i, w in enumerate(ball.vertices)}
        lines = ["graph davis_ball {"]
        for w in ball.vertices:
            label = word_to_text(w, graph) or "1"
            lines.append(f'  n{index[w]} [label="{label}"];')
        for cube in ball.cubes:
            if cube.dimension != 1:
                continue
            a = index[cube.base]
            b = index[multiply(cube.base, cube.axis, graph)]
            lines.append(f"  n{a} -- n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {format!r}")


def corrupted_census(index: int, value: int) -> Callable:
    """``growth._census``, but its receiver is handed ``value`` in place of
    q_index; the census it returns is the real one.  No real series has a
    q <= 0 where ``certify`` reads, so its bound check is failed this way."""

    def census(graph, radius, max_vertices, k, receive, c=None):
        received = itertools.count()
        return _census(
            graph,
            radius,
            max_vertices,
            k,
            lambda q: receive(value if next(received) == index else q),
            c,
        )

    return census

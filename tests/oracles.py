"""Independent oracles the tests check the library against.

Everything here deliberately avoids the normal-form machinery: group
elements are identified by their exact reflection matrices, which are
computed by plain matrix products over raw words.  Clique enumeration is
redone by filtering all subsets.  Normal forms are also recomputed by a
two-phase algorithm (reduce to a geodesic, then sort it greedily), which
shares no code with the one-pass step in ``rcoxeter.words``.  Davis balls
are rebuilt by a breadth-first search that finds vertices and cubes with
``multiply`` instead of the shortlex automaton of ``rcoxeter.davis``.  The
conjugates, invariant cubes and displacement profile of the involution are
recomputed by walking an enumerated ball, where the library enumerates
no vertex.  The library counts the displacements of each sphere by left
descents off the growth series and looks for invariant cubes in the
clique's subgroup alone; ``sphere_states`` and ``multiply_walk`` redo both the way it was
done before, in one walk that multiplies out every vertex's conjugate,
``bitmask_walk`` reads each displacement off two bitmasks per automaton
state, the way the library did before it read the profile off the growth
series, ``left_descents`` finds left descents by multiplication, and
``closed_form_spheres`` counts each sphere's displacements from the
growth series by inclusion-exclusion.  Canonical cubes are recomputed by
greedy right multiplication, where the library deletes descents in one
pass.  Exports are re-serialized the way the library did before it built
each vertex text from its parent's: one ``json.dumps`` of the whole
payload and one label join per word.  The flag condition is rechecked
the way the library did before it read square bitmasks, with every
subset of the edges at a vertex tried in turn.  Helpers only the tests
use (a determinant, the maximal elements of the spherical poset, the cube
sort key) live here too, and so do three former library names that lost their
last caller there: ``cube_vertices`` (once ``Cube.vertices``),
``conjugates`` and ``displacement``.  Expected values frozen into the
tests were produced by these routines.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb
from typing import NamedTuple

from rcoxeter import (
    IDENTITY,
    Ball,
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
from rcoxeter.davis import _growth_columns, _lex_cliques, _spheres
from rcoxeter.spherical import _clique_counts


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


def sphere_states(inv: Involution, ball):
    """Yield the spheres 0, 1, ... up to the reliable radius of a ball or
    census, as lists of ``(word, blocked, descents, conj)`` automaton
    states in shortlex order, where conj is word^-1 * gamma * word.

    The automaton is ``davis._spheres``; each state carries its word and
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
    for level in _spheres(graph, ball.radius - inv.n, start, step):
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
    cliques = _lex_cliques(ball.graph, ball.radius)
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


def bitmask_walk(inv: Involution, ball) -> tuple:
    """``multiply_walk(...).spheres`` from a walk of ``davis._spheres`` whose
    states carry two bitmasks and no word, the way the library read the
    profile before it read it off the growth series.

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

    spheres = []
    for r, level in enumerate(_spheres(graph, ball.radius - k, (0, 0), step)):
        moved = [2 * r + k - 2 * ld.bit_count() for _, _, (ld, _) in level]
        spheres.append((min(moved), max(moved), sum(moved), len(moved)))
    return tuple(spheres)


def left_descents(w: Word, graph: DefiningGraph) -> set[int]:
    """The generators s with |s * w| < |w|, one ``multiply`` each."""
    return {s for s in range(graph.n) if len(multiply((s,), w, graph)) < len(w)}


def closed_form_spheres(graph: DefiningGraph, radius: int) -> tuple:
    """``multiply_walk(...).spheres`` with no enumeration, from the growth
    series.

    Column l of ``davis._growth_columns`` has in entry k - j the number of
    elements of length l with no left descent in a given j-subset S of the
    maximum clique C (the count is the same for right descents, by
    inversion).  The elements of length r whose left descents contain S
    are gamma_S * u for those u of length r - j, so by inclusion-exclusion

        E_m(r) = sum over j >= m of (-1)^(j-m) C(j, m) C(k, j) col_{r-j}[k-j]

    counts the elements of length r with exactly m left descents in C.
    Each moves by 2r + k - 2m, which gives the min, max, sum and count of
    each nonempty sphere up to the reliable radius ``radius - k``.
    """
    k = len(maximum_spherical(graph))
    by_size = list(_clique_counts(graph.n, graph.neighbor_masks))
    columns = list(itertools.islice(_growth_columns(by_size), max(radius - k + 1, 0)))
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

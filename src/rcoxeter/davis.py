"""Finite balls of the Davis complex in its cube-complex model.

The vertices of the complex are the group elements and the k-cubes are the
cosets g*W_T where T is a k-clique of the defining graph and W_T the finite
subgroup it spans.  Each coset contains a unique element of minimal length,
so a cube is stored canonically as that base element plus its axis clique.
A ball of radius L keeps every vertex of length at most L and every cube
all of whose 2^k vertices lie in that set.

Cells straddling the boundary of a ball are unavoidably missing, so
structural statements are only trusted for bases inside the reliable
radius, L minus the size of a maximum clique: a cube based there has its
whole neighborhood present.

The census of a ball, its size read off the growth series with no vertex
enumerated, lives in ``growth``; ``build_ball`` checks the vertex cap
there first.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import count, islice
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

from .graphs import DefiningGraph
# The census lives in growth; its names stay names of this module too, so
# that code importing them from here keeps working.
from .growth import (  # noqa: F401
    BallCensus,
    Cube,
    ResourceCapError,
    _census,
    _growth_columns,
    ball_census,
)
# all_cliques and maximum_spherical are not called here; they stay names of
# this module because bench/tracing.py wraps them.
from .spherical import (  # noqa: F401
    Clique,
    _clique_levels,
    _mask_of,
    all_cliques,
    maximum_spherical,
)
from .words import IDENTITY, Word, multiply


class Ball:
    """A radius-L ball: shortlex-ordered vertices and complete cubes, sorted
    by base length, then base, then axis.

    A vertex is known by its number, its place in the shortlex order; the
    numbering is kept, and every reader of the ball goes through it.  Each
    number indexes the cubes containing its vertex in one list per
    dimension, 0 up to the top dimension, each list in ``cubes`` order.
    A base's cubes come as one run sharing the base's word, so the base is
    looked up in the numbering once per run; another order, or equal but
    distinct base tuples, only cost more lookups.  A point is filed at its
    base and an edge (b, (g,)) at b and at b*g.  A cube of dimension 2 or
    more walks its vertices, its base times the subsets of its axis,
    reached from the base one axis letter at a time; each such step
    v -> v*g is an ascent, since the axis is a clique that misses the
    base's descents.  Each ascent edge is multiplied once, by the edge or
    the first walk through it, and kept in an ascent table by vertex
    number and generator, so the index costs one ``multiply`` per edge of
    the ball and the edges can be read back without one.

    The first read of a vertex freezes its lists into one dict from each
    dimension present to a tuple, which replaces the lists in the same
    slot; every later read returns those tuples as they are.
    ``cubes_at_vertex``, ``has_cube`` and ``links_flag_check`` all read
    through it.  ``has_cube`` looks at the cube's base, where a stored cube
    is always filed.
    """

    def __init__(
        self,
        graph: DefiningGraph,
        radius: int,
        vertices: tuple[Word, ...],
        cubes: tuple[Cube, ...],
        reliable_radius: int,
    ):
        self.graph = graph
        self.radius = radius
        self.vertices = vertices
        self.cubes = cubes
        self.reliable_radius = reliable_radius
        self._top = top = max((len(axis) for _, axis in cubes), default=0)
        dimensions = range(top + 1)
        self._number = number = {w: i for i, w in enumerate(vertices)}
        # cells[i]: the cubes through vertex i, one list per dimension
        # until the first read, then the frozen dict ``_cells_at`` made.
        self._cells = cells = [[[] for _ in dimensions] for _ in vertices]
        # up[i * n + g] is the number of vertex i times g, or -1 where no
        # stored cube has that edge.
        n = graph.n
        self._up = up = [-1] * (len(vertices) * n)
        base = None  # the previous cube's base, looked up into b
        for cube in cubes:
            if cube[0] is not base:
                base = cube[0]
                b = number[base]
                at_base = cells[b]
            axis = cube[1]
            d = len(axis)
            if d == 1:
                g = axis[0]
                j = up[b * n + g]
                if j < 0:
                    j = up[b * n + g] = number[multiply(base, axis, graph)]
                at_base[1].append(cube)
                cells[j][1].append(cube)
            elif not d:
                at_base[0].append(cube)
            else:
                corners = [b]
                for g in axis:
                    for i in corners[:]:
                        j = up[i * n + g]
                        if j < 0:
                            j = up[i * n + g] = number[multiply(vertices[i], (g,), graph)]
                        corners.append(j)
                for i in corners:
                    cells[i][d].append(cube)

    def _cells_at(self, i: int) -> dict[int, tuple[Cube, ...]]:
        """The cubes through vertex number i, by dimension in ascending
        order, each group in ``cubes`` order; no group is empty.  The
        caller must not change the dict."""
        cells = self._cells[i]
        if type(cells) is list:
            cells = self._cells[i] = {d: tuple(cs) for d, cs in enumerate(cells) if cs}
        return cells

    def __contains__(self, vertex: Word) -> bool:
        return vertex in self._number

    def has_cube(self, cube: Cube) -> bool:
        base, axis = cube
        i = self._number.get(base)
        return i is not None and cube in self._cells_at(i).get(len(axis), ())

    def cell_counts(self) -> tuple[int, ...]:
        """Number of stored cubes per dimension."""
        counts = [0] * (self._top + 1)
        for cube in self.cubes:
            counts[cube.dimension] += 1
        return tuple(counts)


def build_ball(
    graph: DefiningGraph, radius: int, max_vertices: int = 1_000_000
) -> Ball:
    """Enumerate the ball of the given radius around the identity.

    The vertex cap is checked by the census first.  Spheres are then read
    off the shortlex automaton, up to the radius or the first empty one.  A
    state is (blocked, descents, w) for a normal form w: ``blocked`` holds
    the generators x for which w*x is not a longer normal form, and
    ``descents`` the x that shorten w.  Extending a sphere in shortlex order
    by the unblocked letters in ascending order lists the next sphere once
    and in shortlex order.  The cube (w, T) is based at w exactly when T
    misses descents(w); with the cliques taken lexicographically, each
    sphere's cubes come out in the order ``Ball`` keeps: by base length,
    then base, then axis.  Only the sphere being extended is held.
    """
    census = ball_census(graph, radius, max_vertices)
    # The cliques of at most ``radius`` generators, lexicographically, with
    # their bitmasks; a larger one fits no cube of the ball.
    sizes = min(radius, graph.n) + 1
    levels = islice(_clique_levels(graph.n, graph.neighbor_masks), sizes)
    cliques = sorted((c, sum(1 << t for t in c)) for level in levels for c, _ in level)
    masks = graph.neighbor_masks
    letters = [(x, 1 << x) for x in range(graph.n)]
    vertices: list[Word] = []
    cubes: list[Cube] = []
    level = [(0, 0, IDENTITY)]
    for r in count():
        vertices += [w for _, _, w in level]
        fitting = [(c, mask) for c, mask in cliques if len(c) <= radius - r]
        for _, descents, w in level:
            cubes += [
                tuple.__new__(Cube, (w, c)) for c, mask in fitting if not mask & descents
            ]
        if r == radius:
            break
        # After w*x, x is blocked, and so is each letter commuting with x
        # that was blocked or is smaller than x; the descents are x and
        # the descents of w commuting with x.
        level = [
            (bit | masks[x] & (blocked | bit - 1), bit | descents & masks[x], w + (x,))
            for blocked, descents, w in level
            for x, bit in letters
            if not blocked & bit
        ]
        if not level:
            break
    return Ball(graph, radius, tuple(vertices), tuple(cubes), census.reliable_radius)


def sphere(ball: Ball, r: int) -> tuple[Word, ...]:
    """Vertices at distance exactly r, in shortlex order."""
    if not 0 <= r <= ball.radius:
        raise ValueError(f"sphere radius {r} out of range 0..{ball.radius}")
    # Shortlex order sorts by length first, so each sphere is a slice.
    vertices = ball.vertices
    start = bisect_left(vertices, r, key=len)
    return vertices[start : bisect_left(vertices, r + 1, key=len)]


def canonical_cube(g: Word, axis, graph: DefiningGraph) -> Cube:
    """The canonical form of the coset cube g*W_axis, for a normal form g.

    The base is the minimal element of the coset: g with every descent in
    the axis removed.  A letter t is a descent of g when the scan from the
    right over the letters commuting with t stops at t itself, and deleting
    that occurrence leaves a normal form, since every letter after it
    commutes with t.  One scan from the right serves every axis letter at
    once: a bitmask holds the axis letters all of whose scans are still
    open, each letter met closes those it does not commute with, and a
    letter met while still open is deleted.  The axis is a clique, so a
    deleted descent commutes with every other axis letter and changes no
    other letter's descent status.  The result is the minimal element of
    the coset, so re-canonicalizing is a no-op.

    An axis that is already a canonical clique, strictly increasing
    generator indices each adjacent to every earlier one, is checked in one
    pass as it is read: every clique the library lists is one.  Any other
    axis is normalized first, sorted with repeats dropped, then checked for
    range and for being a clique, in that order.
    """
    axis = tuple(axis)
    masks = graph.neighbor_masks
    n = len(masks)
    # Inline, not ``spherical._near``: a call here cost up to 7 % of query time on K8.
    # Adjacency is symmetric, so each letter is checked against the earlier ones.
    bits = 0
    top = -1
    for t in axis:
        if not top < t < n or bits & ~masks[t]:
            axis = tuple(sorted(set(axis)))
            bits = _mask_of(axis, n)
            for t in axis:
                if bits & ~masks[t] != 1 << t:
                    raise ValueError(f"axis {axis!r} is not a clique of the defining graph")
            break
        bits |= 1 << t
        top = t
    base = g
    pending = bits
    i = len(base)
    while pending and i:
        i -= 1
        letter = base[i]
        if pending >> letter & 1:
            base = base[:i] + base[i + 1 :]
        pending &= masks[letter]
    return tuple.__new__(Cube, (base, axis))


def cubes_at_vertex(ball: Ball, v: Word) -> dict[int, tuple[Cube, ...]]:
    """All stored cubes containing v, grouped by dimension in ascending
    order, each group in ``ball.cubes`` order; no group is empty."""
    i = ball._number.get(v)
    if i is None:
        raise ValueError(f"vertex {v!r} is not in the ball")
    return dict(ball._cells_at(i))


class FlagViolation(NamedTuple):
    vertex: Word
    generators: Clique


class FlagCheckReport(NamedTuple):
    """Outcome of the link condition scan; truthy when no violation exists."""

    ok: bool
    violations: tuple[FlagViolation, ...]
    vertices_checked: int

    def __bool__(self) -> bool:
        return self.ok


def links_flag_check(ball: Ball) -> FlagCheckReport:
    """Check Gromov's flag condition at every reliably-complete vertex.

    At each vertex the edges correspond to generators.  Whenever three or
    more edges pairwise span stored squares, the cube on the whole set must
    be stored too; the first missing cube is reported as a violation, with
    ``vertices_checked`` counted up to and including its vertex.

    The reliable vertices are a prefix of the shortlex order, which sorts
    by length first.  At each one the stored squares become one neighbour
    bitmask per generator.  Three such edges form a triangle: a square
    whose two generators share a neighbour.  A vertex without one is passed
    over; otherwise the cliques of those masks are listed with the stored
    edges as the root set, and the ones of three or more generators are
    tested, in size-then-lexicographic order, against the axes of the
    cubes filed at the vertex.  The cell through v on a clique T is the
    coset v*W_T, so it is stored exactly when some stored cube through v
    has axis T; neither ``canonical_cube`` nor ``has_cube`` is called.  A
    square missing one of its edges, possible only in a hand-built
    ``Ball``, has a generator outside the root, joins no two edges and is
    ignored.
    """
    n = ball.graph.n
    end = bisect_right(ball.vertices, ball.reliable_radius, key=len)
    if ball._top < 2:  # without a square no vertex has a triangle
        return FlagCheckReport(True, (), end)
    for i, v in enumerate(ball.vertices[:end]):
        cells = ball._cells_at(i)
        masks = [0] * n
        triangle = 0
        for _, (s, t) in cells.get(2, ()):
            triangle |= masks[s] & masks[t]
            masks[s] |= 1 << t
            masks[t] |= 1 << s
        if not triangle:
            continue
        edges = 0
        for _, (g,) in cells.get(1, ()):
            edges |= 1 << g
        axes = {axis for d, cubes in cells.items() if d > 2 for _, axis in cubes}
        for level in islice(_clique_levels(n, masks, edges), 3, None):
            for axis, _ in level:
                if axis not in axes:
                    return FlagCheckReport(False, (FlagViolation(v, axis),), i + 1)
    return FlagCheckReport(True, (), end)


def _vertex_texts(ball: Ball, labels: Sequence[str]) -> list[str]:
    """Spell each vertex, in the ball's numbering, with the given generator
    labels, space-joined, the identity as the empty string.

    Each text is its parent's plus one label: a prefix of a normal form is a
    normal form, and the shortlex order lists every parent before its
    children, so the parent is already spelled.  The parent of vertex j
    with last letter x is the vertex p with ascent-table entry
    ``up[p * n + x] == j``.  Shortlex order lists the parents of a sphere
    in order too, so one pointer that only moves forward finds them all in
    O(V) steps, with no word sliced or hashed.  Only a hand-built ``Ball``
    can miss such an edge, one that no square covers either; the scan then
    reaches j, and from j on every parent is looked up in the numbering.  A
    failed scan costs up to O(V) steps, so it is made once, not once per
    missing edge.
    """
    n = ball.graph.n
    up = ball._up
    vertices = ball.vertices
    texts: list[str] = []
    p = 0
    for j, w in enumerate(vertices):
        if not w:
            texts.append("")
            continue
        x = w[-1]
        while p < j and up[p * n + x] != j:
            p += 1
        if p == j:
            break
        parent = texts[p]
        texts.append(f"{parent} {labels[x]}" if parent else labels[x])
    else:
        return texts
    number = ball._number
    for w in vertices[len(texts):]:
        if not w:
            texts.append("")
            continue
        parent = texts[number[w[:-1]]]
        texts.append(f"{parent} {labels[w[-1]]}" if parent else labels[w[-1]])
    return texts


def export_complex(ball: Ball, format: str) -> str:
    """Serialize a ball: full JSON, or the 1-skeleton as a DOT graph.

    The JSON is the text ``json.dumps`` gives of {"radius", "reliable_radius",
    "vertices", "cubes": [{"base", "axis"}, ...]} with positive-dimensional
    cubes, each string quoted once.  A DOT label escapes backslash and
    double quote.  Vertices are spelled from the ball's ascent table (see
    ``_vertex_texts``) and named by their numbers in the ball.  Each run of
    a base's exported cubes makes the text up to its axis, or up to its
    edge's far end in DOT, once.  The run's base is numbered by a counter
    one past the previous run's, checked by identity against the vertex of
    that number; in a built ball it always holds, so no base is hashed.
    Only where it fails, in a hand-built ``Ball`` with another order or
    equal but distinct base tuples, is the base looked up in the
    numbering.  A DOT edge joins its base to the base's entry in the
    ascent table, so the export makes no ``multiply``.
    """
    labels = ball.graph.labels
    number = ball._number
    vertices = ball.vertices
    size = len(vertices)
    if format == "json":
        texts = _vertex_texts(ball, labels)
        quoted = [encode_basestring_ascii(t) for t in texts]
        # axes[axis]: the axis as JSON, with the cube's closing brace
        axes: dict[Clique, str] = {}
        cubes = []
        base = None
        i = -1
        for cube in ball.cubes:
            axis = cube[1]
            if not axis:
                continue
            if cube[0] is not base:
                base = cube[0]
                i += 1
                if i == size or vertices[i] is not base:
                    i = number[base]
                prefix = f'{{"base": {quoted[i]}, "axis": '
            axis_text = axes.get(axis)
            if axis_text is None:
                axis_text = axes[axis] = json.dumps([labels[g] for g in axis]) + "}"
            cubes.append(prefix + axis_text)
        return (
            f'{{"radius": {ball.radius}, "reliable_radius": {ball.reliable_radius}, '
            f'"vertices": [{", ".join(quoted)}], "cubes": [{", ".join(cubes)}]}}\n'
        )
    if format == "dot":
        escaped = [label.replace("\\", "\\\\").replace('"', '\\"') for label in labels]
        texts = _vertex_texts(ball, escaped)
        lines = ["graph davis_ball {"]
        lines.extend(f'  n{i} [label="{text or "1"}"];' for i, text in enumerate(texts))
        n, up = ball.graph.n, ball._up
        base = None
        i = -1
        for cube in ball.cubes:
            axis = cube[1]
            if len(axis) == 1:
                if cube[0] is not base:
                    base = cube[0]
                    i += 1
                    if i == size or vertices[i] is not base:
                        i = number[base]
                    prefix = f"  n{i} -- n"
                lines.append(f"{prefix}{up[i * n + axis[0]]};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {format!r}")

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

The size of a ball is known before any vertex exists.  The growth series
of the group satisfies 1/W(t) = sum over the cliques T of (-t/(1+t))^|T|
(Steinberg; Davis, *The Geometry and Topology of Coxeter Groups*, ch. 17),
so W(t) = (1+t)^k / P(t) with P(t) = sum_T (-t)^|T| (1+t)^(k-|T|), where k
is the size of a maximum clique.  ``ball_census`` reads the sphere sizes
and the cube counts off that series, and the vertex cap is enforced there,
so a run that would exceed it stops before it allocates anything.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import count, islice
from json.encoder import encode_basestring_ascii
from math import comb
from operator import mul
from typing import Callable, Iterator, NamedTuple, Sequence

from .graphs import DefiningGraph
# all_cliques is not called here; it stays a name of this module because
# bench/tracing.py wraps it.
from .spherical import (  # noqa: F401
    Clique,
    _clique_counts,
    _clique_levels,
    _mask_of,
    all_cliques,
    maximum_spherical,
)
from .words import IDENTITY, Word, multiply


class ResourceCapError(RuntimeError):
    """Raised when a ball would exceed the configured vertex budget.

    ``radius_reached`` is the largest radius whose ball fits the cap, or -1
    when not even the identity does.
    """

    def __init__(self, limit: int, radius_reached: int):
        if radius_reached < 0:
            detail = "no radius fits, since the identity alone is 1 vertex"
        else:
            detail = f"last complete radius was {radius_reached}"
        super().__init__(f"vertex cap {limit} exceeded; {detail}")
        self.limit = limit
        self.radius_reached = radius_reached


class Cube(NamedTuple):
    """A cell of the complex: a coset in canonical form.

    ``base`` is the unique shortest element of the coset and ``axis`` the
    clique spanning the finite subgroup; the cube's 2^k vertices are the
    products of ``base`` with the subsets of ``axis``.  A cube is the tuple
    (base, axis), so it compares equal to that plain tuple.
    """

    base: Word
    axis: Clique

    @property
    def dimension(self) -> int:
        return len(self.axis)


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


class BallCensus(NamedTuple):
    """The size of a ball, in closed form: no vertex or cube is enumerated.

    ``cells_by_dimension[d]`` is the number of d-cubes the ball stores, the
    count ``Ball.cell_counts`` takes of an enumerated ball.
    """

    graph: DefiningGraph
    radius: int
    reliable_radius: int
    vertex_count: int
    cells_by_dimension: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "reliable_radius": self.reliable_radius,
            "vertex_count": self.vertex_count,
            "cells_by_dimension": list(self.cells_by_dimension),
            "cells_total": sum(self.cells_by_dimension),
        }


def _growth_columns(by_size: list[int]) -> Iterator[list[int]]:
    """Yield, for l = 0, 1, 2, ..., the coefficients [t^l] (1+t)^j / P(t)
    / (1-t) for j = 0..k, where ``by_size[d]`` counts the d-cliques.

    Entry j is the number of elements of length at most l whose descents
    miss a given (k-j)-clique T, the minimal representatives of the cosets
    of W_T, since W(t) = W^T(t) * (1+t)^|T|.  Entry k is the size of ball
    l.  1/P(t) follows the order-k recurrence of its denominator, entry 0
    sums it, and each further factor 1+t adds the previous column.
    """
    k = len(by_size) - 1
    # [t^1], ..., [t^k] of P(t); [t^0] is 1, from the empty clique.
    p = [
        sum((-1) ** d * c * comb(k - d, i - d) for d, c in enumerate(by_size[: i + 1]))
        for i in range(1, k + 1)
    ]
    recent = deque([0] * k, k)  # [t^l], ..., [t^(l-k+1)] of 1/P(t)
    column = [0] * (k + 1)
    q = 1
    while True:
        recent.appendleft(q)
        nxt = [column[0] + q]
        for j in range(k):
            nxt.append(nxt[j] + column[j])
        column = nxt
        yield column
        q = -sum(map(mul, p, recent))


def ball_census(
    graph: DefiningGraph, radius: int, max_vertices: int = 1_000_000
) -> BallCensus:
    """Count the vertices and cubes of the ball of the given radius.

    Raises ``ResourceCapError`` when the ball has more than ``max_vertices``
    vertices, with the largest radius that fits, before anything sized by
    the ball is allocated.
    """
    return _census(graph, radius, max_vertices, len(maximum_spherical(graph)))


def _census(
    graph: DefiningGraph,
    radius: int,
    max_vertices: float,
    k: int,
    receive: Callable[[int], object] | None = None,
    c: int | None = None,
) -> BallCensus:
    """``ball_census`` for a maximum clique of k generators.  A callable
    ``receive`` is also called with q_r = [t^r] (1+t)^(k-c) / P(t), c = k
    by default, the rise of entry k - c at column r, for each nonempty
    sphere r <= radius - k: a c-clique's displacement needs no walk."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # Only the cliques of at most ``radius`` generators are counted: a
    # larger one fits no cube and leaves the series unchanged up to
    # t^radius.  A clique T is also a vertex of length |T|, the product of
    # its generators, so once the cliques of at most s generators outnumber
    # the cap, the counts so far fix the series up to t^s and the walk
    # below raises by radius s.  Each size is counted from its parents'
    # extension masks before it is built, and no clique is ever listed:
    # cliques with equal masks are held as one mask with their number.
    by_size: list[int] = []
    for size in _clique_counts(graph.n, graph.neighbor_masks):
        by_size.append(size)
        if len(by_size) > radius or sum(by_size) > max_vertices:
            break
    by_size += [0] * (k + 1 - len(by_size))
    # window[d] is column radius - d, zero before column 0: its entry k - d
    # counts the bases of length at most radius - d of a d-cube that fits.
    window = deque([[0] * (k + 1)] * (k + 1), k + 1)
    j = 0 if c is None else k - c
    # zip asks for no column past the radius, and a range takes any radius.
    for r, column in zip(range(radius + 1), _growth_columns(by_size)):
        # Only K_k has an empty sphere, r = k + 1, and then column k - d, in
        # the window, holds all 2^(k-d) bases in entry k - d already.
        if column[k] == window[0][k]:
            break
        if column[k] > max_vertices:
            raise ResourceCapError(max_vertices, r - 1)
        if receive is not None and r <= radius - k:
            receive(column[j] - window[0][j])
        window.appendleft(column)
    cells = tuple(n * col[k - d] for d, (n, col) in enumerate(zip(by_size, window)))
    return BallCensus(graph, radius, radius - k, window[0][k], cells[: radius + 1])


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
    """
    axis = tuple(sorted(set(axis)))
    bits = _mask_of(axis, graph.n)
    masks = graph.neighbor_masks
    # Inline, not ``spherical._near``: a call here cost up to 7 % of query time on K8.
    for t in axis:
        if bits & ~masks[t] != 1 << t:
            raise ValueError(f"axis {axis!r} is not a clique of the defining graph")
    base = g
    pending = bits
    i = len(base)
    while pending and i:
        i -= 1
        letter = base[i]
        if pending >> letter & 1:
            base = base[:i] + base[i + 1 :]
        pending &= masks[letter]
    return Cube(base, axis)


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
    children, so the parent's number is already spelled.
    """
    number = ball._number
    texts: list[str] = []
    for w in ball.vertices:
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
    double quote.  Vertices are named by their numbers in the ball, a base
    looked up once per run of its cubes, and a DOT edge joins its base to
    the base's entry in the ascent table, so the export makes no
    ``multiply``.
    """
    labels = ball.graph.labels
    number = ball._number
    if format == "json":
        texts = _vertex_texts(ball, labels)
        quoted = [encode_basestring_ascii(t) for t in texts]
        axes: dict[Clique, str] = {}
        cubes = []
        base = None
        for cube in ball.cubes:
            axis = cube[1]
            if not axis:
                continue
            if cube[0] is not base:
                base = cube[0]
                base_text = quoted[number[base]]
            axis_text = axes.get(axis)
            if axis_text is None:
                axis_text = axes[axis] = json.dumps([labels[g] for g in axis])
            cubes.append(f'{{"base": {base_text}, "axis": {axis_text}}}')
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
        for cube in ball.cubes:
            axis = cube[1]
            if len(axis) == 1:
                if cube[0] is not base:
                    base = cube[0]
                    i = number[base]
                lines.append(f"  n{i} -- n{up[i * n + axis[0]]};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {format!r}")

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
    _cliques_of_masks,
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

    Each vertex indexes the cubes containing it in one list per dimension,
    0 up to the top dimension, each list in ``cubes`` order; the keys of
    that index are the vertex set.  The index is built by walking edges:
    a cube's vertices are its base times the subsets of its axis, reached
    from the base one axis letter at a time, and each such step v -> v*g is
    an ascent, since the axis is a clique that misses the base's descents.
    Each ascent edge is multiplied once and remembered by vertex number and
    generator, so building the index costs one ``multiply`` per edge of the
    ball.  ``has_cube`` reads the index at the cube's base, where a stored
    cube is always filed.
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
        # Offsets of each nonempty sphere inside the shortlex-sorted vertex
        # list; the last vertex is a longest one.
        depth = len(vertices[-1])
        offsets = [0] * (depth + 2)
        for w in vertices:
            offsets[len(w) + 1] += 1
        for r in range(1, depth + 2):
            offsets[r] += offsets[r - 1]
        self._offsets = offsets
        dimensions = range(max((len(axis) for _, axis in cubes), default=0) + 1)
        number = {w: i for i, w in enumerate(vertices)}
        groups = [[[] for _ in dimensions] for _ in vertices]
        # up[i * n + g] is the number of vertex i times g, or -1 until the
        # edge is first walked.
        n = graph.n
        up = [-1] * (len(vertices) * n)
        for cube in cubes:
            base, axis = cube
            corners = [number[base]]
            for g in axis:
                for i in corners[:]:
                    j = up[i * n + g]
                    if j < 0:
                        j = up[i * n + g] = number[multiply(vertices[i], (g,), graph)]
                    corners.append(j)
            d = len(axis)
            for i in corners:
                groups[i][d].append(cube)
        self._cubes_by_vertex = dict(zip(vertices, groups))

    def __contains__(self, vertex: Word) -> bool:
        return vertex in self._cubes_by_vertex

    def has_cube(self, cube: Cube) -> bool:
        base, axis = cube
        groups = self._cubes_by_vertex.get(base)
        d = len(axis)
        return groups is not None and d < len(groups) and cube in groups[d]

    def cell_counts(self) -> tuple[int, ...]:
        """Number of stored cubes per dimension."""
        top = max((c.dimension for c in self.cubes), default=0)
        counts = [0] * (top + 1)
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


def _lex_cliques(graph: DefiningGraph, radius: int) -> list[tuple[Clique, int]]:
    """The cliques of at most ``radius`` generators with their bitmasks, in
    lexicographic order; a larger clique fits no cube of a ball of that
    radius."""
    sizes = min(radius, graph.n) + 1
    levels = islice(_clique_levels(graph.n, graph.neighbor_masks), sizes)
    return sorted((c, sum(1 << t for t in c)) for level in levels for c, _ in level)


def _growth_columns(by_size: list[int]) -> Iterator[list[int]]:
    """Yield, for l = 0, 1, 2, ..., the coefficients [t^l] (1+t)^j / P(t)
    for j = 0..k, where ``by_size[d]`` counts the d-cliques.

    Entry j is the number of elements of length l whose descents miss a
    given (k-j)-clique T, the minimal representatives of the cosets of W_T,
    since W(t) = W^T(t) * (1+t)^|T|.  Entry k is the size of sphere l.
    1/P(t) follows the order-k recurrence of its denominator, and each
    further factor 1+t adds the previous column.
    """
    k = len(by_size) - 1
    # [t^1], ..., [t^k] of P(t); [t^0] is 1, from the empty clique.
    p = [
        sum((-1) ** d * c * comb(k - d, i - d) for d, c in enumerate(by_size[: i + 1]))
        for i in range(1, k + 1)
    ]
    recent = [0] * k  # [t^(l-1)], ..., [t^(l-k)] of 1/P(t)
    column = [0] * (k + 1)
    for l in count():
        q = int(l == 0) - sum(map(mul, p, recent))
        recent = [q] + recent[:-1]
        nxt = [q]
        for j in range(k):
            nxt.append(nxt[j] + column[j])
        column = nxt
        yield column


def ball_census(
    graph: DefiningGraph, radius: int, max_vertices: int = 1_000_000
) -> BallCensus:
    """Count the vertices and cubes of the ball of the given radius.

    Raises ``ResourceCapError`` when the ball has more than ``max_vertices``
    vertices, with the largest radius that fits, before anything sized by
    the ball is allocated.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if max_vertices < 1:
        raise ResourceCapError(max_vertices, -1)
    k = len(maximum_spherical(graph))
    # Only the cliques of at most ``radius`` generators are counted: a
    # larger one fits no cube and leaves the series unchanged up to
    # t^radius.  A clique T is also a vertex of length |T|, the product of
    # its generators, so once the cliques of at most s generators outnumber
    # the cap, the counts so far fix the series up to t^s and the walk
    # below raises by radius s.  Each size is counted from its parents'
    # extension masks before it is built, and no clique is ever listed.
    by_size: list[int] = []
    for size in _clique_counts(graph.n, graph.neighbor_masks):
        by_size.append(size)
        if len(by_size) > radius or sum(by_size) > max_vertices:
            break
    by_size += [0] * (k + 1 - len(by_size))
    vertices = 0
    # sums[j]: the (k-j)-cubes per axis, i.e. the coset representatives of
    # length at most radius - (k-j), so that the whole cube fits.
    sums = [0] * (k + 1)
    for r, column in enumerate(_growth_columns(by_size)):
        # An empty sphere means a finite group: every later one is empty.
        if r > radius or not column[k]:
            break
        vertices += column[k]
        if vertices > max_vertices:
            raise ResourceCapError(max_vertices, r - 1)
        for j in range(max(k - radius + r, 0), k + 1):
            sums[j] += column[j]
    cells = tuple(c * s for c, s in zip(by_size, reversed(sums)))
    return BallCensus(graph, radius, radius - k, vertices, cells[: radius + 1])


def _spheres(
    graph: DefiningGraph, radius: int, extra, carry: Callable
) -> Iterator[list[tuple]]:
    """Yield the spheres 0..radius of shortlex-automaton states, stopping at
    the first empty one.

    A state is (w, blocked, descents, extra) for a normal form w.
    ``blocked`` holds the generators x for which w*x is not a longer normal
    form, and ``descents`` the x that shorten w.  Extending a sphere in
    shortlex order by the unblocked letters in ascending order lists the
    next sphere once and in shortlex order.  ``extra`` is the caller's: the
    identity carries the given one, and w*x carries ``carry(extra of w, x)``.
    """
    if radius < 0:
        return
    masks = graph.neighbor_masks
    letters = [(x, 1 << x) for x in range(graph.n)]
    level = [(IDENTITY, 0, 0, extra)]
    yield level
    for _ in range(radius):
        # After w*x, x is blocked, and so is each letter commuting with x
        # that was blocked or is smaller than x; the descents are x and
        # the descents of w commuting with x.
        level = [
            (
                w + (x,),
                bit | masks[x] & (blocked | bit - 1),
                bit | descents & masks[x],
                carry(extra, x),
            )
            for w, blocked, descents, extra in level
            for x, bit in letters
            if not blocked & bit
        ]
        if not level:
            return
        yield level


def build_ball(
    graph: DefiningGraph, radius: int, max_vertices: int = 1_000_000
) -> Ball:
    """Enumerate the ball of the given radius around the identity.

    The vertex cap is checked by the census first.  Spheres are then read
    off the shortlex automaton, up to the radius or the first empty one.
    The cube (w, T) is based at w exactly when T misses descents(w); with
    the cliques taken lexicographically, cubes come out in the order
    ``Ball`` keeps: by base length, then base, then axis.
    """
    census = ball_census(graph, radius, max_vertices)
    cliques = _lex_cliques(graph, radius)
    levels = list(_spheres(graph, radius, None, lambda extra, x: None))
    vertices = tuple(w for level in levels for w, _, _, _ in level)
    cubes: list[Cube] = []
    for r, level in enumerate(levels):
        fitting = [(c, mask) for c, mask in cliques if len(c) <= radius - r]
        for w, _, descents, _ in level:
            cubes += [
                tuple.__new__(Cube, (w, c)) for c, mask in fitting if not mask & descents
            ]
    return Ball(graph, radius, vertices, tuple(cubes), census.reliable_radius)


def sphere(ball: Ball, r: int) -> tuple[Word, ...]:
    """Vertices at distance exactly r, in shortlex order."""
    if not 0 <= r <= ball.radius:
        raise ValueError(f"sphere radius {r} out of range 0..{ball.radius}")
    offsets = ball._offsets
    if r + 1 >= len(offsets):
        return ()
    return ball.vertices[offsets[r] : offsets[r + 1]]


def canonical_cube(g: Word, axis, graph: DefiningGraph) -> Cube:
    """The canonical form of the coset cube g*W_axis, for a normal form g.

    The base is the minimal element of the coset: g with every descent in
    the axis removed.  A letter t is a descent of g when the scan from the
    right over the letters commuting with t stops at t itself, and deleting
    that occurrence leaves a normal form, since every letter after it
    commutes with t.  One pass over the axis is enough: the axis is a
    clique, so a deleted descent d commutes with every other axis letter
    and its deletion changes no other letter's descent status.  The result
    is the minimal element of the coset, so re-canonicalizing is a no-op.
    """
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


def cubes_at_vertex(ball: Ball, v: Word) -> dict[int, tuple[Cube, ...]]:
    """All stored cubes containing v, grouped by dimension in ascending
    order, each group in ``ball.cubes`` order; no group is empty."""
    groups = ball._cubes_by_vertex.get(v)
    if groups is None:
        raise ValueError(f"vertex {v!r} is not in the ball")
    return {d: tuple(cs) for d, cs in enumerate(groups) if cs}


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

    At each vertex the edges correspond to generators.  Whenever a set of
    edges pairwise spans stored squares, the cube on the whole set must be
    stored too; the first missing cube is reported as a violation.
    """
    checked = 0
    for v in ball.vertices:
        if len(v) > ball.reliable_radius:
            continue
        checked += 1
        at_v = cubes_at_vertex(ball, v)
        edge_gens = sorted(cube.axis[0] for cube in at_v.get(1, ()))
        square_pairs = {cube.axis for cube in at_v.get(2, ())}
        local = {g: i for i, g in enumerate(edge_gens)}
        masks = [0] * len(edge_gens)
        for s, t in square_pairs:
            masks[local[s]] |= 1 << local[t]
            masks[local[t]] |= 1 << local[s]
        for local_clique in _cliques_of_masks(len(edge_gens), tuple(masks)):
            # Each pair spans a square read from the index above; only a
            # larger clique can lack its cube.
            if len(local_clique) < 3:
                continue
            axis = tuple(edge_gens[i] for i in local_clique)
            if not ball.has_cube(canonical_cube(v, axis, ball.graph)):
                return FlagCheckReport(False, (FlagViolation(v, axis),), checked)
    return FlagCheckReport(True, (), checked)


def _vertex_texts(ball: Ball, labels: Sequence[str]) -> tuple[dict[Word, int], list[str]]:
    """Number the vertices and spell each one with the given generator
    labels, space-joined, the identity as the empty string.

    Each text is its parent's plus one label: a prefix of a normal form is a
    normal form, and the shortlex order lists every parent before its
    children.
    """
    index: dict[Word, int] = {}
    texts: list[str] = []
    for i, w in enumerate(ball.vertices):
        index[w] = i
        if not w:
            texts.append("")
            continue
        parent = texts[index[w[:-1]]]
        texts.append(f"{parent} {labels[w[-1]]}" if parent else labels[w[-1]])
    return index, texts


def export_complex(ball: Ball, format: str) -> str:
    """Serialize a ball: full JSON, or the 1-skeleton as a DOT graph.

    The JSON is the text ``json.dumps`` gives of {"radius", "reliable_radius",
    "vertices", "cubes": [{"base", "axis"}, ...]} with positive-dimensional
    cubes, each string quoted once.  A DOT label escapes backslash and
    double quote.
    """
    graph = ball.graph
    labels = graph.labels
    if format == "json":
        index, texts = _vertex_texts(ball, labels)
        quoted = [encode_basestring_ascii(t) for t in texts]
        axes: dict[Clique, str] = {}
        cubes = []
        for base, axis in ball.cubes:
            if not axis:
                continue
            axis_text = axes.get(axis)
            if axis_text is None:
                axis_text = axes[axis] = json.dumps([labels[g] for g in axis])
            cubes.append(f'{{"base": {quoted[index[base]]}, "axis": {axis_text}}}')
        return (
            f'{{"radius": {ball.radius}, "reliable_radius": {ball.reliable_radius}, '
            f'"vertices": [{", ".join(quoted)}], "cubes": [{", ".join(cubes)}]}}\n'
        )
    if format == "dot":
        escaped = [label.replace("\\", "\\\\").replace('"', '\\"') for label in labels]
        index, texts = _vertex_texts(ball, escaped)
        lines = ["graph davis_ball {"]
        lines.extend(f'  n{i} [label="{text or "1"}"];' for i, text in enumerate(texts))
        lines.extend(
            f"  n{index[base]} -- n{index[multiply(base, axis, graph)]};"
            for base, axis in ball.cubes
            if len(axis) == 1
        )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {format!r}")

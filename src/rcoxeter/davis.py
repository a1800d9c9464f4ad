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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graphs import DefiningGraph
from .spherical import Clique, _cliques_of_masks, all_cliques, is_spherical, maximum_spherical
from .words import IDENTITY, Word, multiply, word_to_text


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


@dataclass(frozen=True)
class Cube:
    """A cell of the complex: a coset in canonical form.

    ``base`` is the unique shortest element of the coset and ``axis`` the
    clique spanning the finite subgroup; the cube's 2^k vertices are the
    products of ``base`` with the subsets of ``axis``.
    """

    base: Word
    axis: Clique

    @property
    def dimension(self) -> int:
        return len(self.axis)

    def vertices(self, graph: DefiningGraph) -> tuple[Word, ...]:
        out = [self.base]
        for g in self.axis:
            out.extend(multiply(w, (g,), graph) for w in list(out))
        return tuple(out)

    def sort_key(self):
        return (len(self.base), self.base, self.axis)


class Ball:
    """A radius-L ball: shortlex-ordered vertices, complete cubes in sort-key order."""

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
        # Offsets of each sphere inside the shortlex-sorted vertex list.
        offsets = [0] * (radius + 2)
        for w in vertices:
            offsets[len(w) + 1] += 1
        for r in range(1, radius + 2):
            offsets[r] += offsets[r - 1]
        self._offsets = offsets
        self._vertex_set = frozenset(vertices)
        self._cube_set = frozenset(cubes)
        by_vertex: dict[Word, list[Cube]] = {w: [] for w in vertices}
        for cube in cubes:
            for w in cube.vertices(graph):
                by_vertex[w].append(cube)
        self._cubes_by_vertex = {w: tuple(cs) for w, cs in by_vertex.items()}

    def __contains__(self, vertex: Word) -> bool:
        return vertex in self._vertex_set

    def has_cube(self, cube: Cube) -> bool:
        return cube in self._cube_set

    def cell_counts(self) -> tuple[int, ...]:
        """Number of stored cubes per dimension."""
        top = max((c.dimension for c in self.cubes), default=0)
        counts = [0] * (top + 1)
        for cube in self.cubes:
            counts[cube.dimension] += 1
        return tuple(counts)


def build_ball(
    graph: DefiningGraph, radius: int, max_vertices: int = 1_000_000
) -> Ball:
    """Enumerate the ball of the given radius around the identity.

    Spheres are read off the shortlex automaton.  A normal form w carries
    two generator bitmasks: ``blocked``, the x for which w*x is not a longer
    normal form, and ``descents``, the x that shorten w.  Extending each
    sphere in shortlex order by the unblocked letters in ascending order
    lists the next sphere once and in shortlex order, and its size is known
    before it is built, so the vertex cap is checked first.  The cube (w, T)
    is based at w exactly when T misses descents(w); with the cliques taken
    lexicographically, cubes come out in ``Cube.sort_key`` order.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if max_vertices < 1:
        raise ResourceCapError(max_vertices, -1)
    n, masks = graph.n, graph.neighbor_masks
    letters = [(x, 1 << x) for x in range(n)]
    # One list per sphere of (normal form, blocked, descents) states.
    levels = [[(IDENTITY, 0, 0)]]
    total = 1
    for r in range(1, radius + 1):
        parents = levels[-1]
        total += sum(n - blocked.bit_count() for _, blocked, _ in parents)
        if total > max_vertices:
            raise ResourceCapError(max_vertices, r - 1)
        # After w*x, x is blocked, and so is each letter commuting with x
        # that was blocked or is smaller than x; the descents are x and
        # the descents of w commuting with x.
        levels.append([
            (w + (x,), bit | masks[x] & (blocked | bit - 1), bit | descents & masks[x])
            for w, blocked, descents in parents
            for x, bit in letters
            if not blocked & bit
        ])
    vertices = tuple(w for level in levels for w, _, _ in level)

    # all_cliques lists by size first; the sort key wants lexicographic.
    cliques = [(c, sum(1 << t for t in c)) for c in sorted(all_cliques(graph))]
    cubes: list[Cube] = []
    for r, level in enumerate(levels):
        fitting = [(c, mask) for c, mask in cliques if len(c) <= radius - r]
        for w, _, descents in level:
            cubes.extend(Cube(w, c) for c, mask in fitting if not mask & descents)
    reliable = radius - len(maximum_spherical(graph))
    return Ball(graph, radius, vertices, tuple(cubes), reliable)


def sphere(ball: Ball, r: int) -> tuple[Word, ...]:
    """Vertices at distance exactly r, in shortlex order."""
    if not 0 <= r <= ball.radius:
        raise ValueError(f"sphere radius {r} out of range 0..{ball.radius}")
    return ball.vertices[ball._offsets[r] : ball._offsets[r + 1]]


def canonical_cube(g: Word, axis, graph: DefiningGraph) -> Cube:
    """The canonical form of the coset cube g*W_axis.

    Greedily right-multiplies by axis generators while that shortens the
    representative; the result is the unique minimal element of the coset,
    so re-canonicalizing is a no-op.
    """
    axis = tuple(sorted(set(axis)))
    if not is_spherical(axis, graph):
        raise ValueError(f"axis {axis!r} is not a clique of the defining graph")
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


def cubes_at_vertex(ball: Ball, v: Word) -> dict[int, tuple[Cube, ...]]:
    """All stored cubes containing v, grouped by dimension."""
    if v not in ball:
        raise ValueError(f"vertex {v!r} is not in the ball")
    grouped: dict[int, list[Cube]] = {}
    for cube in ball._cubes_by_vertex[v]:
        grouped.setdefault(cube.dimension, []).append(cube)
    return {dim: tuple(cubes) for dim, cubes in sorted(grouped.items())}


@dataclass(frozen=True)
class FlagViolation:
    vertex: Word
    generators: Clique


@dataclass(frozen=True)
class FlagCheckReport:
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
            if len(local_clique) < 2:
                continue
            axis = tuple(edge_gens[i] for i in local_clique)
            if not ball.has_cube(canonical_cube(v, axis, ball.graph)):
                return FlagCheckReport(False, (FlagViolation(v, axis),), checked)
    return FlagCheckReport(True, (), checked)


def export_complex(ball: Ball, format: str) -> str:
    """Serialize a ball: full JSON, or the 1-skeleton as a DOT graph."""
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

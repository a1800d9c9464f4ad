"""The census of a ball of the Davis complex, read off the growth series.

The size of a ball is known before any vertex exists.  The growth series
of the group satisfies 1/W(t) = sum over the cliques T of (-t/(1+t))^|T|
(Steinberg; Davis, *The Geometry and Topology of Coxeter Groups*, ch. 17),
so W(t) = (1+t)^k / P(t) with P(t) = sum_T (-t)^|T| (1+t)^(k-|T|), where k
is the size of a maximum clique.  ``ball_census`` reads the sphere sizes
and the cube counts off that series, and the vertex cap is enforced there,
so a run that would exceed it stops before it allocates anything.

Nothing here enumerates a vertex: the enumerated ``Ball`` lives in
``davis``, which this module does not import.
"""

from __future__ import annotations

from collections import deque
from math import comb
from operator import mul
from typing import Callable, Iterator, NamedTuple

from .graphs import DefiningGraph
from .spherical import Clique, _clique_counts, maximum_spherical
from .words import Word


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

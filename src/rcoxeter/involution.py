"""The clique involution and its fixed points in a ball.

Multiplying together a maximal clique of the defining graph gives an
order-two element: every factor is an involution and all factors commute.
Left multiplication by that element is a cubical isometry of the Davis
complex, and its fixed set can be read off cube by cube.  A cube (g, T) is
carried to itself exactly when the conjugate t = g^-1 * gamma * g lands in
the subgroup spanned by T; inside the cube the action then flips the
coordinates named by the letters of t, so the fixed locus is the midpoint
subcube on the flipped axes.  Its dimension is |T| minus the number of
flipped coordinates, and it is a single point exactly when every
coordinate flips.

Everything here reads the cubes based within R - k, for a ball of radius
R and a maximal clique C of size k, and needs only the graph and the
radius: a ball and its census serve alike, and no ``Ball`` is built.
The search for invariant cubes is complete over the subgroup W_C alone.
An invariant cube (g, T) has g^-1 * gamma * g in W_T, a product of
distinct commuting generators, so g moves by at most k.  By the
left-descent lemma proven in ``probe``, g moves by 2|g| + k - 2m,
where m counts the generators of C that are left descents of g; m is at
most |g|, so m = |g|.  The product of those m descents is a left factor
of g of length |g|, so g is that product, a subset of C.
``invariant_cubes`` therefore conjugates the at most 2^k subsets of C and
walks no sphere, and ``fixed_loci`` conjugates the bases of the invariant
cubes once more.  W_C is abelian, so each subset conjugates gamma to
gamma itself; the search tests that rather than assume it.

The expected picture, verified here on finite balls: one invariant cube,
based at the identity on the clique itself, carrying an isolated
fixed point at its center.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import NamedTuple

from .davis import Ball, BallCensus, Cube
from .graphs import DefiningGraph, _bits
from .spherical import Clique, _clique_levels, _mask_of, maximum_spherical
from .words import IDENTITY, Word, conjugate, multiply, support, word_to_text


class Involution(NamedTuple):
    """An order-two element together with the clique that produced it."""

    element: Word
    clique: Clique
    n: int
    graph: DefiningGraph

    def as_dict(self) -> dict:
        graph = self.graph
        return {
            "gamma": word_to_text(self.element, graph),
            "clique": [graph.labels[g] for g in self.clique],
            "n": self.n,
        }


def build_involution(graph: DefiningGraph) -> Involution:
    """The product of a maximum clique's generators, in ascending order.

    Ascending order makes the product its own shortlex normal form, and any
    other order would give the same element since the factors commute.
    """
    clique = maximum_spherical(graph)
    return Involution(element=clique, clique=clique, n=len(clique), graph=graph)


def _maximal_clique(inv: Involution, graph: DefiningGraph) -> None:
    """Raise ``ValueError`` unless ``inv`` is on ``graph``, the ascending product
    of its clique, ``n`` its size, and the clique maximal: its own ``_near``."""
    if inv.graph is not graph and inv.graph != graph:
        raise ValueError(f"involution on {inv.graph!r} used with {graph!r}")
    clique = inv.clique
    mask = _mask_of(clique, graph.n)
    if not (inv.element == clique == tuple(_bits(mask)) and inv.n == len(clique)):
        raise ValueError(f"gamma {inv.element}, n={inv.n}, is not the product of {clique}")
    if _near(mask, graph) != mask:
        raise ValueError(f"clique {clique} is not a maximal clique of {graph!r}")


def _near(mask: int, graph: DefiningGraph) -> int:
    """The generators in, or adjacent to, every generator of the mask."""
    near = (1 << graph.n) - 1
    for g in _bits(mask):
        near &= graph.neighbor_masks[g] | 1 << g
    return near


def _support_mask(word: Word) -> int:
    mask = 0
    for g in word:
        mask |= 1 << g
    return mask


def invariant_cubes(inv: Involution, ball: Ball | BallCensus) -> tuple[Cube, ...]:
    """All reliably-complete cubes mapped to themselves by the involution,
    in the order of ``Ball.cubes``.

    The bases tried are the elements of W_C no longer than the reliable
    radius, the subsets S of the clique in shortlex order; each is its own
    normal form and its descents are S.  The cube (S, T) is invariant iff
    T misses S, so that S is the base, and the support of S^-1 * gamma * S
    is contained in T.  So the axes tried are that support, the flips, when
    it is a clique missing S, joined with each clique ``_clique_levels``
    lists from a root set: the generators adjacent to every flip and in
    neither S nor the flips.  The axes are sorted lexicographically.  The
    clique must be maximal and ``inv`` its product, or ``ValueError`` is
    raised: a cube outside W_C may be invariant.
    """
    graph = ball.graph
    _maximal_clique(inv, graph)
    found: list[Cube] = []
    for r in range(min(inv.n, ball.radius - inv.n) + 1):
        room = ball.radius - r
        for base in combinations(inv.clique, r):
            descents = _support_mask(base)
            flips = _support_mask(conjugate(base, inv.element, graph))
            near = _near(flips, graph)
            if flips & ~near or flips & descents:
                continue
            # An axis has at most ``room`` generators, and no clique more
            # than n: the smaller bound keeps islice's stop an index.
            flipped = tuple(_bits(flips))
            levels = islice(
                _clique_levels(graph.n, graph.neighbor_masks, near & ~flips & ~descents),
                min(room, graph.n) + 1 - len(flipped),
            )
            axes = [tuple(sorted(flipped + c)) for level in levels for c, _ in level]
            found.extend(Cube(base, axis) for axis in sorted(axes))
    return tuple(found)


class FixedLocus(NamedTuple):
    """The fixed set of the involution inside one invariant cube."""

    cube: Cube
    translation: Word
    flipped: Clique
    dimension: int
    #: per axis coordinate: "midpoint" when that coordinate flips, else "free"
    center: tuple[str, ...]


class FixedPointReport(NamedTuple):
    """Census of fixed loci inside the reliable part of a ball."""

    graph: DefiningGraph
    involution: Involution
    loci: tuple[FixedLocus, ...]
    unique_point: bool
    radius_examined: int

    def as_dict(self) -> dict:
        graph = self.graph
        return {
            "gamma": word_to_text(self.involution.element, graph),
            "clique": [graph.labels[g] for g in self.involution.clique],
            "loci": [
                {
                    "base": word_to_text(locus.cube.base, graph),
                    "axis": [graph.labels[g] for g in locus.cube.axis],
                    "dimension": locus.dimension,
                }
                for locus in self.loci
            ],
            "unique_point": self.unique_point,
            "radius_examined": self.radius_examined,
        }


def fixed_loci(inv: Involution, ball: Ball | BallCensus) -> FixedPointReport:
    """Locate every fixed locus and judge whether it is the expected point.

    ``unique_point`` holds exactly when there is a single locus, it is
    zero-dimensional, and it sits at the canonical cube of the identity on
    the involution's clique, i.e. the one isolated fixed point.
    """
    graph = ball.graph
    loci = []
    for cube in invariant_cubes(inv, ball):
        t = conjugate(cube.base, inv.element, graph)
        flipped = tuple(sorted(support(t)))
        loci.append(
            FixedLocus(
                cube=cube,
                translation=t,
                flipped=flipped,
                dimension=cube.dimension - len(flipped),
                center=tuple("midpoint" if g in flipped else "free" for g in cube.axis),
            )
        )
    # The guard in ``invariant_cubes`` has checked the clique is ascending.
    home = Cube(IDENTITY, inv.clique)
    unique = len(loci) == 1 and loci[0].dimension == 0 and loci[0].cube == home
    return FixedPointReport(
        graph=graph,
        involution=inv,
        loci=tuple(loci),
        unique_point=unique,
        radius_examined=ball.radius - inv.n,
    )


def antipodal_check(inv: Involution, graph: DefiningGraph) -> bool:
    """Verify the involution acts antipodally on its home cube.

    Identify each element of the finite subgroup spanned by the clique with
    its support indicator vector; multiplying by the involution must
    complement every coordinate, the discrete antipodal map.  The subsets
    are visited in Gray-code order, each one letter away from the last, so
    each product is the previous one times one generator: one ``multiply``
    per nonempty subset and memory linear in the clique.  Raises
    ``ValueError`` unless ``inv`` is the product of a maximal clique.
    """
    _maximal_clique(inv, graph)
    return _antipodal(inv, graph)


def _antipodal(inv: Involution, graph: DefiningGraph) -> bool:
    """``antipodal_check`` for an involution that has passed
    ``_maximal_clique``."""
    clique = inv.clique
    product, bits, full = inv.element, 0, _support_mask(clique)
    for step in range(1, 1 << len(clique)):
        if _support_mask(product) != full ^ bits:
            return False
        g = clique[(step & -step).bit_length() - 1]
        product = multiply(product, (g,), graph)
        bits ^= 1 << g
    return _support_mask(product) == full ^ bits

"""The clique involution and its fixed points in a ball.

Multiplying together a maximum clique of the defining graph gives an
order-two element: every factor is an involution and all factors commute.
Left multiplication by that element is a cubical isometry of the Davis
complex, and its fixed set can be read off cube by cube.  A cube (g, T) is
carried to itself exactly when the conjugate t = g^-1 * gamma * g lands in
the subgroup spanned by T; inside the cube the action then flips the
coordinates named by the letters of t, so the fixed locus is the midpoint
subcube on the flipped axes.  Its dimension is |T| minus the number of
flipped coordinates, and it is a single point exactly when every
coordinate flips.

Everything here reads the vertices of length at most the reliable radius,
R - k for a ball of radius R and a maximum clique of size k, and nothing
else.  ``sphere_states`` walks them sphere by sphere off the shortlex
automaton of ``davis`` and carries each vertex's conjugate along: the
conjugate by w*x is x times the conjugate by w times x, one normalization
of a word about as long as the conjugate.  Only the current sphere is
kept, and no ``Ball`` is needed: the functions below take a ball or its
census and read only its graph and radius.  ``fixed_loci`` conjugates in
full only the bases of the invariant cubes, of which there is about one.

The expected picture, verified here on finite balls: one invariant cube,
based at the identity on the maximum clique itself, carrying an isolated
fixed point at its center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .davis import Ball, BallCensus, Cube, _lex_cliques, _spheres, canonical_cube
from .graphs import DefiningGraph
from .spherical import Clique, maximum_spherical
from .words import IDENTITY, Word, conjugate, multiply, support, word_to_text


@dataclass(frozen=True)
class Involution:
    """An order-two element together with the clique that produced it."""

    element: Word
    clique: Clique
    n: int


def build_involution(graph: DefiningGraph) -> Involution:
    """The product of a maximum clique's generators, in ascending order.

    Ascending order makes the product its own shortlex normal form, and any
    other order would give the same element since the factors commute.
    """
    clique = maximum_spherical(graph)
    return Involution(element=tuple(clique), clique=clique, n=len(clique))


def sphere_states(
    inv: Involution, ball: Ball | BallCensus
) -> Iterator[list[tuple[Word, int, int, Word]]]:
    """Yield the spheres 0, 1, ... up to the reliable radius, as lists of
    ``(word, blocked, descents, conj)`` automaton states in shortlex order,
    where conj is word^-1 * gamma * word.

    Stops at the first empty sphere.  See ``davis._spheres`` for the other
    three fields.
    """
    graph = ball.graph

    def step(conj: Word, x: int) -> Word:
        return conjugate((x,), conj, graph)

    return _spheres(graph, ball.radius - inv.n, inv.element, step)


def conjugates(inv: Involution, ball: Ball | BallCensus) -> dict[Word, Word]:
    """Map every vertex v within the reliable radius to v^-1 * gamma * v."""
    return {w: conj for level in sphere_states(inv, ball) for w, _, _, conj in level}


def invariant_cubes(inv: Involution, ball: Ball | BallCensus) -> tuple[Cube, ...]:
    """All reliably-complete cubes mapped to themselves by the involution,
    in the order of ``Ball.cubes``.

    The cube (g, T) is invariant iff g^-1 * gamma * g lies in the subgroup
    spanned by T, i.e. its support is contained in T.  An element of that
    subgroup is a product of distinct commuting generators, so a conjugate
    longer than the clique is skipped at once.
    """
    cliques = _lex_cliques(ball.graph, ball.radius)
    found: list[Cube] = []
    for r, level in enumerate(sphere_states(inv, ball)):
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
    return tuple(found)


@dataclass(frozen=True)
class FixedLocus:
    """The fixed set of the involution inside one invariant cube."""

    cube: Cube
    translation: Word
    flipped: Clique
    dimension: int
    #: per axis coordinate: "midpoint" when that coordinate flips, else "free"
    center: tuple[str, ...]


@dataclass(frozen=True)
class FixedPointReport:
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
        flipped_set = set(flipped)
        loci.append(
            FixedLocus(
                cube=cube,
                translation=t,
                flipped=flipped,
                dimension=cube.dimension - len(flipped),
                center=tuple(
                    "midpoint" if g in flipped_set else "free" for g in cube.axis
                ),
            )
        )
    home = canonical_cube(IDENTITY, inv.clique, graph)
    unique = (
        len(loci) == 1 and loci[0].dimension == 0 and loci[0].cube == home
    )
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
    complement every coordinate, the discrete antipodal map.
    """
    clique = inv.clique
    full = set(clique)
    for bits in range(1 << len(clique)):
        subset = tuple(g for k, g in enumerate(clique) if bits >> k & 1)
        image = multiply(inv.element, subset, graph)
        if support(image) != full - set(subset):
            return False
    return True

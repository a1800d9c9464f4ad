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
R - k for a ball of radius R and a maximum clique C of size k, and nothing
else.  ``walk_spheres`` walks them once, sphere by sphere, off the
shortlex automaton of ``davis``, and keeps only what the reports need: per
sphere the min, max, sum and count of the displacement |w^-1 * gamma * w|,
and the invariant cubes, of which there is about one.  It never conjugates
to measure a displacement.  By the left-descent lemma proven in ``probe``,
|w^-1 * gamma * w| = 2|w| + k - 2m, where m counts the generators of C that
are left descents of w, so each state carries two bitmasks: its left
descents in C and its support.  An ascent w -> w*x adds x to the left
descents exactly when every letter of w commutes with x, one test per
state, so a state costs the same on every sphere; on the infinite
dihedral group the walk is linear in the radius.  A cube can only be
invariant at a base moved by at most k, that is where m = |w|, so w lies
in the subgroup W_C; only those at most 2^k candidates carry their word,
are conjugated in full and have their cubes tested.  The walk holds a sphere
and the next one, and no ``Ball`` is needed.  ``invariant_cubes``,
``fixed_loci`` and ``probe.displacement_profile`` take a ball, its census
or a finished walk; given a ball or a census they walk it themselves,
reading only its graph and radius, and given a walk they read it.
``fixed_loci`` conjugates in full only the bases of the invariant cubes.

The expected picture, verified here on finite balls: one invariant cube,
based at the identity on the maximum clique itself, carrying an isolated
fixed point at its center.
"""

from __future__ import annotations

from typing import NamedTuple

from .davis import Ball, BallCensus, Cube, _lex_cliques, _spheres, canonical_cube
from .graphs import DefiningGraph
from .spherical import Clique, maximum_spherical
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
    return Involution(
        element=tuple(clique), clique=clique, n=len(clique), graph=graph
    )


def _support_mask(word: Word) -> int:
    return sum(1 << g for g in set(word))


class SphereWalk(NamedTuple):
    """What one walk of the spheres up to the reliable radius keeps.

    ``spheres[r]`` is the (min, max, sum, count) of the displacements
    |w^-1 * gamma * w| over the nonempty sphere r, and ``cubes`` the
    invariant cubes.  The graph and the radius of the walked ball let the
    walk stand in for it.
    """

    involution: Involution
    graph: DefiningGraph
    radius: int
    spheres: tuple[tuple[int, int, int, int], ...]
    cubes: tuple[Cube, ...]


def walk_spheres(
    inv: Involution, ball: Ball | BallCensus | SphereWalk
) -> SphereWalk:
    """Walk the spheres up to the reliable radius once, keeping the
    displacement statistics of each sphere and the invariant cubes.

    A walk already made for ``inv`` is returned as it is.

    A vertex w with m left descents in the clique is moved by
    2|w| + k - 2m, so a sphere's statistics come from a histogram of m.
    The cube (g, T) is invariant iff g^-1 * gamma * g lies in the subgroup
    spanned by T, i.e. its support is contained in T.  An element of that
    subgroup is a product of distinct commuting generators, no longer than
    the clique, so only a base with m = |g| can carry one, and a sphere
    without such a vertex is skipped at once.
    """
    if isinstance(ball, SphereWalk):
        if ball.involution != inv:
            raise ValueError("the walk was made for another involution")
        return ball
    graph = ball.graph
    masks = graph.neighbor_masks
    k = inv.n
    cmask = _support_mask(inv.clique)

    # A state's extra is (left descents in C, support, word or None): the
    # word is kept only while every letter is a left descent in C.
    def step(state, x):
        ld, supp, w = state
        bit = 1 << x
        if bit & cmask and not supp & ~masks[x]:
            return ld | bit, supp | bit, None if w is None else w + (x,)
        return ld, supp | bit, None

    cliques = _lex_cliques(graph, ball.radius)
    spheres = []
    found: list[Cube] = []
    for r, level in enumerate(_spheres(graph, ball.radius - k, (0, 0, IDENTITY), step)):
        by_m = [0] * (k + 1)
        for _, _, (ld, _, _) in level:
            by_m[ld.bit_count()] += 1
        present = [m for m, count in enumerate(by_m) if count]
        far = 2 * r + k
        spheres.append(
            (
                far - 2 * present[-1],
                far - 2 * present[0],
                far * len(level) - 2 * sum(m * count for m, count in enumerate(by_m)),
                len(level),
            )
        )
        if present[-1] < r:
            continue
        fitting = [(c, mask) for c, mask in cliques if len(c) <= ball.radius - r]
        for _, descents, (_, _, w) in level:
            if w is None:
                continue
            flips = _support_mask(conjugate(w, inv.element, graph))
            found.extend(
                Cube(w, c)
                for c, mask in fitting
                if not mask & descents and not flips & ~mask
            )
    return SphereWalk(inv, graph, ball.radius, tuple(spheres), tuple(found))


def invariant_cubes(
    inv: Involution, ball: Ball | BallCensus | SphereWalk
) -> tuple[Cube, ...]:
    """All reliably-complete cubes mapped to themselves by the involution,
    in the order of ``Ball.cubes``; see ``walk_spheres``."""
    return walk_spheres(inv, ball).cubes


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


def fixed_loci(
    inv: Involution, ball: Ball | BallCensus | SphereWalk
) -> FixedPointReport:
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
    complement every coordinate, the discrete antipodal map.  The subsets
    are built by doubling, each with its bitmask, and each is multiplied
    once.
    """
    subsets = [(IDENTITY, 0)]
    for g in inv.clique:
        subsets += [(s + (g,), m | 1 << g) for s, m in subsets]
    full = subsets[-1][1]
    return all(
        _support_mask(multiply(inv.element, subset, graph)) == full ^ bits
        for subset, bits in subsets
    )

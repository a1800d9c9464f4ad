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

The conjugates g^-1 * gamma * g are computed once per vertex by
``conjugates``, which walks the ball's prefix tree of normal forms: the
conjugate by w*x is x times the conjugate by w times x, and w comes
before w*x in shortlex order.  Each step is one normalization of a word
about as long as the conjugate, instead of a full conjugation by g per
cube.  ``fixed_loci`` conjugates in full only the bases of the invariant
cubes, of which there is about one.

The expected picture, verified here on finite balls: one invariant cube,
based at the identity on the maximum clique itself, carrying an isolated
fixed point at its center.
"""

from __future__ import annotations

from dataclasses import dataclass

from .davis import Ball, Cube, canonical_cube
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


def conjugates(inv: Involution, ball: Ball) -> dict[Word, Word]:
    """Map every vertex v within the ball's reliable radius to
    v^-1 * gamma * v.

    Walks ``ball.vertices`` in shortlex order.  The prefix v[:-1] of a
    normal form is a normal form that comes earlier in that order, so its
    conjugate is already known, and the conjugate by v = u*x is
    x * conj(u) * x.
    """
    graph = ball.graph
    out: dict[Word, Word] = {}
    for v in ball.vertices:
        if len(v) > ball.reliable_radius:
            break
        out[v] = conjugate(v[-1:], out[v[:-1]], graph) if v else inv.element
    return out


def invariant_cubes(inv: Involution, ball: Ball) -> tuple[Cube, ...]:
    """All reliably-complete cubes mapped to themselves by the involution.

    The cube (g, T) is invariant iff g^-1 * gamma * g lies in the subgroup
    spanned by T, i.e. its support is contained in T.
    """
    conj = conjugates(inv, ball)
    return tuple(
        cube
        for cube in ball.cubes
        if cube.base in conj and support(conj[cube.base]) <= set(cube.axis)
    )


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


def fixed_loci(inv: Involution, ball: Ball) -> FixedPointReport:
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
        radius_examined=ball.reliable_radius,
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

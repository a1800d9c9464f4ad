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

An ``Involution`` holds only its clique C and graph: gamma is C spelled
in ascending order.  Each check first runs one guard, which rejects a C
that is out of range, not strictly ascending or not maximal.

Everything here reads the cubes based within R - k, for a ball of radius
R and a maximal clique C of size k, and needs only the graph and the
radius: a ball and its census serve alike, and no ``Ball`` is built.
An invariant cube (g, T) has g^-1 * gamma * g in W_T, a product of
distinct commuting generators, so g moves by at most k.  By the
left-descent lemma proven in ``probe``, g moves by 2|g| + k - 2m,
where m counts the generators of C that are left descents of g; m is at
most |g|, so m = |g|.  The product of those m descents is a left factor
of g of length |g|, so g is that product, a subset S of C.  W_C is
abelian, so S conjugates gamma to gamma itself and every axis of C
flips.  The axis T holds the flips, so it contains C and, C being
maximal, is C; and it misses the descents of its base S, so S is empty.
``invariant_cubes`` therefore returns the one cube (e, C) once R >= k,
after k conjugations: it tests that each generator of C conjugates
gamma to gamma rather than assume it, and conjugation by a subset is
the composite of those.  ``fixed_loci`` conjugates the base of that
cube once more.

The expected picture, verified here on finite balls: one invariant cube,
based at the identity on the clique itself, carrying an isolated
fixed point at its center.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .graphs import DefiningGraph, _bits
from .growth import BallCensus, Cube
from .spherical import Clique, _mask_of, _near, maximum_spherical
from .words import IDENTITY, Word, conjugate, multiply, support, word_to_text

if TYPE_CHECKING:  # for annotations only: no check here builds a Ball
    from .davis import Ball


class Involution(NamedTuple):
    """The product of a maximal clique's commuting generators, held as the
    clique: gamma, ``element``, is the clique in ascending order, its own
    shortlex normal form, and ``n`` is its size k."""

    clique: Clique
    graph: DefiningGraph

    @property
    def element(self) -> Word:
        return self.clique

    @property
    def n(self) -> int:
        return len(self.clique)

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
    return Involution(maximum_spherical(graph), graph)


def _maximal_clique(inv: Involution, graph: DefiningGraph) -> None:
    """Raise ``ValueError`` unless ``inv`` is on ``graph`` and its clique in
    range, strictly ascending and maximal: its own ``_near``."""
    if inv.graph is not graph and inv.graph != graph:
        raise ValueError(f"involution on {inv.graph!r} used with {graph!r}")
    clique = inv.clique
    mask = _mask_of(clique, graph.n)
    if clique != tuple(_bits(mask)):
        raise ValueError(f"gamma {clique} is not the product of its sorted clique")
    if _near(mask, graph) != mask:
        raise ValueError(f"clique {clique} is not a maximal clique of {graph!r}")


def invariant_cubes(inv: Involution, ball: Ball | BallCensus) -> tuple[Cube, ...]:
    """All reliably-complete cubes mapped to themselves by the involution,
    in the order of ``Ball.cubes``: the home cube (e, C) when the radius
    is at least k, else none.

    By the argument in the module docstring an invariant cube is based in
    W_C, and then it is (e, C).  Each generator s of C is checked to
    conjugate gamma to gamma, so that all of C flips; if one does not, no
    cube is returned.  The clique must be maximal and ``inv`` its product,
    or ``ValueError`` is raised: a cube outside W_C may be invariant.
    """
    graph = ball.graph
    _maximal_clique(inv, graph)
    if ball.radius < inv.n:
        return ()
    gamma = inv.element
    if any(conjugate((s,), gamma, graph) != gamma for s in inv.clique):
        return ()
    return (Cube(IDENTITY, inv.clique),)


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

    Identify each element of W_C, the finite subgroup spanned by the
    clique, with its support indicator vector; multiplying by the
    involution must complement every coordinate, the discrete antipodal
    map.  The check makes k one-letter products, one per generator s of
    C, and tests that supp(gamma * s) = C - {s}; supp(gamma) = C holds
    already, as the guard has checked that gamma is spelled by C.  That
    covers all 2^k elements.  W_C is (Z/2)^k with the support as
    coordinates: every element is the product of its distinct, commuting
    support letters, and a product adds supports mod 2.  So gamma, whose
    support is all of C, adds the all-ones vector, and gamma * x has
    support C - supp(x) for every x in W_C; the generators determine the
    rest.  Raises ``ValueError`` unless the guard passes.
    """
    _maximal_clique(inv, graph)
    gamma, n = inv.element, graph.n
    full = _mask_of(gamma, n)
    return all(
        _mask_of(multiply(gamma, (s,), graph), n) == full ^ (1 << s)
        for s in inv.clique
    )

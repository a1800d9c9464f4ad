"""Displacement growth of the involution, and the certification pipeline.

No vertex is fixed by the involution, so the interesting question is how
far vertices move.  The displacement of a vertex v is the word length of
v^-1 * gamma * v, the distance from v to its image.  Tabulating min, max
and mean displacement sphere by sphere gives a finite stand-in for the
statement that no direction toward infinity is asymptotically fixed: a
fixed boundary direction would show up as bounded displacement along some
escaping sequence, while we observe the per-sphere minimum growing.

On the presets and on every non-complete random graph the tests draw,
each sphere r within the reliable radius has minimum displacement
max(k, 2r - k) and maximum 2r + k, where k is the size of the clique.
This is verified, not proven.  Two parts are easy.  The length of
v^-1 * gamma * v is at most 2r + k.  And gamma swaps the two sides of
each of the k hyperplanes of the home cube, so each separates every
vertex from its image; as the combinatorial distance counts separating
hyperplanes (Sageev, Proc. LMS 1995), no vertex moves by less than k.
That the minimum grows like 2r - k, and that both bounds are attained,
is only checked.

``certify`` bundles every check in the package into one verdict: the
involution squares to the identity, its fixed point in the examined ball
is unique, the local action is antipodal, and min displacement never drops
as the radius grows.  Complete defining graphs present finite groups whose
boundary is empty, so they pass with an explanatory note.  It builds no
ball: the census enforces the vertex cap, and one walk of the spheres up
to the reliable radius, one sphere at a time, feeds both the fixed loci
and the profile.
"""

from __future__ import annotations

from typing import NamedTuple

# build_ball and conjugate are not called here; they stay names of this
# module because bench/tracing.py wraps them.
from .davis import Ball, BallCensus, ball_census, build_ball  # noqa: F401
from .graphs import DefiningGraph
from .involution import (
    Involution,
    SphereWalk,
    antipodal_check,
    build_involution,
    fixed_loci,
    walk_spheres,
)
from .spherical import maximum_spherical
from .words import conjugate, has_order_two, word_to_text  # noqa: F401


class DisplacementProfile(NamedTuple):
    """Per-sphere displacement statistics out to the reliable radius."""

    radii: tuple[int, ...]
    mins: tuple[int, ...]
    maxs: tuple[int, ...]
    means: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "min": list(self.mins),
            "max": list(self.maxs),
            "mean": list(self.means),
        }

    @property
    def monotone(self) -> bool:
        """True when the per-sphere minimum never decreases."""
        return all(a <= b for a, b in zip(self.mins, self.mins[1:]))


def displacement_profile(
    inv: Involution, ball: Ball | BallCensus | SphereWalk
) -> DisplacementProfile:
    """Tabulate displacement over each nonempty sphere up to the reliable
    radius; see ``involution.walk_spheres``."""
    spheres = walk_spheres(inv, ball).spheres
    return DisplacementProfile(
        tuple(range(len(spheres))),
        tuple(low for low, _, _, _ in spheres),
        tuple(high for _, high, _, _ in spheres),
        tuple(total / count for _, _, total, count in spheres),
    )


class Certificate(NamedTuple):
    """Machine-checked verdict for one defining graph at one radius."""

    graph_labels: tuple[str, ...]
    graph_edges: tuple[tuple[str, str], ...]
    complete: bool
    radius: int
    reliable_radius: int
    gamma: str
    clique: tuple[str, ...]
    order_two: bool
    unique_fixed_point: bool
    antipodal: bool
    displacement_monotone: bool
    boundary_note: str | None
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "graph": {
                "generators": list(self.graph_labels),
                "edges": [list(edge) for edge in self.graph_edges],
                "complete": self.complete,
            },
            "radius": self.radius,
            "reliable_radius": self.reliable_radius,
            "gamma": self.gamma,
            "clique": list(self.clique),
            "order_two": self.order_two,
            "unique_fixed_point": self.unique_fixed_point,
            "antipodal": self.antipodal,
            "displacement_monotone": self.displacement_monotone,
            "boundary_note": self.boundary_note,
            "verdict": "pass" if self.verdict else "fail",
        }


def certify(
    graph: DefiningGraph, radius: int, max_vertices: int = 1_000_000
) -> Certificate:
    """Run the whole pipeline and assemble a certificate.

    The radius must exceed the maximum clique size so that at least the
    spheres of radius 0 and 1 are reliably complete; for a complete graph
    the ball saturates the finite group instead, so covering its diameter
    is enough there.
    """
    clique_size = len(maximum_spherical(graph))
    if graph.is_complete:
        if radius < graph.n:
            raise ValueError(
                f"radius {radius} does not cover the finite group; need >= {graph.n}"
            )
    elif radius < clique_size + 1:
        raise ValueError(
            f"radius {radius} too small; need >= {clique_size + 1} "
            f"for a maximum clique of size {clique_size}"
        )
    inv = build_involution(graph)
    census = ball_census(graph, radius, max_vertices=max_vertices)
    walk = walk_spheres(inv, census)
    report = fixed_loci(inv, walk)
    profile = displacement_profile(inv, walk)
    order_two = has_order_two(inv.element, graph)
    antipodal = antipodal_check(inv, graph)
    monotone = profile.monotone
    verdict = order_two and report.unique_point and antipodal and monotone
    return Certificate(
        graph_labels=graph.labels,
        graph_edges=tuple(
            (graph.labels[i], graph.labels[j]) for i, j in graph.edges
        ),
        complete=graph.is_complete,
        radius=radius,
        reliable_radius=census.reliable_radius,
        gamma=word_to_text(inv.element, graph),
        clique=tuple(graph.labels[g] for g in inv.clique),
        order_two=order_two,
        unique_fixed_point=report.unique_point,
        antipodal=antipodal,
        displacement_monotone=monotone,
        boundary_note="empty boundary (finite group)" if graph.is_complete else None,
        verdict=verdict,
    )

"""Displacement growth of the involution, and the certification pipeline.

No vertex is fixed by the involution, so the interesting question is how
far vertices move.  The displacement of a vertex v is the word length of
v^-1 * gamma * v, the distance from v to its image.  Tabulating min, max
and mean displacement sphere by sphere gives a finite stand-in for the
statement that no direction toward infinity is asymptotically fixed: a
fixed boundary direction would show up as bounded displacement along some
escaping sequence, while we observe the per-sphere minimum growing.

``certify`` bundles every check in the package into one verdict: the
involution squares to the identity, its fixed point in the examined ball
is unique, the local action is antipodal, and min displacement never drops
as the radius grows.  Complete defining graphs present finite groups whose
boundary is empty, so they pass with an explanatory note.
"""

from __future__ import annotations

from dataclasses import dataclass

from .davis import Ball, build_ball, sphere
from .graphs import DefiningGraph
from .involution import (
    Involution,
    antipodal_check,
    build_involution,
    conjugates,
    fixed_loci,
)
from .spherical import maximum_spherical
from .words import Word, conjugate, has_order_two, word_to_text


def displacement(inv: Involution, v: Word, graph: DefiningGraph) -> int:
    """Distance from v to gamma*v: the length of v^-1 * gamma * v."""
    return len(conjugate(v, inv.element, graph))


@dataclass(frozen=True)
class DisplacementProfile:
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


def displacement_profile(inv: Involution, ball: Ball) -> DisplacementProfile:
    """Tabulate displacement over each nonempty sphere up to the reliable radius."""
    conj = conjugates(inv, ball)
    radii, mins, maxs, means = [], [], [], []
    for r in range(max(ball.reliable_radius, -1) + 1):
        vertices = sphere(ball, r)
        if not vertices:
            break
        values = [len(conj[v]) for v in vertices]
        radii.append(r)
        mins.append(min(values))
        maxs.append(max(values))
        means.append(sum(values) / len(values))
    return DisplacementProfile(tuple(radii), tuple(mins), tuple(maxs), tuple(means))


@dataclass(frozen=True)
class Certificate:
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
    ball = build_ball(graph, radius, max_vertices=max_vertices)
    report = fixed_loci(inv, ball)
    profile = displacement_profile(inv, ball)
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
        reliable_radius=ball.reliable_radius,
        gamma=word_to_text(inv.element, graph),
        clique=tuple(graph.labels[g] for g in inv.clique),
        order_two=order_two,
        unique_fixed_point=report.unique_point,
        antipodal=antipodal,
        displacement_monotone=monotone,
        boundary_note="empty boundary (finite group)" if graph.is_complete else None,
        verdict=verdict,
    )

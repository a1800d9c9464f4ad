"""Displacement growth of the involution, and the certification pipeline.

No vertex is fixed by the involution, so the interesting question is how
far vertices move.  The displacement of a vertex v is the word length of
v^-1 * gamma * v, the distance from v to its image.  Tabulating min, max
and mean displacement sphere by sphere gives a finite stand-in for the
statement that no direction toward infinity is asymptotically fixed: a
fixed boundary direction would show up as bounded displacement along some
escaping sequence, while we observe the per-sphere minimum growing.

The displacement is exact in terms of left descents.  Let C be the
maximum clique, gamma the product of its k generators, and LD(w) the
left descents of w, the generators s with |s * w| < |w|.  Then

    |w^-1 * gamma * w| = 2|w| + k - 2|LD(w) & C|.

The combinatorial distance counts separating hyperplanes (Sageev, Proc.
LMS 1995), which is the length of a reduced word.  The proof finds a
reduced word for the conjugate with Tits' solution of the word problem
(Le probleme des mots dans les groupes de Coxeter, 1969): in a
right-angled Coxeter group a word is reduced iff no two equal letters s
have only letters adjacent to s in between.

1. The generators of LD(w) & C commute, so their product p is a left
   factor of w: w = p * u with |u| = |w| - |p|.  W_C is abelian, so
   w^-1 * gamma * w = u^-1 * gamma * u.  And u has no left descent s in C.
   If s is a letter of p and u = s * u', then w = (p * s) * u', where
   p * s is p without s, so w would be shorter than |p| + |u|.  If not,
   s commutes with p, so s * w = p * (s * u) is shorter than w, and s
   would be in LD(w) & C after all.
2. The word u^-1 . gamma . u, u spelled backwards, then the letters of C,
   then u, is reduced.  Take two equal letters s with only letters
   adjacent to s in between.  Both in u, or both in u^-1, would make u
   not reduced.  One in gamma and one in u (or in u^-1) would move s to
   the front of u, making s a left descent of u in C.  One in u^-1 and
   one in u would have all of gamma in between, so s would lie outside C
   and be adjacent to all of C, and C would not be a maximum clique.
   Hence |u^-1 * gamma * u| = 2|u| + k = 2|w| + k - 2|LD(w) & C|.

``displacement_profile`` reads the profile off this lemma.  Each state
of the shortlex automaton carries two bitmasks, its left descents in C
and its support.  An ascent w -> w*x adds x to the left descents exactly
when x is in C and every letter of w commutes with x, one test per state,
so a state costs the same on every sphere and the walk is linear in the
radius on the infinite dihedral group.  The lemma also bounds the
profile: 0 <= |LD(w) & C| <= min(r, k) on sphere r, so every vertex there
moves by at least max(k, 2r - k) and by at most 2r + k.  On the presets
and on every non-complete random graph the tests draw, both bounds are
attained on each sphere within the reliable radius; that is only
checked, not proven.  The lemma also limits the invariant cubes to bases
in W_C; see ``involution``.

``certify`` bundles every check in the package into one verdict: the
involution squares to the identity, its fixed point in the examined ball
is unique, the local action is antipodal, and min displacement never drops
as the radius grows.  Complete defining graphs present finite groups whose
boundary is empty, so they pass with an explanatory note.  It builds no
ball: the census enforces the vertex cap, the fixed loci come from the
subsets of the clique, and the profile from one walk of the spheres up to
the reliable radius, one sphere at a time.
"""

from __future__ import annotations

from typing import NamedTuple

# build_ball and conjugate are not called here; they stay names of this
# module because bench/tracing.py wraps them.
from .davis import Ball, BallCensus, _spheres, ball_census, build_ball  # noqa: F401
from .graphs import DefiningGraph
from .involution import Involution, antipodal_check, build_involution, fixed_loci
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
    inv: Involution, ball: Ball | BallCensus
) -> DisplacementProfile:
    """Tabulate displacement over each nonempty sphere up to the reliable
    radius, from a histogram of the left descents in the clique on each
    sphere; a vertex of sphere r with m of them moves by 2r + k - 2m."""
    graph = ball.graph
    masks = graph.neighbor_masks
    k = inv.n
    cmask = sum(1 << g for g in inv.clique)

    def step(state, x):
        ld, supp = state
        bit = 1 << x
        if bit & cmask and not supp & ~masks[x]:
            ld |= bit
        return ld, supp | bit

    mins, maxs, means = [], [], []
    for r, level in enumerate(_spheres(graph, ball.radius - k, (0, 0), step)):
        by_m = [0] * (k + 1)
        for _, _, (ld, _) in level:
            by_m[ld.bit_count()] += 1
        present = [m for m, count in enumerate(by_m) if count]
        far = 2 * r + k
        mins.append(far - 2 * present[-1])
        maxs.append(far - 2 * present[0])
        moved = far * len(level) - 2 * sum(m * count for m, count in enumerate(by_m))
        means.append(moved / len(level))
    return DisplacementProfile(
        tuple(range(len(mins))), tuple(mins), tuple(maxs), tuple(means)
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
    report = fixed_loci(inv, census)
    profile = displacement_profile(inv, census)
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

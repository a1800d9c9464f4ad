"""Displacement growth of the involution, and the certification pipeline.

No vertex is fixed by the involution, so the interesting question is how
far vertices move.  The displacement of a vertex v is the word length of
v^-1 * gamma * v, the distance from v to its image.  Tabulating min, max
and mean displacement sphere by sphere gives a finite stand-in for the
statement that no direction toward infinity is asymptotically fixed: a
fixed boundary direction would show up as bounded displacement along some
escaping sequence, while we observe the per-sphere minimum growing.

The displacement is exact in terms of left descents.  Let C be a
maximal clique, gamma the product of its k generators, and LD(w) the
left descents of w, the generators s with |s * w| < |w|.  Then

    |w^-1 * gamma * w| = 2|w| + k - 2|LD(w) & C|.

The combinatorial distance counts separating hyperplanes (Sageev, Proc.
LMS 1995), which is the length of a reduced word.  The proof finds a
reduced word for the conjugate with Tits' solution of the word problem
(Le probleme des mots dans les groupes de Coxeter, 1969): in a
right-angled Coxeter group a word is reduced iff no two equal letters s
have only letters adjacent to s in between.

1. Every w factors uniquely as w = c * u with c in W_C, u without a
   left descent in C and |w| = |c| + |u|, and then LD(w) & C = supp(c).
   The generators of LD(w) & C commute, so their product c is a left
   factor of w: w = c * u with |u| = |w| - |c|.  If u = s * u' with s in
   C, either s is a letter of c and w = (c * s) * u' is shorter than
   |c| + |u|, or s commutes with c and s * w = c * (s * u) is shorter
   than w, so s is in LD(w) & C after all.  Conversely, for any such c
   and u the word c . u is reduced: the letters of c are distinct, u is
   reduced, and an s of c and an s of u with only letters adjacent to s
   in between would make s a left descent of u.  So each letter of c is
   a left descent of c * u, and no other s in C is one, as s * c * u is
   again such a product, of length |c| + 1 + |u|; c is determined by w.
2. W_C is abelian, so w^-1 * gamma * w = u^-1 * gamma * u.  The word
   u^-1 . gamma . u, u spelled backwards, then the letters of C, then u,
   is reduced.  Take two equal letters s with only letters adjacent to s
   in between.  Both in u, or both in u^-1, would make u not reduced.
   One in gamma and one in u (or in u^-1) would move s to the front of
   u, making s a left descent of u in C.  One in u^-1 and one in u would
   have all of gamma in between, so s would lie outside C and be
   adjacent to all of C, and C would not be a maximal clique.  Hence
   |u^-1 * gamma * u| = 2|u| + k = 2|w| + k - 2|LD(w) & C|.

``displacement_profile`` reads the profile off the growth series.  By
step 1, W(t) = (1+t)^k * Q(t), where Q(t) counts the u by length, so
Q(t) = 1/P(t) in the notation of ``davis``: q_l = [t^l] Q(t) is entry 0
of column l of ``davis._growth_columns``.  Sphere r, counted by entry k
of column r, holds C(k, m) * q_(r-m) vertices that move by 2r + k - 2m.
As m <= min(r, k), they move by at least max(k, 2r - k) and at most
2r + k, and on an infinite group, one of a non-complete graph, both
bounds are attained on every sphere: W_C has infinitely many cosets and
a prefix of a u has no left descent in C, so q_l > 0 for every l.  The
columns are normalized at the largest clique, so the profile needs C to
be a maximum clique.  The lemma also limits the invariant cubes to bases
in W_C; see ``involution``.

``certify`` bundles every check in the package into one verdict: the
involution squares to the identity, its fixed point in the examined ball
is unique, the local action is antipodal, and min displacement never drops
as the radius grows.  Complete defining graphs present finite groups whose
boundary is empty, so they pass with an explanatory note.  It builds no
ball, walks no sphere and makes one walk of the growth series: one clique
search gives k, one clique count the series, and one loop up to the
radius enforces the vertex cap, counts the cells and hands the profile
q_0, ..., q_(R-k).  The fixed loci come from the subsets of the clique.
"""

from __future__ import annotations

from collections import deque
from math import comb, inf
from operator import le, mul
from typing import NamedTuple

# build_ball and conjugate are not called here; they stay names of this
# module because bench/tracing.py wraps them.
from .davis import Ball, BallCensus, _census, build_ball  # noqa: F401
from .graphs import DefiningGraph
from .involution import Involution, antipodal_check, build_involution, fixed_loci
from .spherical import is_spherical, maximum_spherical
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
        return all(map(le, self.mins, self.mins[1:]))


def displacement_profile(
    inv: Involution, ball: Ball | BallCensus
) -> DisplacementProfile:
    """Tabulate displacement over each nonempty sphere up to the reliable
    radius, read off the growth series; a clique that is not a maximum
    clique raises ``ValueError``."""
    graph = ball.graph
    size = len(maximum_spherical(graph))
    if not (is_spherical(inv.clique, graph) and inv.n == len(inv.clique) == size):
        raise ValueError(f"clique {inv.clique} is not a maximum clique of {graph!r}")
    return _census_profile(inv, graph, max(ball.radius, 0), inf)[1]


def _census_profile(
    inv: Involution, graph: DefiningGraph, radius: int, max_vertices: float
) -> tuple[BallCensus, DisplacementProfile]:
    """``ball_census`` and the displacement profile in it, from one walk of
    the growth series: the census hands over q_0, ..., q_(radius - k)."""
    k = inv.n
    qs: list[int] = []
    census = _census(graph, radius, max_vertices, k, qs)
    # recent[m] is q_(r-m); each such u gives C(k, m) vertices c * u.
    sizes = [comb(k, m) for m in range(k + 1)]
    descents = [m * size for m, size in enumerate(sizes)]
    recent = deque([0] * (k + 1), k + 1)
    mins, maxs, means = [], [], []
    for r, q in enumerate(qs):
        recent.appendleft(q)
        # The fewest and most left descents in C; the sphere is nonempty.
        fewest, most = 0, k
        while not recent[fewest]:
            fewest += 1
        while not recent[most]:
            most -= 1
        far = 2 * r + k
        count = sum(map(mul, sizes, recent))
        mins.append(far - 2 * most)
        maxs.append(far - 2 * fewest)
        means.append((far * count - 2 * sum(map(mul, descents, recent))) / count)
    return census, DisplacementProfile(
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
    inv = build_involution(graph)
    if graph.is_complete:
        if radius < graph.n:
            raise ValueError(
                f"radius {radius} does not cover the finite group; need >= {graph.n}"
            )
    elif radius < inv.n + 1:
        raise ValueError(
            f"radius {radius} too small; need >= {inv.n + 1} "
            f"for a maximum clique of size {inv.n}"
        )
    census, profile = _census_profile(inv, graph, radius, max_vertices)
    report = fixed_loci(inv, census)
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

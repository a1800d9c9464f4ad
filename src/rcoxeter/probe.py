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

By step 1 again, gamma * w = (gamma * c) * u with gamma * c in W_C of
support C - supp(c), so |gamma * w| = |w| + k - 2|LD(w) & C|, and hence
the Gromov product (w | gamma * w)_e, half of |w| + |gamma * w| less the
displacement, is 0.

``displacement_profile`` reads the profile off the growth series.  By
step 1, W(t) = (1+t)^k * Q(t), where Q(t) counts the u by length, and
W(t) = (1+t)^K / P(t) in the notation of ``davis``, K the size of a
maximum clique, so Q(t) = (1+t)^(K-k) / P(t): q_l = [t^l] Q(t) is the
rise of entry K - k at column l of ``davis._growth_columns``.  Sphere r
holds C(k, m) * q_(r-m) vertices that move by 2r + k - 2m.  As
m <= min(r, k), they move by at least max(k, 2r - k) and at most 2r + k,
and on an infinite group, one of a non-complete graph, both bounds are
attained on every sphere: W_C has infinitely many cosets and a prefix of
a u has no left descent in C, so q_l > 0 for every l.  The lemma also
limits the invariant cubes to bases in W_C; see ``involution``.

``certify`` bundles every check in the package into one verdict: the
involution squares to the identity, its fixed point in the examined ball
is unique, the local action is antipodal, and the least displacement on
each sphere r is the bound above, max(k, 2r - k), which grows with the
radius.  Complete defining graphs present finite groups whose
boundary is empty, so they pass with an explanatory note.  It builds no
ball, walks no sphere and makes one walk of the growth series: one clique
search gives k, one clique count the series, and one loop up to the
radius enforces the vertex cap, keeps the last k + 1 cumulative columns,
off which the census reads the cells, and hands q_0, ..., q_(R-k) one at
a time to a receiver that counts them and notes the first q <= 0.
Sphere r reaches the bound exactly when q_(r - min(r, k)) > 0, so the
check is that q_l > 0 for every l <= max(0, r - k), r the last sphere
received.  It holds on every graph: on a non-complete one every q_l is
positive, and on K_n the spheres stop at r = n = k, so only q_0 = 1 is
read.  So ``certify`` holds O(k) numbers at any radius, and only the
``profile`` command lists the spheres.  The fixed locus takes k
conjugations, one per generator of the clique, and the antipodal check k
one-letter products.
"""

from __future__ import annotations

from collections import deque
from math import comb, inf
from operator import mul
from typing import NamedTuple

# build_ball and conjugate are not called here; they stay names of this
# module because bench/tracing.py wraps them.
from .davis import Ball, BallCensus, _census, build_ball  # noqa: F401
from .graphs import DefiningGraph
from .involution import Involution, _maximal_clique, antipodal_check
from .involution import build_involution, fixed_loci
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
        """True when sphere r's least displacement is max(k, 2r - k), k = mins[0]."""
        mins = self.mins
        return all(low == max(mins[0], 2 * r - mins[0]) for r, low in enumerate(mins))


def displacement_profile(
    inv: Involution, ball: Ball | BallCensus
) -> DisplacementProfile:
    """Tabulate displacement over each nonempty sphere up to the reliable
    radius, read off the growth series; a clique that is not a maximal
    clique, or an ``inv`` that is not its product, raises ``ValueError``."""
    graph = ball.graph
    _maximal_clique(inv, graph)
    top = len(maximum_spherical(graph))
    return _census_profile(inv, max(ball.radius, 0), inf, top)


class _LeastDisplacement:
    """Receives q_0, q_1, ... from ``_census`` and keeps two numbers: how
    many spheres it received and the index of the first q <= 0.  Sphere r
    moves by max(k, 2r - k) at least, exactly when q_(r - min(r, k)) > 0,
    so ``holds(k)`` says whether every sphere received meets that bound."""

    __slots__ = ("spheres", "gap")

    def __init__(self) -> None:
        self.spheres = 0
        self.gap = inf

    def receive(self, q: int) -> None:
        if q <= 0:
            self.gap = min(self.gap, self.spheres)
        self.spheres += 1

    def holds(self, k: int) -> bool:
        return self.gap > max(0, self.spheres - 1 - k)


def _census_profile(
    inv: Involution, radius: int, max_vertices: float, top: int
) -> DisplacementProfile:
    """The profile in ``ball_census`` of ``inv.graph``, ``top`` its clique
    number, from one growth-series walk: q_0, ..., q_(radius - top) of ``inv``."""
    k = inv.n
    qs: list[int] = []
    _census(inv.graph, radius, max_vertices, top, qs.append, k)
    # recent[m] is q_(r-m); each such u gives C(k, m) vertices c * u.
    sizes = [comb(k, m) for m in range(k + 1)]
    descents = [m * size for m, size in enumerate(sizes)]
    recent = deque([0] * (k + 1), k + 1)
    mins, maxs, means = [], [], []
    for r, q in enumerate(qs):
        recent.appendleft(q)
        # The fewest and the most left descents in C; the sphere is nonempty.
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

    Each sphere's least displacement is checked against max(k, 2r - k) as
    the census walks the growth series, so memory stays O(k) at any
    radius.  The vertex cap still reads the whole ball of the given
    radius, which is never built: it bounds the length of that walk, not
    memory.
    """
    inv = build_involution(graph)
    complete = graph.is_complete
    if complete:
        if radius < graph.n:
            raise ValueError(
                f"radius {radius} does not cover the finite group; need >= {graph.n}"
            )
    elif radius < inv.n + 1:
        raise ValueError(
            f"radius {radius} too small; need >= {inv.n + 1} "
            f"for a maximum clique of size {inv.n}"
        )
    least = _LeastDisplacement()
    census = _census(graph, radius, max_vertices, inv.n, least.receive)
    report = fixed_loci(inv, census)
    order_two = has_order_two(inv.element, graph)
    antipodal = antipodal_check(inv, graph)
    monotone = least.holds(inv.n)
    verdict = order_two and report.unique_point and antipodal and monotone
    return Certificate(
        graph_labels=graph.labels,
        graph_edges=tuple(
            (graph.labels[i], graph.labels[j]) for i, j in graph.edges
        ),
        complete=complete,
        radius=radius,
        reliable_radius=census.reliable_radius,
        gamma=word_to_text(inv.element, graph),
        clique=tuple(graph.labels[g] for g in inv.clique),
        order_two=order_two,
        unique_fixed_point=report.unique_point,
        antipodal=antipodal,
        displacement_monotone=monotone,
        boundary_note="empty boundary (finite group)" if complete else None,
        verdict=verdict,
    )

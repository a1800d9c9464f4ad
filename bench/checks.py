"""Checks of the program's outputs against oracles it does not share.

Each check returns a list of problems; an empty list means the output is
correct.  Word checks use the exact reflection matrices of
``rcoxeter.reflection``, which are plain matrix products over raw words and
never touch normal forms.  Counts are checked against the closed-form
census of ``census.py``.  The time spent in matrix checks is summed in
``Oracle.seconds`` so that the cost of checking stays visible.
"""

from __future__ import annotations

import json
from itertools import combinations
from time import perf_counter

from census import Census


class Oracle:
    """The matrix and shortlex oracles for one graph, with their running cost."""

    def __init__(self, graph, edges):
        from rcoxeter.reflection import tits_matrix

        self._tits = tits_matrix
        self.graph = graph
        self.seconds = 0.0
        self._commute = [set() for _ in range(graph.n)]
        for a, b in edges:
            self._commute[a].add(b)
            self._commute[b].add(a)

    def shortlex_problem(self, word) -> str | None:
        """Why ``word`` is not a shortlex normal form, or None when it is.

        In a right-angled Coxeter group a word is geodesic exactly when no
        letter recurs with only letters commuting with it in between (Tits),
        and a geodesic is the lexicographically least of its commutation
        class exactly when no letter could move left past a larger one it
        commutes with.
        """
        for j, a in enumerate(word):
            for i in range(j - 1, -1, -1):
                b = word[i]
                if b == a:
                    return f"{word} is not geodesic at positions {i} and {j}"
                if b not in self._commute[a]:
                    break
                if a < b:
                    return f"{word} is not lexicographically least at position {i}"
        return None

    def matrix(self, word):
        start = perf_counter()
        try:
            return self._tits(word, self.graph)
        finally:
            self.seconds += perf_counter() - start

    def same_element(self, a, b) -> bool:
        return self.matrix(a) == self.matrix(b)

    def in_coset(self, vertex, base, axis) -> bool:
        """True when vertex = base * (product of some subset of axis)."""
        d = len(vertex) - len(base)
        if not 0 <= d <= len(axis):
            return False
        target = self.matrix(vertex)
        return any(
            self.matrix(tuple(base) + subset) == target
            for subset in combinations(axis, d)
        )


def check_graph(graph, order, edges) -> list[str]:
    problems = []
    if tuple(graph.labels) != tuple(order):
        problems.append(f"parsed labels {graph.labels} differ from file order {order}")
    index = {label: i for i, label in enumerate(order)}
    want = sorted(tuple(sorted((index[a], index[b]))) for a, b in edges)
    if list(graph.edges) != want:
        problems.append(f"parsed edges {graph.edges} differ from {want}")
    return problems


def check_certificate(payload: dict, order, edges, radius, top_clique, complete) -> list[str]:
    """The certificate of a graph whose verdict is known to be pass."""
    clique = [order[g] for g in top_clique]
    want = {
        "radius": radius,
        "reliable_radius": radius - len(top_clique),
        "gamma": " ".join(clique),
        "clique": clique,
        "order_two": True,
        "unique_fixed_point": True,
        "antipodal": True,
        "displacement_monotone": True,
        "boundary_note": "empty boundary (finite group)" if complete else None,
        "verdict": "pass",
    }
    problems = [
        f"certificate {key} is {payload.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if payload.get(key) != value
    ]
    graph = payload.get("graph", {})
    if graph.get("generators") != list(order) or graph.get("complete") != complete:
        problems.append(f"certificate graph {graph!r} does not match the input")
    elif len(graph.get("edges", ())) != len(edges):
        problems.append("certificate lists the wrong number of edges")
    return problems


def check_fixed_loci(report, top_clique) -> list[str]:
    loci = report.loci
    if len(loci) != 1:
        return [f"{len(loci)} fixed loci, expected exactly one"]
    locus = loci[0]
    if locus.dimension != 0 or locus.cube.base != () or locus.cube.axis != tuple(top_clique):
        return [f"fixed locus {locus} is not the point at the identity cube on {top_clique}"]
    return []


def check_ball(ball, census: Census) -> list[str]:
    problems = []
    spheres = [0] * (census.radius + 1)
    for w in ball.vertices:
        if len(w) > census.radius:
            return [f"vertex {w} lies outside radius {census.radius}"]
        spheres[len(w)] += 1
    if tuple(spheres) != census.spheres:
        problems.append(f"sphere sizes {spheres} differ from census {list(census.spheres)}")
    if tuple(ball.cell_counts()) != census.cubes:
        problems.append(
            f"cubes per dimension {ball.cell_counts()} differ from census {census.cubes}"
        )
    if any(
        (len(a), a) >= (len(b), b) for a, b in zip(ball.vertices, ball.vertices[1:])
    ):
        problems.append("vertices are not strictly increasing in shortlex order")
    return problems


def check_flag(report, census: Census, reliable: int) -> list[str]:
    problems = []
    if not report.ok:
        problems.append(f"flag check failed: {report.violations}")
    want = census.vertices_within(reliable)
    if report.vertices_checked != want:
        problems.append(f"flag check visited {report.vertices_checked} vertices, expected {want}")
    return problems


def check_cubes_at_vertex(vertex, grouped, census: Census) -> list[str]:
    """A vertex whose every coset cube fits meets one cube per clique."""
    counts = tuple(len(grouped.get(k, ())) for k in range(len(census.cliques_by_size)))
    if counts != census.cliques_by_size:
        return [f"cubes at {vertex}: {counts} per dimension, expected {census.cliques_by_size}"]
    return []


def check_cube_contains(oracle: Oracle, vertex, cube) -> list[str]:
    if not oracle.in_coset(vertex, cube.base, cube.axis):
        return [f"cube {cube} does not contain vertex {vertex}"]
    return []


def check_shortlex(oracle: Oracle, words) -> list[str]:
    problems = [p for p in map(oracle.shortlex_problem, words) if p]
    if len(set(words)) != len(words):
        problems.append("the same word occurs twice")
    return problems


def check_words(oracle: Oracle, pairs, normal_form) -> list[str]:
    """Each (input, output) spells one element in shortlex normal form."""
    problems = []
    for word, out in pairs:
        if len(out) > len(word):
            problems.append(f"normal form of {word} is longer than its input")
        elif not oracle.same_element(word, out):
            problems.append(f"normal form {out} of {word} is another element")
        elif oracle.shortlex_problem(out):
            problems.append(oracle.shortlex_problem(out))
        elif normal_form(out) != out:
            problems.append(f"normal form {out} is not idempotent")
    return problems


def check_products(oracle: Oracle, triples) -> list[str]:
    return [
        f"{x} * {y} gave {out}, another element or not a normal form"
        for x, y, out in triples
        if len(out) > len(x) + len(y)
        or oracle.shortlex_problem(out)
        or not oracle.same_element(x + y, out)
    ]


def check_exports(text_json: str, text_dot: str, radius, reliable, census: Census) -> list[str]:
    problems = []
    payload = json.loads(text_json)
    vertices, cubes = census.vertices, sum(census.cubes[1:])
    if (
        payload.get("radius") != radius
        or payload.get("reliable_radius") != reliable
        or len(payload.get("vertices", ())) != vertices
        or len(payload.get("cubes", ())) != cubes
    ):
        problems.append("JSON export does not match the census")
    lines = text_dot.splitlines()
    edges = census.cubes[1] if len(census.cubes) > 1 else 0
    if lines[:1] != ["graph davis_ball {"] or len(lines) != vertices + edges + 2:
        problems.append(f"DOT export has {len(lines)} lines, expected {vertices + edges + 2}")
    return problems

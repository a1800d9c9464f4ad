"""Closed-form census of a Davis-complex ball, from brute-force cliques.

The growth series W(t) of a right-angled Coxeter group satisfies

    1/W(t) = sum over cliques T of (-t/(1+t))^|T|

and the minimal representatives of the cosets of W_T are counted by
W(t)/(1+t)^|T|.  A ball of radius R stores the cube (w, T) exactly when
w is such a representative and |w| + |T| <= R.  All series are exact
integer power series truncated at degree R; nothing here calls the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb


def brute_force_cliques(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Every clique (the empty one included), by filtering all subsets."""
    adjacent = {frozenset(e) for e in edges}
    return tuple(
        subset
        for size in range(n + 1)
        for subset in combinations(range(n), size)
        if all(frozenset(pair) in adjacent for pair in combinations(subset, 2))
    )


def maximum_clique(cliques) -> tuple[int, ...]:
    """Largest clique, ties broken by the least index tuple."""
    top = max(len(c) for c in cliques)
    return min(c for c in cliques if len(c) == top)


def _inverse_binomial(k: int, degree: int) -> list[int]:
    """Coefficients of (1+t)^-k up to t^degree."""
    if k == 0:
        return [1] + [0] * degree
    return [(-1) ** j * comb(k + j - 1, j) for j in range(degree + 1)]


def _times(a: list[int], b: list[int], degree: int) -> list[int]:
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(degree + 1)]


@dataclass(frozen=True)
class Census:
    radius: int
    #: vertices per sphere, radius 0..R
    spheres: tuple[int, ...]
    #: cubes per dimension, 0-cubes (the vertices) first
    cubes: tuple[int, ...]
    #: cliques per size, the empty clique first
    cliques_by_size: tuple[int, ...]

    @property
    def vertices(self) -> int:
        return sum(self.spheres)

    def vertices_within(self, r: int) -> int:
        return sum(self.spheres[: max(r + 1, 0)])


def census(cliques, radius: int) -> Census:
    sizes = [0] * (max(len(c) for c in cliques) + 1)
    for c in cliques:
        sizes[len(c)] += 1
    # f(t) = 1/W(t) = sum_k c_k (-t)^k (1+t)^-k
    f = [0] * (radius + 1)
    for k, count in enumerate(sizes):
        if k > radius:
            break
        series = _inverse_binomial(k, radius - k)
        for j, coeff in enumerate(series):
            f[k + j] += count * (-1) ** k * coeff
    w = [1] + [0] * radius
    for m in range(1, radius + 1):
        w[m] = -sum(f[i] * w[m - i] for i in range(1, m + 1))
    cubes = []
    for k, count in enumerate(sizes):
        if k > radius:
            break
        reps = _times(w, _inverse_binomial(k, radius), radius)
        cubes.append(count * sum(reps[: radius - k + 1]))
    while len(cubes) > 1 and cubes[-1] == 0:
        cubes.pop()
    return Census(radius, tuple(w), tuple(cubes), tuple(sizes))

"""Exact integer matrices for the canonical reflection representation.

Each generator acts on the lattice Z^V by an integer reflection: it negates
its own basis vector, fixes the basis vectors of generators it commutes
with, and maps any other e_b to e_b + 2*e_a.  Extending multiplicatively
gives a faithful representation, so two words spell the same group element
exactly when their matrices agree.  That equivalence is what makes these
matrices an independent oracle for the word problem: they are computed by
plain matrix products, never by normal forms.

All arithmetic is exact.  Python integers are unbounded, so entries can
never overflow or wrap.
"""

from __future__ import annotations

from .graphs import DefiningGraph

#: A square integer matrix, row-major; column j holds the image of e_j.
Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def generator_matrix(g: int, graph: DefiningGraph) -> Matrix:
    """The reflection matrix of one generator."""
    n = graph.n
    if not 0 <= g < n:
        raise ValueError(f"generator index {g} out of range for {graph!r}")
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[g][g] = -1
    for b in range(n):
        if b != g and not graph.adjacent(g, b):
            rows[g][b] = 2
    return tuple(tuple(row) for row in rows)


def matrix_product(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def tits_matrix(word, graph: DefiningGraph) -> Matrix:
    """Matrix of an arbitrary word, the product of its generator matrices.

    The word need not be a normal form; the map is a homomorphism from
    words to matrices.
    """
    result = identity_matrix(graph.n)
    for g in word:
        result = matrix_product(result, generator_matrix(g, graph))
    return result

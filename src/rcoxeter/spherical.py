"""Spherical subsets: cliques of the defining graph and the chamber.

A subset of the generators spans a finite subgroup exactly when its members
pairwise commute, i.e. when it is a clique of the defining graph.  These
"spherical" subsets, ordered by inclusion and with the empty set included,
form the poset whose order complex is the chamber: the fundamental domain
that gets copied across the group to assemble the Davis complex.

Subsets are handled as strictly increasing tuples of generator indices; the
enumeration order everywhere is size first, then lexicographic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .graphs import DefiningGraph, _Frozen

#: A spherical subset: a strictly increasing tuple of generator indices.
Clique = tuple[int, ...]


def _mask_of(subset: Iterable[int], n: int) -> int:
    mask = 0
    for g in subset:
        if not 0 <= g < n:
            raise ValueError(f"generator index {g} out of range")
        mask |= 1 << g
    return mask


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_spherical(subset: Iterable[int], graph: DefiningGraph) -> bool:
    """True when the subset is a clique (the empty set vacuously is)."""
    members = list(subset)
    _mask_of(members, graph.n)
    return all(
        graph.adjacent(a, b)
        for i, a in enumerate(members)
        for b in members[i + 1 :]
        if a != b
    )


def _clique_levels(n: int, masks: tuple[int, ...]) -> Iterator[list[tuple[Clique, int]]]:
    """Yield the cliques of an n-vertex graph given as neighbor bitmasks,
    one size at a time from the empty clique, each size in lexicographic
    order.

    A clique comes paired with the vertices above its largest that are
    adjacent to all of it: the clique's extensions, so the next size has
    as many cliques as those masks have bits.  Cliques are grown by their
    largest vertex, and a size is built only when the next one is asked for.
    """
    level: list[tuple[Clique, int]] = [((), (1 << n) - 1)]
    while level:
        yield level
        level = [
            (clique + (v,), above & masks[v] >> v + 1 << v + 1)
            for clique, above in level
            for v in _bits(above)
        ]


def _clique_counts(n: int, masks: tuple[int, ...]) -> Iterator[int]:
    """Yield the number of cliques of each size, from the empty clique on,
    as ``_clique_levels`` would list them, but keeping only each clique's
    extension mask, never the clique.

    A size is counted from its parents' masks before its own masks are
    built, so a caller that stops on a count allocates nothing for it.
    """
    level = [(1 << n) - 1]
    yield 1
    while True:
        size = sum(above.bit_count() for above in level)
        if not size:
            return
        yield size
        level = [
            above & masks[v] >> v + 1 << v + 1 for above in level for v in _bits(above)
        ]


def _cliques_of_masks(n: int, masks: tuple[int, ...]) -> tuple[Clique, ...]:
    """All cliques of an n-vertex graph given as neighbor bitmasks, in
    size-then-lexicographic order, starting with the empty clique."""
    return tuple(clique for level in _clique_levels(n, masks) for clique, _ in level)


def all_cliques(graph: DefiningGraph) -> tuple[Clique, ...]:
    """Every clique of the defining graph, the empty one included."""
    return _cliques_of_masks(graph.n, graph.neighbor_masks)


def _maximal_clique_masks(n: int, masks: tuple[int, ...]) -> list[int]:
    """Bron-Kerbosch with pivoting, on bitmask vertex sets."""
    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            return
        pivot = max(_bits(p | x), key=lambda v: (p & masks[v]).bit_count())
        for v in _bits(p & ~masks[pivot]):
            bit = 1 << v
            expand(r | bit, p & masks[v], x & masks[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << n) - 1, 0)
    return found


def maximum_spherical(graph: DefiningGraph) -> Clique:
    """A maximum clique; ties go to the lexicographically least index tuple.

    >>> from .graphs import preset
    >>> maximum_spherical(preset("grid"))
    (0, 2)
    """
    best: Clique | None = None
    best_size = -1
    for mask in _maximal_clique_masks(graph.n, graph.neighbor_masks):
        clique = tuple(_bits(mask))
        if len(clique) > best_size or (len(clique) == best_size and clique < best):
            best, best_size = clique, len(clique)
    assert best is not None  # graphs have at least one generator
    return best


class SphericalPoset(_Frozen):
    """All spherical subsets of a graph, ordered by inclusion."""

    __slots__ = ("graph", "elements")

    def __init__(self, graph: DefiningGraph, elements: tuple[Clique, ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Clique]:
        return iter(self.elements)

    def __contains__(self, subset) -> bool:
        return tuple(subset) in set(self.elements)

    @staticmethod
    def leq(a: Clique, b: Clique) -> bool:
        return set(a) <= set(b)


def spherical_poset(graph: DefiningGraph) -> SphericalPoset:
    """The inclusion poset of all cliques, empty set included."""
    return SphericalPoset(graph, all_cliques(graph))


#: A simplex of the chamber: a chain of cliques, strictly increasing.
Chain = tuple[Clique, ...]


class ChamberComplex(NamedTuple):
    """The order complex of the spherical poset.

    Simplices are the nonempty chains of the poset; the empty subset acts
    as the cone point, so every vertex of the complex is one poset element
    and the dimension equals the size of a maximum clique.
    """

    poset: SphericalPoset
    simplices: tuple[Chain, ...]

    @property
    def dimension(self) -> int:
        return max(len(chain) for chain in self.simplices) - 1

    @property
    def vertex_count(self) -> int:
        return sum(1 for chain in self.simplices if len(chain) == 1)

    def counts_by_dimension(self) -> tuple[int, ...]:
        counts = [0] * (self.dimension + 1)
        for chain in self.simplices:
            counts[len(chain) - 1] += 1
        return tuple(counts)

    @property
    def maximal_chains(self) -> tuple[Chain, ...]:
        top = self.dimension + 1
        return tuple(chain for chain in self.simplices if len(chain) == top)


def chamber_complex(poset: SphericalPoset) -> ChamberComplex:
    """All chains of the poset, ordered by size then element rank."""
    elements = poset.elements
    rank = {e: i for i, e in enumerate(elements)}
    # elements are sorted by size, so strict supersets always come later
    successors: list[list[int]] = [
        [
            j
            for j in range(i + 1, len(elements))
            if len(elements[j]) > len(elements[i])
            and set(elements[i]) < set(elements[j])
        ]
        for i in range(len(elements))
    ]
    chains: list[tuple[int, ...]] = []

    def grow(chain: list[int]) -> None:
        chains.append(tuple(chain))
        for j in successors[chain[-1]]:
            chain.append(j)
            grow(chain)
            chain.pop()

    for i in range(len(elements)):
        grow([i])
    chains.sort(key=lambda c: (len(c), c))
    simplices = tuple(tuple(elements[i] for i in chain) for chain in chains)
    return ChamberComplex(poset, simplices)

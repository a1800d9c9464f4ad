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

from typing import Iterable, Iterator, NamedTuple, Sequence

from .graphs import DefiningGraph, _Frozen, _bits

#: A spherical subset: a strictly increasing tuple of generator indices.
Clique = tuple[int, ...]


def _mask_of(subset: Iterable[int], n: int) -> int:
    mask = 0
    for g in subset:
        if not 0 <= g < n:
            raise ValueError(f"generator index {g} out of range")
        mask |= 1 << g
    return mask


def _near(mask: int, graph: DefiningGraph) -> int:
    """The generators in, or adjacent to, every generator of the mask; the
    mask is a clique when it lies within them, a maximal one if it is them."""
    near = (1 << graph.n) - 1
    for g in _bits(mask):
        near &= graph.neighbor_masks[g] | 1 << g
    return near


def is_spherical(subset: Iterable[int], graph: DefiningGraph) -> bool:
    """True when the subset is a clique (the empty set vacuously is)."""
    mask = _mask_of(subset, graph.n)
    return _near(mask, graph) & mask == mask


def _clique_levels(
    n: int, masks: Sequence[int], root: int = -1
) -> Iterator[list[tuple[Clique, int]]]:
    """Yield the cliques of an n-vertex graph given as neighbor bitmasks,
    one size at a time from the empty clique, each size in lexicographic
    order.

    Only the vertices in the bitmask ``root`` are used, every vertex by
    default, so the cliques are those of the subgraph they induce.  A clique
    comes paired with the root vertices above its largest that are adjacent
    to all of it: the clique's extensions, so the next size has as many
    cliques as those masks have bits.  Cliques are grown by their largest
    vertex, and a size is built only when the next one is asked for.  A
    vertex's mask is read only above the vertex itself.
    """
    level: list[tuple[Clique, int]] = [((), root & (1 << n) - 1)]
    while level:
        yield level
        level = [
            (clique + (v,), above & masks[v] >> v + 1 << v + 1)
            for clique, above in level
            for v in _bits(above)
        ]


def _clique_counts(n: int, masks: tuple[int, ...]) -> Iterator[int]:
    """Yield the number of cliques of each size, from the empty clique on,
    as ``_clique_levels`` would list them.

    A size is held as a dict from extension mask to the number of its
    cliques with that mask, never as the cliques: cliques with equal masks
    have the same extensions, so they are counted together, and a mask
    with no extension is dropped.  On K_n a size then holds at most n
    masks, not C(n, d) cliques.  A size is counted from its parents' masks
    before its own are built, so a caller that stops on a count allocates
    nothing for it.
    """
    level = {(1 << n) - 1: 1}
    yield 1
    while True:
        size = sum(above.bit_count() * count for above, count in level.items())
        if not size:
            return
        yield size
        children: dict[int, int] = {}
        for above, count in level.items():
            for v in _bits(above):
                child = above & masks[v] >> v + 1 << v + 1
                if child:
                    children[child] = children.get(child, 0) + count
        level = children


def all_cliques(graph: DefiningGraph) -> tuple[Clique, ...]:
    """Every clique of the defining graph, the empty one included, in
    size-then-lexicographic order."""
    levels = _clique_levels(graph.n, graph.neighbor_masks)
    return tuple(clique for level in levels for clique, _ in level)


def maximum_spherical(graph: DefiningGraph) -> Clique:
    """A maximum clique; ties go to the lexicographically least index tuple.

    A depth-first branch-and-bound search listing no maximal clique
    (Carraghan and Pardalos, 1990).  A clique grows by its least candidate
    first, a vertex above its largest and adjacent to all of it, so cliques
    come in lexicographic order; only a strictly larger one replaces the
    best and only a branch that cannot beat it is cut: the least maximum wins.

    >>> from .graphs import preset
    >>> maximum_spherical(preset("grid"))
    (0, 2)
    """
    best: Clique = ()

    def grow(clique: Clique, cand: int) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = clique
        while cand and len(clique) + cand.bit_count() > len(best):
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            grow(clique + (v,), cand & graph.neighbor_masks[v])

    grow((), (1 << graph.n) - 1)
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
        return tuple(subset) in self.elements


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
    """All chains of the poset, ordered by size then element rank: the
    nonempty cliques of the graph joining each element to every later one
    that strictly contains it, in the order ``_clique_levels`` lists them."""
    elements = poset.elements
    masks = [_mask_of(element, poset.graph.n) for element in elements]
    n = len(masks)
    above = [
        sum(1 << j for j in range(i + 1, n) if mask & masks[j] == mask != masks[j])
        for i, mask in enumerate(masks)
    ]
    chains = (c for level in _clique_levels(n, above) for c, _ in level if c)
    return ChamberComplex(poset, tuple(tuple(elements[i] for i in c) for c in chains))

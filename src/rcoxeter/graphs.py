"""Defining graphs of right-angled Coxeter groups.

A right-angled Coxeter group is presented by a finite simple graph: the
vertices are the generators, every generator is an involution, and an edge
between two generators means they commute.  Non-adjacent generators satisfy
no relation at all.  The graph therefore carries the entire presentation,
and everything else in this package is computed from it.

Vertex order matters: the order in which generators are listed fixes the
lexicographic order used by shortlex normal forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class GraphParseError(ValueError):
    """Malformed defining-graph description."""


class DuplicateLabelError(GraphParseError):
    """A generator label occurs more than once."""


class SelfLoopError(GraphParseError):
    """An edge joins a generator to itself."""


class UnknownLabelError(GraphParseError):
    """A label is not among the declared generators."""


class EmptyVertexListError(GraphParseError):
    """The description declares no generators."""


@dataclass(frozen=True)
class DefiningGraph:
    """A finite simple graph on named generators.

    ``labels`` lists the generator names in the order that defines the
    shortlex order.  ``neighbor_masks[i]`` is a bitmask over generator
    indices with bit ``j`` set exactly when generators ``i`` and ``j``
    commute.  The mask relation is symmetric and irreflexive.
    """

    labels: tuple[str, ...]
    neighbor_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise EmptyVertexListError("graph has no generators")
        seen: set[str] = set()
        for label in self.labels:
            if not label:
                raise GraphParseError("empty generator label")
            # Words are spelled as space-joined labels.
            if any(c.isspace() for c in label):
                raise GraphParseError(f"generator label {label!r} contains whitespace")
            if label in seen:
                raise DuplicateLabelError(f"duplicate label {label!r}")
            seen.add(label)
        n = len(self.labels)
        if len(self.neighbor_masks) != n:
            raise GraphParseError("adjacency size does not match label count")
        for i, mask in enumerate(self.neighbor_masks):
            if mask >> n:
                raise GraphParseError("adjacency refers to unknown generator index")
            if mask >> i & 1:
                raise SelfLoopError(f"self-loop at {self.labels[i]!r}")
            for j in range(n):
                if (mask >> j & 1) != (self.neighbor_masks[j] >> i & 1):
                    raise GraphParseError(
                        f"adjacency not symmetric between {self.labels[i]!r} "
                        f"and {self.labels[j]!r}"
                    )

    @classmethod
    def from_edges(
        cls, labels: tuple[str, ...] | list[str], edges
    ) -> "DefiningGraph":
        """Build a graph from generator labels and commuting pairs of labels."""
        labels = tuple(labels)
        index = {}
        for i, label in enumerate(labels):
            if label in index:
                raise DuplicateLabelError(f"duplicate label {label!r}")
            index[label] = i
        masks = [0] * len(labels)
        if not labels:
            raise EmptyVertexListError("graph has no generators")
        for edge in edges:
            pair = tuple(edge)
            if len(pair) != 2:
                raise GraphParseError(f"edge {pair!r} does not have two endpoints")
            u, v = pair
            for endpoint in (u, v):
                if endpoint not in index:
                    raise UnknownLabelError(f"edge references unknown label {endpoint!r}")
            if u == v:
                raise SelfLoopError(f"self-loop at {u!r}")
            i, j = index[u], index[v]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return cls(labels, tuple(masks))

    @property
    def n(self) -> int:
        return len(self.labels)

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.neighbor_masks[i] >> j & 1)

    @property
    def adjacency(self) -> tuple[tuple[bool, ...], ...]:
        """The symmetric boolean adjacency matrix (false on the diagonal)."""
        n = self.n
        return tuple(
            tuple(bool(self.neighbor_masks[i] >> j & 1) for j in range(n))
            for i in range(n)
        )

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All commuting pairs as sorted index pairs, in lexicographic order."""
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.adjacent(i, j)
        )

    @property
    def is_complete(self) -> bool:
        """True when every two generators commute (the group is then finite)."""
        full = (1 << self.n) - 1
        return all(
            self.neighbor_masks[i] == full ^ (1 << i) for i in range(self.n)
        )

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"unknown generator label {label!r}") from None

    def __repr__(self) -> str:
        edge_text = ", ".join(
            f"{self.labels[i]}-{self.labels[j]}" for i, j in self.edges
        )
        return f"DefiningGraph({' '.join(self.labels)}; {edge_text})"


def _parse_json_graph(text: str) -> DefiningGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON graph: {exc}") from None
    except RecursionError:
        raise GraphParseError("invalid JSON graph: nested too deeply") from None
    if not isinstance(data, dict) or "vertices" not in data:
        raise GraphParseError('JSON graph must be an object with a "vertices" key')
    vertices = data["vertices"]
    edges = data.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphParseError('"vertices" must be a list of strings')
    if not isinstance(edges, list) or not all(
        isinstance(edge, list)
        and len(edge) == 2
        and all(isinstance(label, str) for label in edge)
        for edge in edges
    ):
        raise GraphParseError('"edges" must be a list of two-string lists')
    return DefiningGraph.from_edges(tuple(vertices), edges)


def _parse_text_graph(text: str) -> DefiningGraph:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise EmptyVertexListError("graph has no generators")
    labels = tuple(lines[0].split())
    edges = []
    for line in lines[1:]:
        endpoints = line.split()
        if len(endpoints) != 2:
            raise GraphParseError(f"edge line {line!r} must name exactly two labels")
        edges.append(tuple(endpoints))
    return DefiningGraph.from_edges(labels, edges)


def parse_graph(text: str) -> DefiningGraph:
    """Parse a defining graph from either accepted format.

    Format A is JSON: ``{"vertices": ["a", "b"], "edges": [["a", "b"]]}``.
    Format B is plain text: the first non-blank line lists the generator
    labels separated by spaces, and every later line names one edge as two
    labels.  Generator order is the order of appearance.  Text whose first
    non-blank character is ``{`` or ``[`` is read as JSON.
    """
    if text.lstrip()[:1] in ("{", "["):
        return _parse_json_graph(text)
    return _parse_text_graph(text)


def _cycle(labels: tuple[str, ...]) -> DefiningGraph:
    n = len(labels)
    return DefiningGraph.from_edges(
        labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    )


#: Built-in graphs spanning finite, virtually cyclic, hyperbolic and
#: product behaviour.
PRESETS: dict[str, DefiningGraph] = {
    "square": DefiningGraph.from_edges(("a", "b"), (("a", "b"),)),
    "dinfty": DefiningGraph.from_edges(("a", "b"), ()),
    "pentagon": _cycle(("v0", "v1", "v2", "v3", "v4")),
    "grid": DefiningGraph.from_edges(
        ("a", "b", "c", "d"),
        (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")),
    ),
}


def preset(name: str) -> DefiningGraph:
    """Return a built-in defining graph by name."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})") from None

"""Edge labelings as first-class values and their induced colorings.

A labeling is a bijection from the edges onto [1..q]; the induced color
of a vertex is the sum of the labels on its incident edges.  A labeling
is local antimagic when no edge joins two vertices of equal color.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BijectionError
from .graph import Edge, Graph, bipartition, edge, is_bipartite_equal_parts


@dataclass(frozen=True, eq=False)
class EdgeLabeling:
    """``values[t]`` labels edge t, ``graph.ends[t]``; ``labels`` is the
    id-keyed view, built on first use.  Two labelings are equal when they
    put the same labels on the same graph, in any vertex or edge order."""

    graph: Graph
    values: tuple[int, ...]

    def __post_init__(self):
        q = self.graph.size
        if sorted(self.values) != list(range(1, q + 1)):
            raise BijectionError(f"labels must be a bijection onto [1..{q}]")

    @classmethod
    def from_dict(cls, graph: Graph, labels: dict[Edge, int]) -> "EdgeLabeling":
        """The labeling an edge -> label dict describes; the one place a
        label dict is checked against the edge set."""
        at = graph.edge_index
        if labels.keys() != at.keys():
            raise BijectionError("labels must cover exactly the edge set")
        values = [0] * len(at)
        for e, lab in labels.items():
            values[at[e]] = lab
        return cls(graph, tuple(values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeLabeling):
            return NotImplemented
        return set(self.graph.names) == set(other.graph.names) and self.labels == other.labels

    @cached_property
    def labels(self) -> dict[Edge, int]:
        return dict(zip(self.graph.edge_index, self.values))

    def relabel_edges(self, new_graph: Graph) -> "EdgeLabeling":
        """Carry the labels across a surgery whose edge t became edge t of
        ``new_graph``.  The values were checked as a bijection when this
        labeling was made, so only the edge count is checked again.

        If ``new_graph`` was merged from this labeling's graph, the new
        labeling carries its coloring: a class's sum is its members' sums
        added, since every edge keeps its label and ``merge_positions``
        lets no edge join two members of one class."""
        if new_graph.size != len(self.values):
            raise BijectionError(f"labels must be a bijection onto [1..{new_graph.size}]")
        out = object.__new__(EdgeLabeling)  # skips the check in __post_init__
        out.__dict__.update(graph=new_graph, values=self.values)
        if new_graph.merged_from is not None and new_graph.merged_from[0] is self.graph:
            sums = [0] * new_graph.order
            for at, c in zip(new_graph.merged_from[1], self.coloring.sums):
                sums[at] += c
            out.__dict__["coloring"] = InducedColoring(tuple(sums))
        return out

    @cached_property
    def coloring(self) -> "InducedColoring":
        return induce(self)


@dataclass(frozen=True)
class InducedColoring:
    """``sums[i]`` is the color of the vertex at position i of the labeled
    graph; ids are read through the graph's ``names``."""

    sums: tuple[int, ...]

    @cached_property
    def color_set(self) -> frozenset[int]:
        return frozenset(self.sums)

    @property
    def c(self) -> int:
        return len(self.color_set)


def induce(labeling: EdgeLabeling) -> InducedColoring:
    """Per-vertex sums of incident labels; the total is always q(q+1)."""
    g = labeling.graph
    sums = [0] * g.order
    for (a, b), lab in zip(g.ends, labeling.values):
        sums[a] += lab
        sums[b] += lab
    return InducedColoring(tuple(sums))


def is_local_antimagic(labeling: EdgeLabeling) -> tuple[bool, list[Edge]]:
    """Check the defining condition; violating edges are listed as
    ``edge()`` pairs, sorted by id."""
    sums = labeling.coloring.sums
    bad = [(a, b) for a, b in labeling.graph.ends if sums[a] == sums[b]]
    if not bad:
        return True, []
    names = labeling.graph.names
    return False, sorted(edge(names[a], names[b]) for a, b in bad)


def chi_la_lower_bound(g: Graph) -> tuple[int, str]:
    """Sound lower bound for the local antimagic chromatic number.

    A 2-coloring forces a bipartition with strictly unequal class sizes
    carrying equal total weight, so a bipartite graph whose components
    all have equal partite sizes needs at least 3 colors.  A graph that
    is not even 2-chromatic needs at least 3 as well, and so does one
    whose components' side ratios differ or whose smaller and larger
    sides, summed, do not both divide q(q+1)/2.  An edgeless graph
    has only the empty labeling: one color (0), or none without vertices.
    The bound never overstates; it is not always attained (e.g. a single
    edge).
    """
    if not g.ends:
        return min(g.order, 1), "edgeless"
    if is_bipartite_equal_parts(g):
        return 3, "equal-bipartition"
    parts = bipartition(g)
    if None in parts:
        return 3, "chromatic"
    small = [min(len(s), len(t)) for s, t in parts]
    big = [max(len(s), len(t)) for s, t in parts]
    alpha, beta, half = sum(small), sum(big), g.size * (g.size + 1) // 2
    if half % alpha or half % beta or any(s * beta != b * alpha for s, b in zip(small, big)):
        return 3, "two-color-divisibility"
    return 2, "adjacent-pair"

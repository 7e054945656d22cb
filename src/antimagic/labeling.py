"""Edge labelings as first-class values and their induced colorings.

A labeling is a bijection from the edges onto [1..q]; the induced color
of a vertex is the sum of the labels on its incident edges.  A labeling
is local antimagic when no edge joins two vertices of equal color.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BijectionError
from .graph import Edge, Graph, VertexId, bipartition, is_bipartite_equal_parts


@dataclass(frozen=True)
class EdgeLabeling:
    graph: Graph
    labels: dict[Edge, int]

    def __post_init__(self):
        q = self.graph.size
        if set(self.labels) != set(self.graph.edges):
            raise BijectionError("labels must cover exactly the edge set")
        if sorted(self.labels.values()) != list(range(1, q + 1)):
            raise BijectionError(f"labels must be a bijection onto [1..{q}]")

    @property
    def q(self) -> int:
        return self.graph.size

    def relabel_edges(self, edge_map: dict[Edge, Edge], new_graph: Graph) -> "EdgeLabeling":
        """Carry labels across a surgery described by old-edge -> new-edge."""
        moved = {edge_map[e]: lab for e, lab in self.labels.items()}
        return EdgeLabeling(new_graph, moved)

    @cached_property
    def coloring(self) -> "InducedColoring":
        return induce(self)


@dataclass(frozen=True)
class InducedColoring:
    colors: dict[VertexId, int]

    @cached_property
    def color_set(self) -> frozenset[int]:
        return frozenset(self.colors.values())

    @property
    def c(self) -> int:
        return len(self.color_set)


def induce(labeling: EdgeLabeling) -> InducedColoring:
    """Per-vertex sums of incident labels; the total is always q(q+1)."""
    sums = {w: 0 for w in labeling.graph.vertices}
    for (a, b), lab in labeling.labels.items():
        sums[a] += lab
        sums[b] += lab
    return InducedColoring(sums)


def is_local_antimagic(labeling: EdgeLabeling) -> tuple[bool, list[Edge]]:
    """Check the defining condition; violating edges are listed sorted."""
    colors = labeling.coloring.colors
    bad = sorted(e for e in labeling.graph.edges if colors[e[0]] == colors[e[1]])
    return (not bad, bad)


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
    if not g.edges:
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

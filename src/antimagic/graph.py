"""Role-tagged vertices and immutable simple graphs.

Vertices carry their role (u_i / v_i / x_{i,j} / merged bundle) so that
statements like "merge v_1 and v_11" stay expressible after arbitrary
surgery.  All graph operations return new graphs; nothing mutates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import AntimagicError, LoopError, ParallelEdgeError

U_ROLE = "u"
V_ROLE = "v"
X_ROLE = "x"
MERGED_ROLE = "m"

_ROLES = (U_ROLE, V_ROLE, X_ROLE, MERGED_ROLE)
_ROLE_RANK = {role: rank for rank, role in enumerate(_ROLES)}
_SIMPLE_ROLES = tuple(frozenset((role,)) for role in _ROLES[:3])


class VertexId(tuple):
    """Canonical vertex identity surviving merges and splits.

    ``role`` is one of ``u``/``v``/``x``/``m``.  Simple roles use ``i``
    (and ``j`` for x-vertices); merged vertices carry the flattened,
    sorted tuple of their simple constituents.  The tuple itself is the
    canonical form, ``(rank, i, j)`` for u/v/x (ranks 0/1/2) and
    ``(3, *parts)`` for a merged id, so hashing, equality and order run
    as tuple operations (an id also equals a plain tuple of the same
    contents; an edge, with two entries, never equals an id).
    """

    __slots__ = ()

    def __new__(cls, role: str, i: int = 0, j: int = 0, parts: tuple["VertexId", ...] = ()):
        if role == MERGED_ROLE:
            if len(parts) < 2:
                raise AntimagicError("merged id needs at least two parts")
            return tuple.__new__(cls, (3, *parts))
        if i < 1 or (role == X_ROLE and j < 1):
            raise AntimagicError(f"vertex indices must be >= 1: {role}{i}.{j}")
        return tuple.__new__(cls, (_ROLE_RANK[role], i, j))

    def __getnewargs__(self):
        return (self.role, self.i, self.j, self.parts)

    role = property(lambda self: _ROLES[self[0]])
    i = property(lambda self: self[1] if self[0] < 3 else 0)
    j = property(lambda self: self[2] if self[0] < 3 else 0)
    parts = property(lambda self: self[1:] if self[0] == 3 else ())

    @property
    def roles(self) -> frozenset[str]:
        """``{role}`` for a simple id; the roles of its parts for a merged id."""
        return _SIMPLE_ROLES[self[0]] if self[0] < 3 else frozenset(p.role for p in self[1:])

    def token(self) -> str:
        """Serialized form: ``u3``, ``v12``, ``x2.7``, ``m(v1|v11)``."""
        if self.role == U_ROLE:
            return f"u{self.i}"
        if self.role == V_ROLE:
            return f"v{self.i}"
        if self.role == X_ROLE:
            return f"x{self.i}.{self.j}"
        return "m(" + "|".join(p.token() for p in self.parts) + ")"

    def __str__(self) -> str:
        return self.token()

    def __repr__(self) -> str:
        return f"VertexId({self.token()!r})"


def u(i: int) -> VertexId:
    return VertexId(U_ROLE, i)


def v(i: int) -> VertexId:
    return VertexId(V_ROLE, i)


def x(i: int, j: int) -> VertexId:
    return VertexId(X_ROLE, i, j)


def merged(parts: Iterable[VertexId]) -> VertexId:
    """Merged id over ``parts``, flattening nested merges and sorting.

    A single-constituent bundle collapses to the constituent itself.
    """
    flat: list[VertexId] = []
    for p in parts:
        if p.role == MERGED_ROLE:
            flat.extend(p.parts)
        else:
            flat.append(p)
    unique = sorted(set(flat))
    if len(unique) != len(flat):
        raise AntimagicError("merged parts must be pairwise distinct")
    if len(unique) == 1:
        return unique[0]
    return VertexId(MERGED_ROLE, parts=tuple(unique))


def parse_token(tok: str) -> VertexId:
    """Inverse of :meth:`VertexId.token`; any other input raises
    :class:`AntimagicError`."""
    if not isinstance(tok, str):
        raise AntimagicError(f"vertex token must be a string: {tok!r}")
    tok = tok.strip()
    try:
        if tok.startswith("m(") and tok.endswith(")"):
            inner = tok[2:-1]
            return merged(parse_token(t) for t in inner.split("|"))
        if tok.startswith("x"):
            a, _, b = tok[1:].partition(".")
            return x(int(a), int(b))
        if tok.startswith("u"):
            return u(int(tok[1:]))
        if tok.startswith("v"):
            return v(int(tok[1:]))
    except (ValueError, RecursionError) as exc:
        raise AntimagicError(f"unparseable vertex token: {tok!r}") from exc
    raise AntimagicError(f"unparseable vertex token: {tok!r}")


Edge = tuple[VertexId, VertexId]


def edge(a: VertexId, b: VertexId) -> Edge:
    """Canonical (sorted) form of the undirected edge {a, b}."""
    if a == b:
        raise LoopError(f"loop at {a}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph over :class:`VertexId`."""

    vertices: frozenset[VertexId]
    edges: frozenset[Edge]

    @staticmethod
    def build(vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]) -> "Graph":
        vs = frozenset(vertices)
        es = frozenset(edge(a, b) for a, b in edges)
        for a, b in es:
            if a not in vs or b not in vs:
                raise AntimagicError(f"edge endpoint not in vertex set: {a}-{b}")
        return Graph(vs, es)

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> dict[VertexId, frozenset[VertexId]]:
        adj: dict[VertexId, set[VertexId]] = {w: set() for w in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {w: frozenset(nb) for w, nb in adj.items()}

    def degree(self, w: VertexId) -> int:
        return len(self.adjacency[w])

    def sorted_vertices(self) -> list[VertexId]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def p2(i: int = 1) -> Graph:
    """Single edge u_i v_i."""
    return Graph.build([u(i), v(i)], [(u(i), v(i))])


def null_graph(m: int, component: int = 1) -> Graph:
    """O_m: m isolated vertices x_{component,1..m}."""
    return Graph.build([x(component, j) for j in range(1, m + 1)], [])


def join(g: Graph, h: Graph) -> Graph:
    """Join product: g + h plus every cross edge between them."""
    if g.vertices & h.vertices:
        raise AntimagicError("join requires disjoint vertex sets")
    cross = [(a, b) for a in g.vertices for b in h.vertices]
    return Graph.build(
        g.vertices | h.vertices,
        list(g.edges) + list(h.edges) + cross,
    )


def copies_of_p2_join_null(a: int, m: int) -> Graph:
    """a(P_2 ∨ O_m): a disjoint copies, copy i on u_i, v_i, x_{i,1..m}."""
    vs: list[VertexId] = []
    es: list[tuple[VertexId, VertexId]] = []
    for i in range(1, a + 1):
        vs += [u(i), v(i)] + [x(i, j) for j in range(1, m + 1)]
        es.append((u(i), v(i)))
        for j in range(1, m + 1):
            es.append((u(i), x(i, j)))
            es.append((v(i), x(i, j)))
    return Graph.build(vs, es)


def rewire(edge_map: dict[Edge, Edge], vertices: Iterable[VertexId]) -> Graph:
    """The graph on ``vertices`` whose edges are the images of a surgery
    described by old-edge -> new-edge.

    Raises :class:`ParallelEdgeError` if two old edges map onto one new
    edge (the edge bijection would break).
    """
    edges = frozenset(edge_map.values())
    if len(edges) != len(edge_map):
        (a, b), _ = Counter(edge_map.values()).most_common(1)[0]
        raise ParallelEdgeError(f"surgery maps two edges onto {a}-{b} (parallel edge)")
    return Graph(frozenset(vertices), edges)


def merge_vertices_mapped(
    g: Graph, groups: Sequence[Iterable[VertexId]]
) -> tuple[Graph, dict[Edge, Edge]]:
    """Collapse each group to one merged vertex, preserving every edge,
    and map each old edge to the new edge it becomes.

    Raises :class:`LoopError` if a group contains adjacent vertices and
    :class:`ParallelEdgeError` if two group members share a neighbor
    (either would break the edge bijection).
    """
    vmap: dict[VertexId, VertexId] = {}
    seen: set[VertexId] = set()
    for group in groups:
        members = sorted(set(group))
        missing = [w for w in members if w not in g.vertices]
        if missing:
            raise AntimagicError(f"merge group member not in graph: {missing[0]}")
        if seen & set(members):
            raise AntimagicError("merge groups must be pairwise disjoint")
        seen.update(members)
        if len(members) == 1:
            continue
        target = merged(members)
        for w in members:
            vmap[w] = target

    edge_map = {e: edge(vmap.get(e[0], e[0]), vmap.get(e[1], e[1])) for e in g.edges}
    return rewire(edge_map, {vmap.get(w, w) for w in g.vertices}), edge_map


def components(g: Graph) -> list[Graph]:
    """Connected components, ordered by their smallest vertex id."""
    adj = g.adjacency
    index: dict[VertexId, int] = {}
    comps: list[list[VertexId]] = []
    for seed in sorted(adj):
        if seed in index:
            continue
        index[seed] = len(comps)
        comp = [seed]
        for cur in comp:  # grows while it is walked: one pass over the component
            for nb in adj[cur]:
                if nb not in index:
                    index[nb] = len(comps)
                    comp.append(nb)
        comps.append(comp)
    edges: list[list[Edge]] = [[] for _ in comps]
    for e in g.edges:
        edges[index[e[0]]].append(e)
    return [Graph(frozenset(c), frozenset(es)) for c, es in zip(comps, edges)]


def bipartition(g: Graph) -> list[tuple[frozenset[VertexId], frozenset[VertexId]] | None]:
    """Per component: its 2-coloring classes, or None if not bipartite.

    The side containing the component's smallest vertex is listed first,
    making the output deterministic.
    """
    out = []
    adj = g.adjacency
    for comp in components(g):
        seed = min(comp.vertices)
        color = {seed: 0}
        queue = [seed]
        ok = True
        while queue and ok:
            cur = queue.pop()
            for nb in adj[cur]:
                if nb not in color:
                    color[nb] = 1 - color[cur]
                    queue.append(nb)
                elif color[nb] == color[cur]:
                    ok = False
                    break
        if not ok:
            out.append(None)
        else:
            side0 = frozenset(w for w, c in color.items() if c == 0)
            out.append((side0, comp.vertices - side0))
    return out


def is_bipartite_equal_parts(g: Graph) -> bool:
    """True iff every component is bipartite with equal partite sizes."""
    parts = bipartition(g)
    return all(p is not None and len(p[0]) == len(p[1]) for p in parts)

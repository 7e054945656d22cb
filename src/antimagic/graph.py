"""Role-tagged vertices and immutable simple graphs.

Vertices carry their role (u_i / v_i / x_{i,j} / merged bundle) so that
statements like "merge v_1 and v_11" stay expressible after arbitrary
surgery.  A graph holds its ids once and its edges as pairs of positions
into them, so surgery, coloring and traversal run on ints.  Ids enter
through ``Graph.build``, which sorts them, ``index`` and ``edge_index``,
and leave through ``names``; a merge reads no id and keeps positions, not
id order.  All graph operations return new graphs; nothing mutates.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property
from typing import Iterable, Sequence

from .errors import AntimagicError, LoopError, ParallelEdgeError

U_ROLE = "u"
V_ROLE = "v"
X_ROLE = "x"
MERGED_ROLE = "m"

_ROLES = (U_ROLE, V_ROLE, X_ROLE, MERGED_ROLE)
_ROLE_RANK = {role: rank for rank, role in enumerate(_ROLES[:3])}  # the simple roles; a merged id has rank 3
_SIMPLE_ROLES = tuple(frozenset((role,)) for role in _ROLES[:3])
_SIMPLE_TOKEN = re.compile(r"([uv])([1-9][0-9]*)|x([1-9][0-9]*)\.([1-9][0-9]*)")  # ASCII digits, no leading 0


class VertexId(tuple):
    """Canonical vertex identity surviving merges and splits.

    ``role`` is one of ``u``/``v``/``x``/``m``.  Simple roles use ``i``
    (and ``j`` for x-vertices); merged vertices carry the flattened,
    sorted tuple of their simple constituents.  The tuple itself is the
    canonical form, ``(rank, i, j)`` for u/v/x (ranks 0/1/2) and
    ``(3, *parts)`` for a merged id, so hashing, equality and order run
    as tuple operations (an id also equals a plain tuple of the same
    contents; an edge, with two entries, never equals an id).  The
    constructor mints only that form: u/v need ``i >= 1, j == 0``, x
    ``i, j >= 1``, a merged id two or more distinct simple parts in
    increasing order, as :func:`merged`, the way to make one, returns them.
    """

    __slots__ = ()

    def __new__(cls, role: str, i: int = 0, j: int = 0, parts: tuple["VertexId", ...] = ()):
        if role == MERGED_ROLE:
            simple = all(isinstance(p, VertexId) and p[0] < 3 for p in parts)
            if (i, j) != (0, 0) or len(parts) < 2 or not simple or not all(a < b for a, b in zip(parts, parts[1:])):
                raise AntimagicError(f"merged id needs at least two parts, simple and increasing: {parts!r}")
            return tuple.__new__(cls, (3, *parts))
        if role not in _ROLE_RANK or parts or i < 1 or (j < 1 if role == X_ROLE else j != 0):
            raise AntimagicError(f"not a canonical vertex id: {role!r}, i={i}, j={j}, parts={parts!r}")
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


# u, v and x build their one form directly; on a bad index the constructor raises
def u(i: int) -> VertexId:
    return tuple.__new__(VertexId, (0, i, 0)) if i >= 1 else VertexId(U_ROLE, i)


def v(i: int) -> VertexId:
    return tuple.__new__(VertexId, (1, i, 0)) if i >= 1 else VertexId(V_ROLE, i)


def x(i: int, j: int) -> VertexId:
    return tuple.__new__(VertexId, (2, i, j)) if i >= 1 and j >= 1 else VertexId(X_ROLE, i, j)


def merged(parts: Iterable[VertexId]) -> VertexId:
    """Merged id over ``parts``, flattening nested merges and sorting.

    A single-constituent bundle collapses to the constituent itself.
    """
    flat: list[VertexId] = []
    for p in parts:  # one pass on the rank slot: a merged id holds its parts after the 3
        if p[0] == 3:
            flat += p[1:]
        else:
            flat.append(p)
    unique = sorted(set(flat))
    if len(unique) != len(flat):
        raise AntimagicError("merged parts must be pairwise distinct")
    if len(unique) == 1:
        return unique[0]
    return tuple.__new__(VertexId, (3, *unique)) if unique else VertexId(MERGED_ROLE)  # no parts: the constructor raises


def parse_token(tok: str) -> VertexId:
    """Inverse of :meth:`VertexId.token`, up to surrounding whitespace: any
    other input, also a spelling ``int`` or ``merged`` would read (``v01``,
    ``u+1``, ``x1. 2``, ``m(v11|v1)``), raises :class:`AntimagicError`."""
    if not isinstance(tok, str):
        raise AntimagicError(f"vertex token must be a string: {tok!r}")
    tok = tok.strip()
    try:
        if not (tok.startswith("m(") and tok.endswith(")")):
            w = _simple_id(tok)
        else:  # at least two simple parts, sorted and distinct, as ``merged`` leaves them
            ids = [_simple_id(t) for t in tok[2:-1].split("|")]
            ok = None not in ids and len(ids) > 1 and all(a < b for a, b in zip(ids, ids[1:]))
            w = tuple.__new__(VertexId, (3, *ids)) if ok else None
    except ValueError as exc:  # an index with more digits than int() reads
        raise AntimagicError(f"unparseable vertex token: {tok!r}") from exc
    if w is None:
        raise AntimagicError(f"unparseable vertex token: {tok!r}")
    return w


def _simple_id(tok: str) -> VertexId | None:
    """The u, v or x id whose token is ``tok``, or None."""
    f = _SIMPLE_TOKEN.fullmatch(tok)
    # the pattern admits no index below 1, so the canonical tuple is built directly
    return f and tuple.__new__(VertexId, (_ROLE_RANK[f[1]], int(f[2]), 0) if f[1] else (2, int(f[3]), int(f[4])))


Edge = tuple[VertexId, VertexId]


def edge(a: VertexId, b: VertexId) -> Edge:
    """Canonical (sorted) form of the undirected edge {a, b}."""
    if a == b:
        raise LoopError(f"loop at {a}")
    return (a, b) if a < b else (b, a)


class Graph:
    """Finite simple undirected graph over :class:`VertexId`, held as indices.

    ``names`` lists the vertex ids, sorted if the graph came from
    :meth:`build`, and ``ends`` holds one ``(a, b)`` pair of positions in
    ``names`` per edge, ``a < b``; edge ``t`` is ``ends[t]``, the position
    an :class:`EdgeLabeling` keys its labels by.  ``index`` and
    ``edge_index``, built on first use, map an id or an edge back to its
    position; ``components`` and ``bipartition`` read one walk, and
    ``id_order`` is the id-sorted view every document is written from, both
    also made on first use.  Two graphs are equal when they have the same
    vertices and edges, in any order.

    A graph made by :func:`merge_positions` has its ``order`` and
    ``ends`` at once but mints ``names`` on first read.  Its
    ``merged_from`` is ``(source, into)``: the graph it was merged from and,
    per position of ``source``, the position that vertex went to.  Any other
    graph has ``merged_from`` None.
    """

    merged_from: tuple["Graph", list[int]] | None = None

    def __init__(self, names: tuple[VertexId, ...], ends: tuple[tuple[int, int], ...]):
        self.names, self.ends, self.order = names, ends, len(names)

    @staticmethod
    def build(vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]) -> "Graph":
        """The graph on ``vertices``, sorted, with ``edges`` (given in
        either direction, repeats merged); the one conversion in from ids."""
        names = tuple(sorted(set(vertices)))
        at = {w: i for i, w in enumerate(names)}
        es = {edge(a, b) for a, b in edges}
        for a, b in es:
            if a not in at or b not in at:
                raise AntimagicError(f"edge endpoint not in vertex set: {a}-{b}")
        return Graph(names, tuple(sorted((at[a], at[b]) for a, b in es)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self.names) == set(other.names) and self.edge_index.keys() == other.edge_index.keys()

    def __repr__(self) -> str:
        return f"Graph(names={self.names!r}, ends={self.ends!r})"

    @cached_property
    def names(self) -> tuple[VertexId, ...]:
        """Minted on first read, for a merged graph (any other graph is
        given its names): a vertex left alone keeps its id, a class of
        several gets ``merged`` of its members' ids."""
        source, into = self.merged_from
        members: list[list[VertexId]] = [[] for _ in range(self.order)]
        for w, at in zip(source.names, into):
            members[at].append(w)
        return tuple(ws[0] if len(ws) == 1 else merged(ws) for ws in members)

    @property
    def size(self) -> int:
        return len(self.ends)

    @cached_property
    def index(self) -> dict[VertexId, int]:
        """Vertex id -> its position in ``names``."""
        return {w: i for i, w in enumerate(self.names)}

    @cached_property
    def id_order(self) -> tuple[list[VertexId], list[str], list[tuple[int, int]]]:
        """The ids sorted, their tokens, and per edge t its two ends as
        indices into those lists, the smaller first: the one id-order view
        documents are written from, for a merge leaves positions out of id
        order.  Made on first use and shared, so no caller may change it."""
        names = self.names
        order = sorted(range(self.order), key=names.__getitem__)
        rank = [0] * self.order
        for r, i in enumerate(order):
            rank[i] = r
        ends = [(ra, rb) if (ra := rank[a]) < (rb := rank[b]) else (rb, ra) for a, b in self.ends]
        ids = [names[i] for i in order]
        return ids, [w.token() for w in ids], ends

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Edge, in its canonical ``edge()`` form, -> its position in
        ``ends``, in edge order."""
        names, out = self.names, {}
        for t, (a, b) in enumerate(self.ends):
            wa, wb = names[a], names[b]
            out[(wa, wb) if wa < wb else (wb, wa)] = t
        return out

    @cached_property
    def neighbors(self) -> list[list[int]]:
        """Per vertex position, the positions of its neighbors."""
        nbrs: list[list[int]] = [[] for _ in range(self.order)]
        for a, b in self.ends:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return nbrs

    @cached_property
    def _walk(self) -> tuple[list[list[int]], list[tuple[list[int], list[int]] | None]]:
        """The one breadth-first walk of the graph, from each component's
        smallest position: the components as ``components`` lists them,
        and per component its two sides or None, as ``bipartition`` lists
        them.  Every caller shares these lists, so none may change them."""
        nbrs = self.neighbors
        side = [-1] * len(nbrs)  # -1: not reached; else the parity of the distance from the seed
        comps: list[list[int]] = []
        parts: list[tuple[list[int], list[int]] | None] = []
        for seed in range(len(nbrs)):
            if side[seed] >= 0:
                continue
            side[seed] = 0
            comp = [seed]
            ok = True
            for cur in comp:  # grows while it is walked: one pass over the component
                here = side[cur]
                for nb in nbrs[cur]:
                    if side[nb] < 0:
                        side[nb] = 1 - here
                        comp.append(nb)
                    elif side[nb] == here:
                        ok = False
            comp.sort()
            comps.append(comp)
            parts.append(([i for i in comp if not side[i]], [i for i in comp if side[i]]) if ok else None)
        return comps, parts


def copies_of_p2_join_null(a: int, m: int) -> Graph:
    """a(P_2 ∨ O_m): a disjoint copies, copy i on u_i, v_i, x_{i,1..m}.

    The vertices sit in sorted-id order, at the positions from which the
    merges of ``transforms`` compute their u, v and x positions: u_i at
    i - 1, v_i at a + i - 1, x_{i,j} at 2a + (i - 1)m + (j - 1).  The
    edges run copy by copy: u_i v_i, then u_i x_{i,j} and v_i x_{i,j} for
    j = 1..m (``from_matrix`` labels them in this order).
    """
    names = tuple([u(i) for i in range(1, a + 1)] + [v(i) for i in range(1, a + 1)]
                  + [x(i, j) for i in range(1, a + 1) for j in range(1, m + 1)])
    ends: list[tuple[int, int]] = []
    for i in range(a):
        ends.append((i, a + i))
        for xj in range(2 * a + i * m, 2 * a + (i + 1) * m):
            ends += [(i, xj), (a + i, xj)]
    return Graph(names, tuple(ends))


def _renumber(into: Sequence[int], ends: Iterable[tuple[int, int]], name) -> tuple[tuple[int, int], ...]:
    """``ends`` with each position p replaced by ``into[p]``, each pair
    ordered: the one loop and parallel-edge guard of every surgery.

    Raises :class:`LoopError` if an edge joins a vertex to itself and
    :class:`ParallelEdgeError` if two edges join one pair (either would
    break the edge bijection); ``name(a)`` is the id at new position a,
    read only for the message, which names the pair in id order.
    """
    out: list[tuple[int, int]] = []
    append = out.append
    for a, b in ends:
        a, b = into[a], into[b]
        if a < b:
            append((a, b))
        elif a > b:
            append((b, a))
        else:
            raise LoopError(f"loop at {name(a)}")
    if len(set(out)) != len(out):
        a, b = sorted(map(name, next(e for e, count in Counter(out).items() if count > 1)))
        raise ParallelEdgeError(f"surgery maps two edges onto {a}-{b} (parallel edge)")
    return tuple(out)


def merge_vertices_mapped(g: Graph, groups: Sequence[Sequence[VertexId]]) -> Graph:
    """:func:`merge_positions` of the groups of ids ``groups``, each id
    found in ``g``: the one conversion of merge groups from ids.

    Raises :class:`AntimagicError` if a group member is not in ``g`` or
    two members of a group share a simple part (as :func:`merged` would
    refuse their id), and whatever :func:`merge_positions` raises.
    """
    index = g.index
    at_groups = [[index.get(w, -1) for w in group] for group in groups]
    for group, at in zip(groups, at_groups):
        if -1 in at:
            raise AntimagicError(f"merge group member not in graph: {group[at.index(-1)]}")
        if len(group) > 1:
            merged(group)
    return merge_positions(g, at_groups)


def merge_positions(g: Graph, groups: Iterable[Sequence[int]]) -> Graph:
    """Collapse each group of positions of ``g`` to one merged vertex,
    preserving every edge: edge t of the result is the image of edge t of
    ``g``.

    Each class takes the position of its first member in ``g``, and every
    other vertex keeps its order; the kernel reads no id, and the result
    mints its ``names`` only when first read.  Every guard runs here:
    raises :class:`AntimagicError` if two groups overlap or a group lists a
    position twice, :class:`LoopError` if a group contains adjacent
    vertices and :class:`ParallelEdgeError` if two group members share a
    neighbor (either would break the edge bijection).
    """
    into = list(range(g.order))  # position in g -> its class's first member, then its position in the result
    seen: set[int] = set()
    for at in groups:
        if not seen.isdisjoint(at):
            raise AntimagicError("merge groups must be pairwise disjoint")
        seen.update(at)
        if len(set(at)) < len(at):
            raise AntimagicError("merged parts must be pairwise distinct")  # as ``merged`` says it
        if at:
            first = min(at)
            for i in at:
                into[i] = first
    pos = 0
    for i, first in enumerate(into):
        if first == i:
            into[i] = pos
            pos += 1
        else:  # a later member: its first member, before it, is already renumbered
            into[i] = into[first]
    out = Graph.__new__(Graph)
    out.order, out.merged_from = pos, (g, into)
    out.ends = _renumber(into, g.ends, lambda a: out.names[a])
    return out


def components(g: Graph) -> list[list[int]]:
    """Connected components, each the sorted list of its vertex positions
    in ``g.names``, ordered by their smallest vertex (read off ``g._walk``:
    shared, so read-only)."""
    return g._walk[0]


def component_of(g: Graph) -> list[int]:
    """Per position of ``g``, the index of its component in ``components(g)``."""
    comp_of = [0] * g.order
    for c, comp in enumerate(components(g)):
        for i in comp:
            comp_of[i] = c
    return comp_of


def bipartition(g: Graph) -> list[tuple[list[int], list[int]] | None]:
    """Per component of ``components(g)``: its 2-coloring classes as
    sorted position lists, the side holding the component's smallest
    position first, or None if not bipartite (read off ``g._walk``:
    shared, so read-only)."""
    return g._walk[1]


def is_bipartite_equal_parts(g: Graph) -> bool:
    """True iff every component is bipartite with equal partite sizes."""
    parts = bipartition(g)
    return all(p is not None and len(p[0]) == len(p[1]) for p in parts)

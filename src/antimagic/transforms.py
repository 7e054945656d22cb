"""Label-preserving graph surgery deriving every labeled family.

Each transform consumes a :class:`LabeledGraph` and returns a new one
whose labeling reuses the same integers; merged vertices accumulate the
colors of their constituents, split vertices divide them.  Every value
carries a provenance log that replays to the value itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .errors import AntimagicError, SumDriftError
from .graph import (
    Edge,
    Graph,
    MERGED_ROLE,
    U_ROLE,
    V_ROLE,
    VertexId,
    X_ROLE,
    component_of,
    copies_of_p2_join_null,
    edge,
    _renumber,
    is_bipartite_equal_parts,
    merge_positions,
    merge_vertices_mapped,
    parse_token,
    u,
    v,
    x,
)
from .labeling import EdgeLabeling, InducedColoring
from .schemes import (
    EVEN,
    LabelMatrix,
    ODD,
    block_columns,
    build_matrix,
    cross_pair_constant,
    u_color,
    v_color,
    x_pair_constant,
)

Step = tuple


@dataclass(frozen=True)
class LabeledGraph:
    """A labeling and the provenance log that replays to it.

    The log's first step, ``("matrix", parity, n, k)`` or ``("special",)``
    (even, n = k = 1), is the one record of the family parameters.
    """

    labeling: EdgeLabeling
    provenance: tuple[Step, ...]

    @property
    def graph(self) -> Graph:
        return self.labeling.graph

    @property
    def coloring(self) -> InducedColoring:
        return self.labeling.coloring

    @property
    def colors(self) -> frozenset[int]:
        return self.labeling.coloring.color_set

    @property
    def _family(self) -> tuple[str, int, int]:
        first = self.provenance[0]
        return (EVEN, 1, 1) if first[0] == "special" else first[1:]

    parity = property(lambda self: self._family[0])
    n = property(lambda self: self._family[1])
    k = property(lambda self: self._family[2])

    @property
    def m(self) -> int:
        """The null order: 2n for even parity, 2n+1 for odd."""
        return 2 * self.n + (self.parity == ODD)

    @property
    def side(self) -> str:
        """The J/H families merge degree-(m+1) vertices: v (even) or u (odd)."""
        return V_ROLE if self.parity == EVEN else U_ROLE


@dataclass(frozen=True)
class SwapSpec:
    """A delete-add rewiring: ``delete`` lists edges to remove, ``add``
    pairs each inserted edge with the label it carries over."""

    delete: tuple[Edge, ...]
    add: tuple[tuple[Edge, int], ...]


def from_matrix(mx: LabelMatrix) -> LabeledGraph:
    """2k disjoint copies of P_2 ∨ O_m labeled straight off the matrix."""
    m, k, uv, ux, vx = mx.m, mx.k, mx.uv, mx.ux, mx.vx
    g = copies_of_p2_join_null(2 * k, m)
    values: list[int] = []
    for i in range(2 * k):  # the edge order of copies_of_p2_join_null
        values.append(uv[i])
        for j in range(m):
            values += (ux[j][i], vx[j][i])
    return LabeledGraph(EdgeLabeling(g, tuple(values)), (("matrix", mx.parity, mx.n, mx.k),))


# --- bespoke 2P_2 ∨ O_2 fixture -------------------------------------------
#
# 2P_2 ∨ O_2 (even, n = k = 1) has no matrix; special_labeled() returns
# the 10-edge labeling below, found once by exhaustive search (the oracle
# regenerates it) and frozen here.  Both degree-4 vertices get 22, the u's
# 19 and the v's 14.

_SPECIAL_LABELS = {
    (u(1), v(1)): 7,
    (u(2), v(2)): 4,
    (u(1), x(1, 1)): 3,
    (u(1), x(1, 2)): 9,
    (u(2), x(1, 1)): 10,
    (u(2), x(1, 2)): 5,
    (v(1), x(1, 1)): 1,
    (v(1), x(1, 2)): 6,
    (v(2), x(1, 1)): 8,
    (v(2), x(1, 2)): 2,
}

SPECIAL_COLOR_SET = frozenset({14, 19, 22})


def special_labeled() -> LabeledGraph:
    """2P_2 ∨ O_2, the join of two disjoint edges with two isolated
    vertices, labeled so the induced colors are exactly {14, 19, 22}."""
    g = Graph.build([u(1), v(1), u(2), v(2), x(1, 1), x(1, 2)], _SPECIAL_LABELS)
    return LabeledGraph(EdgeLabeling.from_dict(g, _SPECIAL_LABELS), (("special",),))


def _is_fresh_matrix(lg: LabeledGraph) -> bool:
    return len(lg.provenance) == 1 and lg.provenance[0][0] == "matrix"


def _merge_with_labels(lg: LabeledGraph, g2: Graph, step: Step) -> LabeledGraph:
    """``lg`` carried onto ``g2``, a merge whose edge t is edge t of ``lg``'s graph."""
    return LabeledGraph(lg.labeling.relabel_edges(g2), lg.provenance + (step,))


def _side_positions(k: int, side: str) -> range:
    """At i - 1, the position of u_i (side u) or v_i (side v) in the matrix
    graph and in each graph merged from it by x's alone: i - 1 or
    2k + i - 1, for each x class takes its first member's slot, after
    every u and v."""
    return range(0, 2 * k) if side == U_ROLE else range(2 * k, 4 * k)


def _x_groups(k: int, m: int, columns) -> list[list[int]]:
    """Per list of columns in ``columns`` and per j, the positions of the
    x_{i,j} over its columns i in the matrix graph (4k + (i-1)m + j-1)."""
    groups = []
    for cols in columns:
        firsts = [4 * k + (i - 1) * m for i in cols]
        groups += [[p + j for p in firsts] for j in range(m)]
    return groups


def merge_all_x(lg: LabeledGraph) -> LabeledGraph:
    """Collapse {x_{i,j} | all i} per j, turning 2k(P_2 ∨ O_m)
    into (2k)P_2 ∨ O_m with the labeling kept."""
    if not _is_fresh_matrix(lg):
        raise AntimagicError("merge_all_x expects a fresh matrix graph")
    k = lg.k
    g2 = merge_positions(lg.graph, _x_groups(k, lg.m, [range(1, 2 * k + 1)]))
    return _merge_with_labels(lg, g2, ("merge_all_x",))


def block_merge(lg: LabeledGraph, r: int, s: int) -> LabeledGraph:
    """Merge x's of complementary column blocks, giving r((2s)P_2 ∨ O_m)."""
    if not _is_fresh_matrix(lg):
        raise AntimagicError("block_merge expects a fresh matrix graph")
    if r < 2 or s < 1:
        raise AntimagicError("block_merge needs r >= 2 and s >= 1")
    k = lg.k
    if k != r * s:
        raise AntimagicError(f"k = r*s required: {k} != {r}*{s}")
    blocks = [block_columns(k, s, b) for b in range(1, r + 1)]
    g2 = merge_positions(lg.graph, _x_groups(k, lg.m, [lo + hi for lo, hi in blocks]))
    return _merge_with_labels(lg, g2, ("block_merge", r, s))


def split_x(lg: LabeledGraph) -> LabeledGraph:
    """Split every merged x into two equal-color halves.

    It merges the crossed matrix graph (each edge v_i x_{i,j} of the
    matrix graph moved to v_i x_{2k+1-i,j}, edge t staying edge t) per
    block and per j over the low columns and, apart, over their mirrors.
    So the half named after the lower column block takes the u-side edges
    of those columns together with the v-side edges of the complementary
    columns; the cross pair identity makes the two halves equal.
    """
    if not lg.provenance or lg.provenance[-1][0] != "block_merge" or lg.graph.merged_from is None:
        raise AntimagicError("split_x expects a block_merge output")
    _, r, s = lg.provenance[-1]
    k, m = lg.k, lg.m
    source = lg.graph.merged_from[0]
    v_lo, x_lo = 2 * k, 4 * k  # the positions of v_1 and x_{1,1}; a v's edge to an x has the v first
    mirror = [x_lo + (2 * k - i) * m + j for i in range(1, 2 * k + 1) for j in range(m)]  # x_{i,j+1} -> x_{2k+1-i,j+1}
    crossed = Graph(source.names, tuple([(e[0], mirror[e[1] - x_lo]) if v_lo <= e[0] < x_lo else e
                                         for e in source.ends]))
    halves = [cols for b in range(1, r + 1) for cols in block_columns(k, s, b)] if s > 1 else []  # s = 1: no merge
    return _merge_with_labels(lg, merge_positions(crossed, _x_groups(k, m, halves)), ("split_x",))


def _uv_side(w: VertexId) -> bool:
    return X_ROLE not in w.roles


def delete_add(lg: LabeledGraph, spec: SwapSpec) -> LabeledGraph:
    """Apply a label-preserving rewiring; every induced sum must survive.

    Each moved label stays attached to its u/v-side endpoint while the
    x-side endpoint changes; any drift in an induced sum raises
    :class:`SumDriftError`.
    """
    dels = [edge(*e) for e in spec.delete]
    adds = [(edge(*e), lab) for e, lab in spec.add]  # canonical, as the provenance step spells them
    if len(set(dels)) != len(dels):
        raise AntimagicError("duplicate edge in delete list")
    g = lg.graph
    index, names, labels = g.index, g.names, lg.labeling.values
    moved = []
    for a, b in dels:
        try:
            moved.append(g.edge_index[a, b])
        except KeyError:
            raise AntimagicError(f"cannot delete missing edge {a}-{b}") from None
    del_labels = sorted(labels[t] for t in moved)
    add_labels = sorted(lab for _, lab in adds)
    if del_labels != add_labels:
        raise AntimagicError("added labels must be exactly the deleted labels")
    by_label = {labels[t]: t for t in moved}
    ends = list(g.ends)
    for (a, b), lab in adds:
        t = by_label[lab]
        uv_old = {names[i] for i in g.ends[t] if _uv_side(names[i])}
        if not uv_old:
            raise AntimagicError("deleted edge has no u/v-side endpoint")
        if not (uv_old & {a, b}):
            raise AntimagicError(
                f"label {lab} must keep its u/v-side endpoint ({next(iter(uv_old))})"
            )
        if a not in index or b not in index:
            raise AntimagicError(f"added edge endpoint not in vertex set: {a}-{b}")
        ends[t] = (index[a], index[b])
    labeling = lg.labeling.relabel_edges(Graph(names, _renumber(range(g.order), ends, names.__getitem__)))
    before = lg.coloring.sums
    after = labeling.coloring.sums
    if before != after:
        drifted = next(i for i, (c0, c1) in enumerate(zip(before, after)) if c0 != c1)
        raise SumDriftError(f"induced sum changed at {names[drifted]}")
    step = (
        "delete_add",
        tuple((a.token(), b.token()) for a, b in dels),
        tuple((a.token(), b.token(), lab) for (a, b), lab in adds),
    )
    return LabeledGraph(labeling, lg.provenance + (step,))


def _check_j_input(lg: LabeledGraph) -> None:
    """J/H inputs are k(2P_2 ∨ O_m), of order 4k + km, or its split, of
    order 4k + 2km: the graphs whose side vertices sit at ``_side_positions``."""
    tags = [st[0] for st in lg.provenance]
    if tags[-1:] == ["block_merge"] and lg.provenance[-1][2] == 1:
        order = lg.k * (4 + lg.m)
    elif tags[-2:] == ["block_merge", "split_x"] and lg.provenance[-2][2] == 1:
        order = lg.k * (4 + 2 * lg.m)
    else:
        raise AntimagicError("expected k(2P_2 ∨ O_m) or its split graph")
    if lg.graph.order != order:
        raise AntimagicError(f"graph has {lg.graph.order} vertices, its provenance gives {order}")


def _position_roles(g: Graph) -> list[frozenset[str]]:
    """Per position of ``g``, the roles of its id: a merged graph's are the
    union of its sources' roles, read through ``merged_from`` down to a
    graph whose ``names`` were given, so no merged id is minted."""
    if g.merged_from is None:
        return [w.roles for w in g.names]
    source, into = g.merged_from
    roles: list = [None] * g.order
    for at, r in zip(into, _position_roles(source)):
        have = roles[at]
        roles[at] = r if have is None or have is r else have | r  # members of one role share one set
    return roles


def theorem_certificate(g: Graph) -> str:
    """Structural applicability certificate for the merge theorems."""
    if is_bipartite_equal_parts(g):
        return "bipartite-equal-parts"
    roles = _position_roles(g)
    if all(len(roles[a]) == 1 == len(roles[b]) and roles[a] != roles[b] for a, b in g.ends):
        return "tripartite"
    return "unverified by theorem"


def merge_v_blocks(lg: LabeledGraph, blocks) -> LabeledGraph:
    """Merge same-colored degree-(m+1) vertices in equal-size blocks.

    ``blocks`` partitions a subset of the ``lg.side`` vertices into
    blocks of one size s >= 1 (s = 1 merges nothing) whose members share
    no neighbor.  The merged vertices pick up s times the old color.
    """
    _check_j_input(lg)
    blocks = [sorted(b) for b in blocks]
    if not blocks:
        raise AntimagicError("no blocks given")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise AntimagicError(f"blocks must all have one size, got {sorted(sizes)}")
    s = sizes.pop()
    if s < 1:
        raise AntimagicError("block size must be >= 1")
    side = lg.side
    if any(w.roles != {side} for b in blocks for w in b):
        raise AntimagicError(f"blocks must contain only {side}-vertices for {lg.parity} parity")
    step = ("merge_v_blocks", side, tuple(tuple(w.token() for w in b) for b in blocks))
    return _merge_with_labels(lg, merge_vertices_mapped(lg.graph, blocks), step)


def chunk_blocks(lg: LabeledGraph, s: int) -> list[list[VertexId]]:
    """Equal blocks of size s over all 2k ``lg.side`` vertices, never putting
    a complementary pair {i, 2k+1-i} together (s must divide 2k, s <= k)."""
    k, side = lg.k, lg.side
    if s < 2 or s > k or (2 * k) % s:
        raise AntimagicError(f"need 2 <= s <= k with s | 2k, got s={s}, k={k}")
    order = list(range(1, k + 1)) + list(range(2 * k, k, -1))
    make = v if side == V_ROLE else u
    return [[make(i) for i in order[t : t + s]] for t in range(0, 2 * k, s)]


def group_components(lg: LabeledGraph, ks) -> LabeledGraph:
    """Group the k components consecutively and chain each group into one
    connected piece by ``lg.side`` pair merges, as in the connected J
    construction."""
    _check_j_input(lg)
    k = lg.k
    ks = tuple(ks)
    if sum(ks) != k:
        raise AntimagicError(f"group sizes must sum to k={k}, got {ks}")
    if any(ka < 2 for ka in ks):
        raise AntimagicError("every group must hold at least 2 components")
    groups = [pair for start, ka in zip(accumulate(ks, initial=1), ks) for pair in _chain_pairs(k, lg.side, start, ka)]
    return _merge_with_labels(lg, merge_positions(lg.graph, groups), ("group_components", lg.side, ks))


def _chain_pairs(k: int, side: str, start: int, ka: int) -> list[list[int]]:
    """The position pairs ``group_components`` merges to chain components
    start..start+ka-1 of k(2P_2 ∨ O_m) or its split into one piece: per
    component c of the group, side_c with side_{2k+1-c'}, c' the component
    after c in the group (after the last comes the first)."""
    at = _side_positions(k, side)
    return [[at[start + a - 1], at[2 * k - start - (a + 1) % ka]] for a in range(ka)]


# --- expected color triples -------------------------------------------------


def expected_colors_block(parity: str, n: int, k: int, s: int) -> set[int]:
    return {u_color(parity, n, k), v_color(parity, n, k), s * x_pair_constant(parity, n, k)}


def expected_colors_split(parity: str, n: int, k: int, s: int) -> set[int]:
    return {u_color(parity, n, k), v_color(parity, n, k), s * cross_pair_constant(parity, n, k)}


def expected_colors_j(parity: str, n: int, k: int, s: int, split: bool) -> set[int]:
    """Color triple after merging side-vertex blocks of size s in
    k(2P_2 ∨ O_m) (or its split): the merged side scales by s."""
    uc, vc = u_color(parity, n, k), v_color(parity, n, k)
    xc = cross_pair_constant(parity, n, k) if split else x_pair_constant(parity, n, k)
    if parity == EVEN:
        return {uc, s * vc, xc}
    return {s * uc, vc, xc}


# --- randomized label-preserving swaps ---------------------------------------


def random_swap_spec(lg: LabeledGraph, rng: random.Random) -> SwapSpec:
    """A random valid swap moving one equal-sum edge pair between two
    x-class vertices (the generalization of the worked swap examples).

    Pair types: both v-side edges of a complementary column pair, both
    u-side edges, or the mixed u/v cross pair; each type has a constant
    label sum, so any two same-type pairs at different x-vertices may
    trade places.
    """
    g = lg.graph
    labels = lg.labeling.labels
    k = lg.k

    names = g.names
    # each x-side vertex, in position order (id order on a merge by x's alone), to the ids of its neighbors
    adj = {w: {names[nb] for nb in nbs} for w, nbs in zip(names, g.neighbors) if not _uv_side(w)}
    by_j: dict[int, list[VertexId]] = {}
    for xv in adj:
        j = xv.parts[0].j if xv.role == MERGED_ROLE else xv.j
        by_j.setdefault(j, []).append(xv)

    def pairs_at(xv: VertexId):
        nbrs = adj[xv]
        cols = sorted({w.i for w in nbrs if w.role in (U_ROLE, V_ROLE)})
        found = []
        for a in cols:
            b = 2 * k + 1 - a
            if b <= a:
                continue
            for kind, wa, wb in (("u", u(a), u(b)), ("v", v(a), v(b)), ("c", u(a), v(b)), ("c", v(a), u(b))):
                if wa in nbrs and wb in nbrs:
                    found.append((kind, wa, wb))
        return found

    js = [j for j, group in sorted(by_j.items()) if len(group) >= 2]
    if not js:
        raise AntimagicError("graph has no two x-vertices sharing a null index")
    for _ in range(200):
        j = rng.choice(js)
        xa, xb = rng.sample(by_j[j], 2)
        cands_a, cands_b = pairs_at(xa), pairs_at(xb)
        kinds = {c[0] for c in cands_a} & {c[0] for c in cands_b}
        if not kinds:
            continue
        kind = rng.choice(sorted(kinds))
        _, a1, a2 = rng.choice([c for c in cands_a if c[0] == kind])
        _, b1, b2 = rng.choice([c for c in cands_b if c[0] == kind])
        # moved endpoints must not already touch the receiving x-vertex
        if {a1, a2} & adj[xb] or {b1, b2} & adj[xa]:
            continue
        dels = (edge(a1, xa), edge(a2, xa), edge(b1, xb), edge(b2, xb))
        adds = (
            (edge(a1, xb), labels[edge(a1, xa)]),
            (edge(a2, xb), labels[edge(a2, xa)]),
            (edge(b1, xa), labels[edge(b1, xb)]),
            (edge(b2, xa), labels[edge(b2, xb)]),
        )
        return SwapSpec(dels, adds)
    raise AntimagicError("no valid swap found for this graph")


def connecting_swaps(lg: LabeledGraph) -> LabeledGraph:
    """Chain all components into one connected graph by successive
    v-side (or u-side) pair swaps between adjacent components."""
    current = lg
    while True:
        g = current.graph
        comp_of = component_of(g)
        if not any(comp_of):  # every vertex in component 0: connected
            return current
        rng = random.Random(0)
        for _ in range(500):
            spec = random_swap_spec(current, rng)
            if len({comp_of[g.index[w]] for e in spec.delete for w in e}) >= 2:
                current = delete_add(current, spec)
                break
        else:
            raise AntimagicError("could not connect components by swaps")


# --- provenance replay --------------------------------------------------------


# fields per provenance step, the tag included
_STEP_FIELDS = {"matrix": 4, "special": 1, "merge_all_x": 1, "split_x": 1,
                "block_merge": 3, "delete_add": 3, "merge_v_blocks": 3, "group_components": 3}


def replay(provenance: Sequence[Sequence]) -> LabeledGraph:
    """Rebuild a labeled graph from its provenance log, given as tuples or
    as lists decoded from a ``provenance.json``; a malformed step raises
    :class:`AntimagicError` naming the step."""
    lg: LabeledGraph | None = None
    for step in provenance:
        try:
            tag = step[0]
            if lg is None and tag not in ("matrix", "special"):
                raise AntimagicError(f"provenance must start with a matrix or special step, not {tag!r}")
            if tag not in _STEP_FIELDS:
                raise AntimagicError(f"unknown provenance step {tag!r}")
            if len(step) != _STEP_FIELDS[tag]:
                raise ValueError(f"expected {_STEP_FIELDS[tag]} fields, got {len(step)}")
            if tag in ("merge_v_blocks", "group_components") and step[1] != lg.side:
                raise AntimagicError(f"{tag} step records side {step[1]!r}, {lg.parity} parity gives {lg.side!r}")
            if tag == "matrix":
                _, parity, n, k = step
                lg = from_matrix(build_matrix(parity, n, k))
            elif tag == "special":
                lg = special_labeled()
            elif tag == "merge_all_x":
                lg = merge_all_x(lg)
            elif tag == "block_merge":
                lg = block_merge(lg, step[1], step[2])
            elif tag == "split_x":
                lg = split_x(lg)
            elif tag == "delete_add":
                dels = tuple(edge(parse_token(a), parse_token(b)) for a, b in step[1])
                adds = tuple((edge(parse_token(a), parse_token(b)), lab) for a, b, lab in step[2])
                lg = delete_add(lg, SwapSpec(dels, adds))
            elif tag == "merge_v_blocks":
                lg = merge_v_blocks(lg, [[parse_token(t) for t in b] for b in step[2]])
            else:
                lg = group_components(lg, step[2])
        except (IndexError, TypeError, ValueError) as exc:
            raise AntimagicError(f"malformed provenance step {step!r}: {exc}") from exc
    if lg is None:
        raise AntimagicError("empty provenance")
    return lg

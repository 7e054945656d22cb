import random

import pytest

from antimagic.errors import AntimagicError, LoopError, ParallelEdgeError
from antimagic.graph import (
    MERGED_ROLE,
    Graph,
    VertexId,
    bipartition,
    components,
    copies_of_p2_join_null,
    edge,
    is_bipartite_equal_parts,
    merge_positions,
    merge_vertices_mapped,
    merged,
    parse_token,
    u,
    v,
    x,
)
from antimagic.labeling import EdgeLabeling
from antimagic.transforms import LabeledGraph, SwapSpec, delete_add


def degree(g: Graph, w) -> int:
    return len(g.neighbors[g.index[w]])


def two_p2() -> Graph:
    return Graph.build([u(1), v(1), u(2), v(2)], [(u(1), v(1)), (u(2), v(2))])


class TestVertexId:
    def test_tokens(self):
        assert u(3).token() == "u3"
        assert v(12).token() == "v12"
        assert x(2, 7).token() == "x2.7"
        assert merged([v(11), v(1)]).token() == "m(v1|v11)"

    def test_token_round_trip(self):
        for w in (u(3), v(12), x(2, 7), merged([v(1), v(11)]), merged([x(1, 2), x(6, 2)])):
            assert parse_token(w.token()) == w
        assert parse_token(" x2.7\n") == x(2, 7)  # surrounding whitespace is stripped

    @pytest.mark.parametrize("tok", ["u+1", "u 1", "v1_0", "x1.+2", "x01.1", "u\u0663", "v01", "x1. 2",
                                     "m(v11|v1)", "m(v1)", "m(m(v1|v2)|v3)", "m( v1|v11)",
                                     # int() refuses over 4,300 digits with a ValueError
                                     pytest.param("u" + "1" * 5000, id="u-5000-digits")])
    def test_non_canonical_spellings_raise(self, tok):
        """Spellings ``int`` or ``merged`` would accept but that do not render
        back, and an index too long for ``int``."""
        with pytest.raises(AntimagicError, match="unparseable vertex token"):
            parse_token(tok)

    def test_merged_flattens_and_sorts(self):
        a = merged([merged([v(2), v(1)]), v(3)])
        assert a == merged([v(1), v(2), v(3)])
        assert a.parts == (v(1), v(2), v(3))

    def test_merged_single_collapses(self):
        assert merged([v(5)]) == v(5)

    def test_merged_duplicates_rejected(self):
        with pytest.raises(AntimagicError):
            merged([v(1), merged([v(1), v(2)])])

    def test_ordering(self):
        assert u(1) < v(1) < x(1, 1) < merged([u(1), u(2)])
        assert x(2, 1) < x(2, 7)

    def test_indices_start_at_one(self):
        with pytest.raises(AntimagicError):
            u(0)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((MERGED_ROLE,), {"parts": (v(2), v(1))}),  # out of order
            ((MERGED_ROLE,), {"parts": (v(1), v(1))}),  # a repeated part
            ((MERGED_ROLE,), {"parts": (merged([v(1), v(2)]), u(3))}),  # a nested bundle
            ((MERGED_ROLE,), {"parts": (v(1),)}),  # one part
            ((MERGED_ROLE, 1), {"parts": (v(1), v(2))}),  # an index on a bundle
            (("u", 1, 5), {}),  # a u id with j
            (("v", 1), {"parts": (v(1), v(2))}),  # a simple id with parts
            (("x", 1), {}),  # an x id without j
            (("q", 1), {}),  # no such role
        ],
        ids=["unsorted", "repeated", "nested", "single", "indexed-bundle", "u-with-j", "v-with-parts",
             "x-without-j", "unknown-role"],
    )
    def test_constructor_mints_only_canonical_ids(self, args, kwargs):
        with pytest.raises(AntimagicError):
            VertexId(*args, **kwargs)

    def test_constructor_agrees_with_the_helpers(self):
        assert VertexId(MERGED_ROLE, parts=(v(1), v(2))) == merged([v(2), v(1)])
        assert VertexId("u", 1) == u(1) and VertexId("x", 2, 7) == x(2, 7)


class TestDisjointUnion:
    """a(P_2 ∨ O_m) is the package's one disjoint-union builder."""

    def test_two_edges(self):
        g = copies_of_p2_join_null(2, 0)
        assert g.size == 2 and g.order == 4
        assert len(components(g)) == 2

    def test_eight_copies_order_and_size(self):
        g = copies_of_p2_join_null(8, 4)
        assert g.order == 48 and g.size == 72  # 2k(2n+2), 2k(4n+1) at k=4, n=2
        assert len(components(g)) == 8

    def test_empty(self):
        g = copies_of_p2_join_null(0, 3)
        assert g.order == 0 and g.size == 0

    def test_closed_form_order_and_size(self):
        # a copies of P_2 ∨ O_m: a(m+2) vertices, a(2m+1) edges
        g = copies_of_p2_join_null(4, 3)
        assert g.order == 20 and g.size == 28


class TestBuildErrors:
    def test_edge_end_outside_the_vertex_set_raises(self):
        with pytest.raises(AntimagicError, match="edge endpoint not in vertex set"):
            Graph.build([u(1), v(1)], [(u(1), x(1, 1))])

    def test_edge_from_a_vertex_to_itself_raises_loop(self):
        with pytest.raises(LoopError):
            edge(u(1), u(1))


class TestMerge:
    def test_column_merge_degree(self):
        g = copies_of_p2_join_null(8, 4)
        out = merge_vertices_mapped(g, [[x(i, 1) for i in range(1, 9)]])
        xm = merged([x(i, 1) for i in range(1, 9)])
        assert degree(out, xm) == 16  # degree 4k at k = 4
        assert out.size == g.size

    def test_single_group_is_identity(self):
        g = two_p2()
        assert merge_vertices_mapped(g, [[v(1)]]) == g

    def test_merge_endpoints_of_disjoint_edges_gives_path(self):
        g = two_p2()
        out = merge_vertices_mapped(g, [[v(1), v(2)]])
        assert out.order == 3 and out.size == 2
        deg = sorted(degree(out, w) for w in out.names)
        assert deg == [1, 1, 2]

    def test_adjacent_members_raise_loop(self):
        with pytest.raises(LoopError):
            merge_vertices_mapped(two_p2(), [[u(1), v(1)]])

    def test_shared_neighbor_raises_parallel(self):
        xs = [x(1, 1), x(1, 2)]
        g = Graph.build([u(1), v(1), u(2), v(2), *xs],
                        [(u(1), v(1)), (u(2), v(2))] + [(w, y) for w in (u(1), v(1), u(2), v(2)) for y in xs])
        with pytest.raises(ParallelEdgeError):
            merge_vertices_mapped(g, [[u(1), u(2)]])

    def test_round_trip_recovers_edges(self):
        g = copies_of_p2_join_null(4, 2)
        groups = [[x(i, j) for i in range(1, 5)] for j in (1, 2)]
        out = merge_vertices_mapped(g, groups)
        edge_map = dict(zip(g.edge_index, out.edge_index))  # edge t stays edge t
        assert set(edge_map) == set(g.edge_index) and set(edge_map.values()) == set(out.edge_index)

        def expand(w, other):
            if w.role != "m":
                return w
            cands = [p for p in w.parts if edge(p, other) in g.edge_index]
            assert len(cands) == 1
            return cands[0]

        for old, (a, b) in edge_map.items():
            assert edge(expand(a, b), expand(b, a)) == old

    def test_merged_join_order(self):
        # order 2k(2n+2) - (2k-1)(2n) = 4k + 2n after merging all columns
        for n, k in [(1, 2), (2, 3), (3, 1)]:
            g = copies_of_p2_join_null(2 * k, 2 * n)
            groups = [[x(i, j) for i in range(1, 2 * k + 1)] for j in range(1, 2 * n + 1)]
            out = merge_vertices_mapped(g, groups)
            assert out.order == 4 * k + 2 * n
            assert out.size == g.size


def two_stars() -> LabeledGraph:
    """x1.1 joined to u1 (label 1) and v1 (4), x1.2 to u2 (2) and v2 (3),
    and u1 to x1.3 (5): a labeled graph for delete_add, which rewires on
    the graph's own vertices."""
    labels = {(u(1), x(1, 1)): 1, (u(2), x(1, 2)): 2, (v(2), x(1, 2)): 3, (v(1), x(1, 1)): 4, (u(1), x(1, 3)): 5}
    g = Graph.build([u(1), u(2), v(1), v(2), x(1, 1), x(1, 2), x(1, 3)], labels)
    return LabeledGraph(EdgeLabeling.from_dict(g, labels), ())


# x1.1 and x1.2 trade their pairs of sum 5, so every vertex keeps its sum
SWAP = SwapSpec(delete=((u(1), x(1, 1)), (v(1), x(1, 1)), (u(2), x(1, 2)), (v(2), x(1, 2))),
                add=(((u(1), x(1, 2)), 1), ((v(1), x(1, 2)), 4), ((u(2), x(1, 1)), 2), ((v(2), x(1, 1)), 3)))


class TestRewire:
    """delete_add moves edges among the graph's own vertices; it and the
    merge share one renumbering, which holds the loop and parallel-edge
    guards."""

    def test_builds_the_images_on_the_given_vertices(self):
        lg = two_stars()
        out = delete_add(lg, SWAP)
        assert set(out.graph.names) == set(lg.graph.names)
        assert out.labeling.labels == {edge(*e): lab for e, lab in SWAP.add} | {edge(u(1), x(1, 3)): 5}

    def test_names_are_sorted_and_edges_keep_their_position(self):
        lg = two_stars()
        out = delete_add(lg, SWAP).graph
        assert out.names is lg.graph.names  # kept as they are, not sorted again
        before = lg.graph.edge_index
        for (e, _), d in zip(SWAP.add, SWAP.delete):  # each added edge carries the label of the deleted one
            assert out.edge_index[edge(*e)] == before[edge(*d)]
        assert out.edge_index[edge(u(1), x(1, 3))] == before[edge(u(1), x(1, 3))]

    def test_two_edges_onto_one_raise_parallel(self):
        lg = two_stars()
        with pytest.raises(ParallelEdgeError, match="u1-x1.3"):
            delete_add(lg, SwapSpec(delete=((u(1), x(1, 1)),), add=(((u(1), x(1, 3)), 1),)))

    def test_edge_onto_one_vertex_raises_loop(self):
        g = two_p2()  # names u1 u2 v1 v2: u1 and v1 are adjacent
        with pytest.raises(LoopError, match=r"loop at m\(u1\|v1\)"):
            merge_positions(g, [[0, 2]])


class TestDeleteAdd:
    def test_identity_on_empty_lists(self):
        # Deleting and adding nothing is the identity edge map: delete_add
        # must hand back the same graph, on the same names.
        lg = two_stars()
        out = delete_add(lg, SwapSpec((), ())).graph
        assert out == lg.graph and out.ends == lg.graph.ends and out.names is lg.graph.names


class TestComponentsAndBipartition:
    def test_two_p2_components(self):
        assert len(components(two_p2())) == 2

    def test_component_order_deterministic(self):
        g = two_p2()  # names u1 u2 v1 v2
        comps = components(g)
        assert comps == [[0, 2], [1, 3]]
        assert g.names[comps[0][0]] < g.names[comps[1][0]]

    def test_triangle_not_bipartite(self):
        assert bipartition(Graph.build([u(1), v(1), x(1, 1)], [(u(1), v(1)), (u(1), x(1, 1)), (v(1), x(1, 1))])) == [None]

    def test_odd_component_then_bipartite_one(self):
        """The triangle's component is None although the walk runs through
        it past its first clash (it lists the component too); the next
        component, whose positions interleave with it, is still 2-colored
        from its own smallest vertex."""
        g = Graph.build(
            [u(1), u(2), v(1), x(1, 1), u(3), v(2), x(1, 2)],
            [(u(1), u(2)), (u(1), v(1)), (u(2), v(1)), (v(1), x(1, 1)), (u(3), v(2)), (v(2), x(1, 2))],
        )
        assert components(g) == [[0, 1, 3, 5], [2, 4, 6]]
        parts = bipartition(g)
        assert parts[0] is None
        assert [[g.names[i] for i in side] for side in parts[1]] == [[u(3), x(1, 2)], [v(2)]]

    def test_unique_classes_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 7)
            verts = [u(i) for i in range(1, n + 1)]
            edges = [(a, b) for a in verts for b in verts if a < b and rng.random() < 0.35]
            g = Graph.build(verts, edges)
            parts = bipartition(g)
            fresh = Graph(g.names, g.ends)  # bipartition asked first of g, components first of the copy
            assert (components(fresh), bipartition(fresh)) == (components(g), parts)
            for comp, part in zip(components(g), parts):
                vs = [g.names[i] for i in comp]
                inner = [(a, b) for a, b in g.edge_index if a in vs]
                colorings = []
                for mask in range(2 ** len(vs)):
                    col = {w: (mask >> i) & 1 for i, w in enumerate(vs)}
                    if all(col[a] != col[b] for a, b in inner):
                        colorings.append(frozenset(w for w in vs if col[w] == col[vs[0]]))
                if part is None:
                    assert not colorings
                else:
                    assert set(colorings) == {frozenset(g.names[i] for i in part[0])}

    def test_match_networkx_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        for _ in range(60):
            verts = [u(i) for i in range(1, rng.randint(1, 6))] + [x(1, j) for j in range(1, rng.randint(1, 6))]
            edges = [(a, b) for a in verts for b in verts if a < b and rng.random() < 0.25]
            g = Graph.build(verts, edges)
            ref = nx.Graph()
            ref.add_nodes_from(verts)
            ref.add_edges_from(edges)
            expected = sorted((ref.subgraph(c) for c in nx.connected_components(ref)), key=min)
            comps = components(g)
            fresh = Graph(g.names, g.ends)  # components asked first of g, bipartition first of the copy
            assert (bipartition(fresh), components(fresh)) == (bipartition(g), comps)
            assert [frozenset(g.names[i] for i in comp) for comp in comps] == [frozenset(c.nodes) for c in expected]
            assert sorted(i for comp in comps for i in comp) == list(range(g.order))
            assert all(comp == sorted(comp) for comp in comps)
            part_of = {i: p for p, comp in enumerate(comps) for i in comp}
            assert all(part_of[a] == part_of[b] for a, b in g.ends)
            for part, c in zip(bipartition(g), expected):
                if not nx.is_bipartite(c):
                    assert part is None
                    continue
                seed = min(c.nodes)
                side0 = frozenset(w for w, d in nx.shortest_path_length(c, seed).items() if d % 2 == 0)
                sides = tuple(frozenset(g.names[i] for i in side) for side in part)
                assert sides == (side0, frozenset(c.nodes) - side0)
                assert all(side == sorted(side) for side in part)

    def test_equal_parts_check(self):
        c4 = Graph.build(
            [u(1), v(1), u(2), v(2)],
            [(u(1), v(1)), (v(1), u(2)), (u(2), v(2)), (v(2), u(1))],
        )
        assert is_bipartite_equal_parts(c4)
        assert not is_bipartite_equal_parts(Graph.build([u(1), v(1), x(1, 1)], [(u(1), v(1)), (u(1), x(1, 1)), (v(1), x(1, 1))]))


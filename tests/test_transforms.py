import random

import pytest

from antimagic.errors import AntimagicError, ParallelEdgeError, SumDriftError
from antimagic.graph import Graph, components, edge, is_bipartite_equal_parts, merged, u, v, x
from antimagic.labeling import EdgeLabeling, induce
from antimagic.schemes import EVEN, ODD, build_matrix
from antimagic.transforms import (
    LabeledGraph,
    SwapSpec,
    block_merge,
    chunk_blocks,
    connecting_swaps,
    delete_add,
    expected_colors_block,
    expected_colors_split,
    from_matrix,
    group_components,
    merge_all_x,
    merge_v_blocks,
    random_swap_spec,
    replay,
    split_x,
    theorem_certificate,
)


def degree(g: Graph, w) -> int:
    return len(g.neighbors[g.index[w]])


def even_base(n, k):
    return from_matrix(build_matrix(EVEN, n, k))


def odd_base(n, k):
    return from_matrix(build_matrix(ODD, n, k))


class TestFromMatrix:
    def test_even_column_sums(self):
        lg = even_base(2, 4)
        colors = lg.coloring.colors
        assert colors[u(1)] == 65 + 16 + 49 + 40 + 44 == 214
        assert colors[v(1)] == 44 + 1 + 64 + 17 + 25 == 151

    def test_odd_column_sums(self):
        lg = odd_base(2, 3)
        colors = lg.coloring.colors
        assert colors[u(1)] == 261 and colors[v(1)] == 111

    def test_shape(self):
        lg = even_base(2, 4)
        assert lg.graph.size == 72
        assert len(components(lg.graph)) == 8


class TestMergeAllX:
    def test_even_colors(self):
        lg = merge_all_x(even_base(2, 4))
        assert lg.colors == {214, 151, 584}
        assert lg.graph.order == 4 * 4 + 2 * 2
        assert lg.graph.size == 72

    def test_odd_colors(self):
        lg = merge_all_x(odd_base(2, 3))
        assert lg.colors == {261, 111, 438}  # 438 = 2k(8kn+8k+1)

    def test_x_degree(self):
        lg = merge_all_x(even_base(2, 4))
        xm = merged([x(i, 1) for i in range(1, 9)])
        assert degree(lg.graph, xm) == 16

    def test_requires_fresh_matrix_graph(self):
        lg = merge_all_x(even_base(2, 4))
        with pytest.raises(AntimagicError):
            merge_all_x(lg)


class TestBlockMerge:
    def test_worked_color_triple(self):
        lg = block_merge(even_base(2, 2), 2, 1)
        assert lg.colors == {108, 77, 74}
        assert 1 * (16 * 2 * 2 + 4 * 2 + 2) == 74

    def test_odd_worked_triple(self):
        lg = block_merge(odd_base(2, 3), 3, 1)
        assert lg.colors == {261, 111, 146}

    def test_component_count_is_r(self):
        for r, s in [(2, 2), (4, 1)]:
            lg = block_merge(even_base(1, 4), r, s)
            assert len(components(lg.graph)) == r
            assert all(degree(lg.graph, w) == 4 * s for w in lg.graph.names if not w.role == "u" and not w.role == "v")

    def test_factorization_enforced(self):
        with pytest.raises(AntimagicError):
            block_merge(even_base(2, 4), 3, 1)
        with pytest.raises(AntimagicError):
            block_merge(even_base(2, 4), 1, 4)


class TestSplitX:
    def test_odd_worked_triple(self):
        lg = split_x(block_merge(odd_base(2, 3), 3, 1))
        assert lg.colors == {261, 111, 73}

    def test_even_derived_triple(self):
        lg = split_x(block_merge(even_base(2, 3), 3, 1))
        assert lg.colors == {161, 114, 55}

    def test_halves_sum_to_old_color_and_are_equal(self):
        merged_lg = block_merge(even_base(2, 4), 2, 2)
        split_lg = split_x(merged_lg)
        old = merged_lg.coloring.colors
        new = split_lg.coloring.colors
        for b, (lo, hi) in [(1, ([1, 2], [7, 8])), (2, ([3, 4], [5, 6]))]:
            for j in range(1, 5):
                xm = merged(x(i, j) for i in lo + hi)
                ya = merged(x(i, j) for i in lo)
                za = merged(x(i, j) for i in hi)
                assert new[ya] == new[za]
                assert new[ya] + new[za] == old[xm]

    def test_split_is_bipartite_with_equal_parts(self):
        lg = split_x(block_merge(even_base(2, 2), 2, 1))
        assert is_bipartite_equal_parts(lg.graph)

    def test_merge_back_restores_block_output(self):
        merged_lg = block_merge(even_base(1, 2), 2, 1)
        split_lg = split_x(merged_lg)
        back = merge_vertices_back(split_lg)
        assert back == merged_lg.labeling.labels

    def test_requires_block_output(self):
        with pytest.raises(AntimagicError):
            split_x(even_base(2, 2))
        with pytest.raises(AntimagicError):
            split_x(merge_all_x(even_base(2, 2)))

    def test_requires_a_graph_merged_from_the_matrix_graph(self):
        # tagged block_merge, but its graph was built whole: there is no matrix graph to cross
        block = block_merge(even_base(2, 2), 2, 1)
        g = Graph(block.graph.names, block.graph.ends)
        lg = LabeledGraph(EdgeLabeling(g, block.labeling.values), block.provenance)
        with pytest.raises(AntimagicError, match="split_x expects a block_merge output"):
            split_x(lg)


def merge_vertices_back(split_lg):
    """Merge each y/z pair back and return the resulting label map."""
    from antimagic.graph import merge_vertices_mapped

    g = split_lg.graph
    xs = sorted(w for w in g.names if w.role in ("x", "m") and (w.role == "x" or all(p.role == "x" for p in w.parts)))
    pair_of = {}
    for w in xs:
        j = w.j if w.role == "x" else w.parts[0].j
        cols = {w.i} if w.role == "x" else {p.i for p in w.parts}
        key = (j, frozenset(cols | {2 * split_lg.k + 1 - c for c in cols}))
        pair_of.setdefault(key, []).append(w)
    groups = [pair for pair in pair_of.values() if len(pair) == 2]
    return split_lg.labeling.relabel_edges(merge_vertices_mapped(g, groups)).labels


class TestDeleteAdd:
    def worked_swap(self):
        lg = block_merge(even_base(2, 3), 3, 1)
        a = merged([x(1, 4), x(6, 4)])
        b = merged([x(3, 1), x(4, 1)])
        spec = SwapSpec(
            delete=(edge(u(1), a), edge(v(6), a), edge(u(3), b), edge(v(4), b)),
            add=(
                (edge(u(1), b), 30),
                (edge(v(6), b), 25),
                (edge(u(3), a), 51),
                (edge(v(4), a), 4),
            ),
        )
        return lg, spec

    def test_worked_swap_labels(self):
        lg, spec = self.worked_swap()
        labels = lg.labeling.labels
        a = merged([x(1, 4), x(6, 4)])
        b = merged([x(3, 1), x(4, 1)])
        assert labels[edge(u(1), a)] == 30
        assert labels[edge(v(6), a)] == 25
        assert labels[edge(u(3), b)] == 51
        assert labels[edge(v(4), b)] == 4

    def test_worked_swap_preserves_coloring(self):
        lg, spec = self.worked_swap()
        out = delete_add(lg, spec)
        assert out.coloring.colors == lg.coloring.colors
        assert out.graph.order == lg.graph.order and out.graph.size == lg.graph.size
        assert len(components(out.graph)) == len(components(lg.graph)) - 1

    def test_empty_spec_is_identity(self):
        lg = block_merge(even_base(2, 2), 2, 1)
        out = delete_add(lg, SwapSpec((), ()))
        assert out.labeling == lg.labeling

    def test_delete_then_readd(self):
        lg = block_merge(even_base(2, 2), 2, 1)
        e = edge(u(1), v(1))
        out = delete_add(lg, SwapSpec((e,), ((e, lg.labeling.labels[e]),)))
        assert out.labeling == lg.labeling

    def test_rewire_keeps_degree_sequence(self):
        lg, spec = self.worked_swap()
        g, out = lg.graph, delete_add(lg, spec).graph
        assert set(out.names) == set(g.names)
        assert all(degree(out, w) == degree(g, w) for w in g.names)

    @pytest.mark.parametrize(
        "case, error, match",
        [
            pytest.param("missing-edge", AntimagicError, "missing edge", id="missing-edge"),
            pytest.param("missing-endpoint", AntimagicError, "missing edge", id="missing-endpoint"),
            pytest.param("duplicate-delete", AntimagicError, "duplicate", id="duplicate-delete"),
            pytest.param("endpoint-outside", AntimagicError, "not in vertex set", id="endpoint-outside"),
            pytest.param("existing-edge", ParallelEdgeError, "parallel", id="existing-edge"),
        ],
    )
    def test_rejected_specs(self, case, error, match):
        lg = block_merge(even_base(2, 3), 3, 1)
        e = edge(u(1), merged([x(1, 1), x(6, 1)]))
        lab = lg.labeling.labels[e]
        to_a2 = (edge(u(1), merged([x(1, 2), x(6, 2)])), lab)  # u1 already touches it
        spec = {
            "missing-edge": SwapSpec((edge(u(1), v(2)),), ((e, lab),)),
            "missing-endpoint": SwapSpec((edge(u(1), x(9, 9)),), ((e, lab),)),
            "duplicate-delete": SwapSpec((e, e), (to_a2, to_a2)),
            "endpoint-outside": SwapSpec((e,), ((edge(u(1), x(9, 9)), lab),)),
            "existing-edge": SwapSpec((e,), (to_a2,)),
        }[case]
        with pytest.raises(error, match=match):
            delete_add(lg, spec)

    def test_label_multiset_mismatch_rejected(self):
        lg, spec = self.worked_swap()
        bad = SwapSpec(spec.delete, tuple((e, lab + 1) for e, lab in spec.add))
        with pytest.raises(AntimagicError, match="labels"):
            delete_add(lg, bad)

    def test_moved_uv_endpoint_rejected(self):
        lg, spec = self.worked_swap()
        adds = list(spec.add)
        a = merged([x(1, 4), x(6, 4)])
        b = merged([x(3, 1), x(4, 1)])
        adds[0] = (edge(v(1), b), 30)  # label 30 belongs to u1, not v1
        with pytest.raises(AntimagicError, match="endpoint"):
            delete_add(lg, SwapSpec(spec.delete, tuple(adds)))

    def test_sum_drift_rejected(self):
        lg = block_merge(even_base(2, 3), 3, 1)
        a = merged([x(1, 1), x(6, 1)])
        b = merged([x(2, 1), x(5, 1)])
        p, q = lg.labeling.labels[edge(v(1), a)], lg.labeling.labels[edge(v(2), b)]
        assert p != q
        spec = SwapSpec(
            delete=(edge(v(1), a), edge(v(2), b)),
            add=((edge(v(1), b), p), (edge(v(2), a), q)),
        )
        with pytest.raises(SumDriftError):
            delete_add(lg, spec)

    def test_parallel_add_rejected(self):
        lg = block_merge(even_base(2, 3), 3, 1)
        a = merged([x(1, 1), x(6, 1)])
        a2 = merged([x(1, 2), x(6, 2)])
        lab = lg.labeling.labels[edge(v(1), a)]
        spec = SwapSpec(delete=(edge(v(1), a),), add=((edge(v(1), a2), lab),))
        with pytest.raises(ParallelEdgeError):
            delete_add(lg, spec)

    def test_random_swaps_preserve_coloring(self):
        rng = random.Random(42)
        lg = block_merge(even_base(2, 4), 2, 2)
        for _ in range(25):
            spec = random_swap_spec(lg, rng)
            lg = delete_add(lg, spec)
        base = block_merge(even_base(2, 4), 2, 2)
        assert lg.coloring.colors == base.coloring.colors

    def test_connecting_swaps_reach_one_component(self):
        lg = block_merge(even_base(1, 4), 4, 1)
        out = connecting_swaps(lg)
        assert len(components(out.graph)) == 1
        assert out.coloring.colors == lg.coloring.colors


class TestMergeVBlocks:
    def test_j1_worked_triple(self):
        pairs = block_merge(even_base(1, 6), 6, 1)
        out = merge_v_blocks(pairs, [[v(3 * a - 2), v(3 * a - 1), v(3 * a)] for a in range(1, 5)])
        assert out.colors == {127, 168, 122}

    def test_connected_chain_gives_one_component(self):
        # {v_i, v_12-i} for i < 6 and {v_6, v_12} chain all six components
        pairs = block_merge(even_base(1, 6), 6, 1)
        blocks = [[v(i), v(12 - i)] for i in range(1, 6)] + [[v(6), v(12)]]
        out = merge_v_blocks(pairs, blocks)
        assert len(components(out.graph)) == 1

    def test_odd_side_is_u(self):
        pairs = block_merge(odd_base(1, 2), 2, 1)
        out = merge_v_blocks(pairs, chunk_blocks(pairs, 2))
        uc = (1 + 1) * (12 * 1 * 2 + 4 * 2 + 1) + 2 * 2  # 70
        assert out.colors == {2 * uc, 34, 66}

    @pytest.mark.parametrize("base,blocks", [
        pytest.param(lambda: even_base(1, 2), [[u(1), u(2)], [u(3), u(4)]], id="u-blocks-on-even"),
        pytest.param(lambda: odd_base(1, 2), [[v(1), v(2)], [v(3), v(4)]], id="v-blocks-on-odd"),
        pytest.param(lambda: even_base(1, 2), [[v(1), u(2)], [v(3), v(4)]], id="mixed-on-even"),
    ])
    def test_blocks_off_the_parity_side_rejected(self, base, blocks):
        pairs = block_merge(base(), 2, 1)
        with pytest.raises(AntimagicError, match=f"only {pairs.side}-vertices"):
            merge_v_blocks(pairs, blocks)

    def test_size_one_blocks_are_identity(self):
        pairs = block_merge(even_base(1, 6), 6, 1)
        out = merge_v_blocks(pairs, [[v(i)] for i in range(1, 13)])
        assert out.graph == pairs.graph

    def test_unequal_sizes_rejected(self):
        pairs = block_merge(even_base(1, 6), 6, 1)
        with pytest.raises(AntimagicError, match="one size"):
            merge_v_blocks(pairs, [[v(1), v(2)], [v(3), v(4), v(5)]])

    def test_common_neighbor_rejected(self):
        pairs = block_merge(even_base(1, 6), 6, 1)
        with pytest.raises(ParallelEdgeError):
            merge_v_blocks(pairs, [[v(1), v(12)]])  # same component

    def test_repeated_member_rejected(self):
        pairs = block_merge(even_base(1, 2), 2, 1)
        with pytest.raises(AntimagicError, match="pairwise distinct"):
            merge_v_blocks(pairs, [[v(1), v(1)]])


class TestGroupComponents:
    def test_worked_h_triple(self):
        pairs = block_merge(even_base(1, 6), 6, 1)
        out = group_components(pairs, (2, 4))
        assert out.colors == {127, 112, 122}
        assert len(components(out.graph)) == 2

    def test_equal_groups(self):
        pairs = block_merge(even_base(1, 6), 6, 1)
        out = group_components(pairs, (3, 3))
        assert out.colors == {127, 112, 122}
        assert len(components(out.graph)) == 2

    def test_single_group_is_connected(self):
        pairs = block_merge(even_base(1, 6), 6, 1)
        out = group_components(pairs, (6,))
        assert len(components(out.graph)) == 1

    def test_wrong_total_rejected(self):
        pairs = block_merge(even_base(1, 6), 6, 1)
        with pytest.raises(AntimagicError, match="sum to k"):
            group_components(pairs, (2, 3))

    def test_split_input_even_groups_bipartite(self):
        sp = split_x(block_merge(even_base(1, 4), 4, 1))
        out = group_components(sp, (2, 2))
        assert is_bipartite_equal_parts(out.graph)
        # equal partite size 2*k_i*n + 3*k_i/2 = 7 per group
        from antimagic.graph import bipartition

        for part in bipartition(out.graph):
            assert len(part[0]) == len(part[1]) == 7


class TestCertificatesAndReplay:
    def test_split_graph_certificate(self):
        sp = split_x(block_merge(even_base(1, 2), 2, 1))
        assert theorem_certificate(sp.graph) == "bipartite-equal-parts"

    def test_merged_graph_certificate(self):
        pairs = block_merge(even_base(1, 6), 6, 1)
        out = group_components(pairs, (6,))
        assert theorem_certificate(out.graph) == "tripartite"

    def test_mixed_role_vertex_is_not_tripartite(self):
        # u1, v1 and m(u2|x1.1): the merged vertex has no single role class
        w = merged([u(2), x(1, 1)])
        g = Graph.build([u(1), v(1), w], [(u(1), v(1)), (u(1), w), (v(1), w)])
        assert theorem_certificate(g) == "unverified by theorem"

    def test_replay_round_trip(self):
        rng = random.Random(5)
        lg = split_x(block_merge(even_base(2, 4), 2, 2))
        lg = delete_add(lg, random_swap_spec(lg, rng))
        again = replay(lg.provenance)
        assert again.labeling.labels == lg.labeling.labels
        assert again.graph == lg.graph

    def test_replay_of_reversed_adds(self):
        """Adds given as (b, a) are logged in the canonical order, so the log replays to the value."""
        lg = block_merge(even_base(1, 4), 4, 1)
        spec = random_swap_spec(lg, random.Random(0))
        reversed_adds = SwapSpec(spec.delete, tuple(((b, a), lab) for (a, b), lab in spec.add))
        out = delete_add(lg, reversed_adds)
        assert out == delete_add(lg, spec)
        assert replay(out.provenance) == out

    def test_replay_j_chain(self):
        pairs = block_merge(odd_base(1, 3), 3, 1)
        out = group_components(pairs, (3,))
        again = replay(out.provenance)
        assert again.labeling.labels == out.labeling.labels

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    @pytest.mark.parametrize("family", ["merge_v_blocks", "group_components"])
    def test_replay_rejects_a_side_against_the_parity(self, parity, family):
        pairs = block_merge(from_matrix(build_matrix(parity, 1, 2)), 2, 1)
        out = merge_v_blocks(pairs, chunk_blocks(pairs, 2)) if family == "merge_v_blocks" else group_components(pairs, (2,))
        tag, side, rest = out.provenance[-1]
        assert (tag, side) == (family, pairs.side)
        wrong = out.provenance[:-1] + ((tag, "u" if side == "v" else "v", rest),)
        with pytest.raises(AntimagicError, match="records side"):
            replay(wrong)

    def test_replay_rejects_a_repeated_block_member(self):
        log = block_merge(even_base(1, 2), 2, 1).provenance + (("merge_v_blocks", "v", (("v1", "v1"),)),)
        with pytest.raises(AntimagicError, match="pairwise distinct"):
            replay(log)

    @pytest.mark.parametrize("log", [(("merge_all_x",),), (("group_components", "v", (2,)),)], ids=["merge-all", "group"])
    def test_replay_rejects_a_log_without_a_base_step(self, log):
        with pytest.raises(AntimagicError, match="must start with"):
            replay(log)

    @pytest.mark.parametrize(
        "log",
        [
            (("matrix", "even", 1),),
            (("matrix", "even", 2, 2), ("block_merge",)),
            (("matrix", "even", 2, 2), ("delete_add",)),
            (("matrix", "even", 2, 2), ("block_merge", 2, "x")),
            (("matrix", "even", 2, 2), ("block_merge", 2, 1), ("split_x", 1)),
        ],
        ids=["short-matrix", "bare-block-merge", "bare-delete-add", "string-s", "long-split"],
    )
    def test_replay_names_a_malformed_step(self, log):
        with pytest.raises(AntimagicError, match=r"malformed provenance step \(" + repr(log[-1][0])):
            replay(log)


class TestExpectedColorFormulas:
    def test_block_formula_matches_worked_values(self):
        assert expected_colors_block(EVEN, 2, 2, 1) == {108, 77, 74}
        assert expected_colors_block(ODD, 2, 3, 1) == {261, 111, 146}

    def test_split_formula_matches_worked_values(self):
        assert expected_colors_split(ODD, 2, 3, 1) == {261, 111, 73}
        assert expected_colors_split(EVEN, 2, 3, 1) == {161, 114, 55}


def _pairs(parity=EVEN, n=1, k=4):
    return block_merge(from_matrix(build_matrix(parity, n, k)), k, 1)


def _forged(graph_of, provenance_of):
    """``graph_of``'s labeling under ``provenance_of``'s log."""
    return LabeledGraph(graph_of.labeling, provenance_of.provenance)


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: block_merge(merge_all_x(even_base(1, 4)), 4, 1), "fresh matrix graph", id="block-of-merge-all"),
    pytest.param(lambda: merge_v_blocks(block_merge(even_base(1, 4), 2, 2), [[v(1), v(2)]]),
                 r"k\(2P_2 ∨ O_m\) or its split", id="j-input-block-s2"),
    pytest.param(lambda: group_components(even_base(1, 4), (2, 2)), r"k\(2P_2 ∨ O_m\) or its split", id="j-input-matrix"),
    pytest.param(lambda: group_components(_forged(split_x(_pairs()), _pairs()), (2, 2)),
                 "graph has 32 vertices, its provenance gives 24", id="order-split-as-pairs"),
    pytest.param(lambda: merge_v_blocks(_forged(_pairs(ODD), split_x(_pairs(ODD))), [[u(1), u(2)]]),
                 "graph has 28 vertices, its provenance gives 40", id="order-pairs-as-split"),
    pytest.param(lambda: merge_v_blocks(_pairs(), []), "no blocks given", id="no-blocks"),
    pytest.param(lambda: merge_v_blocks(_pairs(), [[]]), "block size must be >= 1", id="empty-block"),
    pytest.param(lambda: chunk_blocks(_pairs(), 1), r"need 2 <= s <= k", id="chunk-s1"),
    pytest.param(lambda: chunk_blocks(_pairs(), 8), r"need 2 <= s <= k", id="chunk-s-above-k"),
    pytest.param(lambda: group_components(_pairs(), (1, 3)), "at least 2 components", id="group-part-1"),
    pytest.param(lambda: replay([("matrix", EVEN, 1, 2), ("bogus",)]), "unknown provenance step 'bogus'",
                 id="replay-unknown-tag"),
    pytest.param(lambda: replay([]), "empty provenance", id="replay-empty"),
])
def test_refusals(call, match):
    with pytest.raises(AntimagicError, match=match):
        call()

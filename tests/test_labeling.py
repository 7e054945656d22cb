import random

import pytest

from antimagic.errors import AntimagicError
from antimagic.graph import Graph, copies_of_p2_join_null, u, v, x
from antimagic.labeling import (
    EdgeLabeling,
    chi_la_lower_bound,
    induce,
    is_local_antimagic,
)
from antimagic.schemes import EVEN, ODD, build_matrix
from antimagic.sweep import _colors_ok
from antimagic.transforms import LabeledGraph, block_merge, from_matrix, special_labeled, split_x


def triangle() -> Graph:
    """P_2 v O_1: the triangle on u1, v1, x1.1."""
    return Graph.build([u(1), v(1), x(1, 1)], [(u(1), v(1)), (u(1), x(1, 1)), (v(1), x(1, 1))])


def single_edge() -> Graph:
    return Graph.build([u(1), v(1)], [(u(1), v(1))])


def triangle_labeling() -> EdgeLabeling:
    g = triangle()
    labels = {(u(1), v(1)): 1, (u(1), x(1, 1)): 2, (v(1), x(1, 1)): 3}
    return EdgeLabeling.from_dict(g, labels)


class TestEdgeLabeling:
    def test_bijection_enforced(self):
        g = single_edge()
        with pytest.raises(AntimagicError):
            EdgeLabeling.from_dict(g, {(u(1), v(1)): 2})

    def test_coverage_enforced(self):
        g = Graph.build([u(1), v(1), u(2), v(2)], [(u(1), v(1)), (u(2), v(2))])
        with pytest.raises(AntimagicError):
            EdgeLabeling.from_dict(g, {(u(1), v(1)): 1})


class TestInduce:
    def test_triangle(self):
        coloring = induce(triangle_labeling())
        assert coloring.colors == {u(1): 3, v(1): 4, x(1, 1): 5}
        assert coloring.c == 3

    def test_total_is_q_q_plus_one(self):
        labeling = special_labeled().labeling
        assert sum(induce(labeling).colors.values()) == 10 * 11
        lg = from_matrix(build_matrix(EVEN, 2, 2))
        q = lg.graph.size
        assert sum(induce(lg.labeling).colors.values()) == q * (q + 1)

    def test_total_invariant_random_labelings(self):
        rng = random.Random(3)
        g = copies_of_p2_join_null(2, 2)
        edges = list(g.edge_index)
        for _ in range(20):
            labels = list(range(1, len(edges) + 1))
            rng.shuffle(labels)
            labeling = EdgeLabeling.from_dict(g, dict(zip(edges, labels)))
            q = len(edges)
            assert sum(induce(labeling).colors.values()) == q * (q + 1)


class TestIsLocalAntimagic:
    def test_special_fixture_is_valid(self):
        labeling = special_labeled().labeling
        ok, bad = is_local_antimagic(labeling)
        assert ok and not bad

    def test_single_edge_always_fails(self):
        labeling = EdgeLabeling.from_dict(single_edge(), {(u(1), v(1)): 1})
        ok, bad = is_local_antimagic(labeling)
        assert not ok
        assert bad == [(u(1), v(1))]

    def test_violations_listed_deterministically(self):
        g = Graph.build([u(1), v(1), u(2), v(2)], [(u(1), v(1)), (u(2), v(2))])
        labeling = EdgeLabeling.from_dict(g, {(u(1), v(1)): 1, (u(2), v(2)): 2})
        ok, bad = is_local_antimagic(labeling)
        assert not ok
        assert bad == sorted(bad) and len(bad) == 2


class TestAssertThreeColoring:
    """The one three-coloring check, shared by every sweep row."""

    def test_odd_split_triple(self):
        lg = split_x(block_merge(from_matrix(build_matrix(ODD, 2, 3)), 3, 1))
        assert _colors_ok(lg, {261, 111, 73}) == (True, "")

    def test_odd_block_triple(self):
        lg = block_merge(from_matrix(build_matrix(ODD, 2, 3)), 3, 1)
        assert _colors_ok(lg, {261, 111, 146}) == (True, "")

    def test_wrong_set_reports_diff(self):
        lg = block_merge(from_matrix(build_matrix(ODD, 2, 3)), 3, 1)
        ok, detail = _colors_ok(lg, {261, 111, 999})
        assert not ok
        assert "999" in detail and "146" in detail

    def test_equal_color_edge_reported(self):
        lg = LabeledGraph(EdgeLabeling.from_dict(single_edge(), {(u(1), v(1)): 1}), ())
        ok, detail = _colors_ok(lg, {1})
        assert not ok
        assert "u1-v1" in detail


class TestLowerBound:
    def test_split_instances_reach_three_by_bipartition(self):
        lg = split_x(block_merge(from_matrix(build_matrix(EVEN, 2, 3)), 3, 1))
        assert chi_la_lower_bound(lg.graph) == (3, "equal-bipartition")
        # parts of size 2n+2s per component
        from antimagic.graph import bipartition

        for part in bipartition(lg.graph):
            assert part is not None and len(part[0]) == len(part[1]) == 6

    def test_triangle_bound_via_chromatic(self):
        assert chi_la_lower_bound(triangle()) == (3, "chromatic")

    def test_edgeless(self):
        assert chi_la_lower_bound(Graph.build([x(1, j) for j in range(1, 5)], [])) == (1, "edgeless")

    def test_no_vertices(self):
        assert chi_la_lower_bound(Graph((), ())) == (0, "edgeless")

    def test_unequal_bipartite_graph_gets_two(self):
        star = Graph.build([u(1), v(1), v(2), v(3)], [(u(1), v(1)), (u(1), v(2)), (u(1), v(3))])
        assert chi_la_lower_bound(star)[0] == 2

    def test_bound_never_exceeds_achieved_color_count(self):
        for lg in (
            block_merge(from_matrix(build_matrix(EVEN, 2, 2)), 2, 1),
            split_x(block_merge(from_matrix(build_matrix(ODD, 1, 2)), 2, 1)),
        ):
            bound, _ = chi_la_lower_bound(lg.graph)
            assert bound <= len(lg.colors) == 3

import itertools
import json
import random
from functools import cached_property
from pathlib import Path

import pytest

from antimagic.errors import AntimagicError
from antimagic.graph import Graph, components, copies_of_p2_join_null, u, v, x
from antimagic.labeling import EdgeLabeling, chi_la_lower_bound, induce, is_local_antimagic
from antimagic.oracle import (
    _budgets,
    _edge_order,
    _isomorphism,
    _Search,
    _symmetries,
    certify_no_2_coloring,
    exact_chi_la,
    find_labeling,
)
from antimagic.schemes import build_matrix
from antimagic.transforms import from_matrix, special_labeled


def triangle() -> Graph:
    """P_2 v O_1: the triangle on u1, v1, x1.1."""
    return Graph.build([u(1), v(1), x(1, 1)], [(u(1), v(1)), (u(1), x(1, 1)), (v(1), x(1, 1))])


def single_edge() -> Graph:
    return Graph.build([u(1), v(1)], [(u(1), v(1))])


def null(m: int) -> Graph:
    """O_m on x1.1..x1.m."""
    return Graph.build([x(1, j) for j in range(1, m + 1)], [])


def c4() -> Graph:
    return Graph.build(
        [u(1), v(1), u(2), v(2)],
        [(u(1), v(1)), (v(1), u(2)), (u(2), v(2)), (v(2), u(1))],
    )


def p4() -> Graph:
    return Graph.build([u(1), v(1), u(2), v(2)], [(u(1), v(1)), (v(1), u(2)), (u(2), v(2))])


def c5() -> Graph:
    us = [u(i) for i in range(1, 6)]
    return Graph.build(us, list(zip(us, us[1:] + us[:1])))


def star3() -> Graph:
    return Graph.build([u(1), v(1), v(2), v(3)], [(u(1), v(1)), (u(1), v(2)), (u(1), v(3))])


class TestExactChiLa:
    def test_triangle(self):
        assert exact_chi_la(triangle()).value == 3

    def test_single_edge_has_no_labeling(self):
        assert exact_chi_la(single_edge()).value is None

    def test_two_edges_have_no_labeling(self):
        assert exact_chi_la(copies_of_p2_join_null(2, 0)).value is None

    def test_edgeless_graph_has_one_color(self):
        # the empty labeling is local antimagic; every vertex gets color 0
        g = null(3)
        assert exact_chi_la(g).value == 1
        assert chi_la_lower_bound(g) == (1, "edgeless")
        assert induce(find_labeling(g).labeling).c == 1

    def test_graph_without_vertices_has_no_color(self):
        g = Graph((), ())
        assert exact_chi_la(g).value == 0
        assert chi_la_lower_bound(g) == (0, "edgeless")
        assert induce(find_labeling(g).labeling).c == 0

    def test_join_of_two_edges_and_two_nulls(self):
        g = special_labeled().graph
        assert exact_chi_la(g).value == 3

    def test_star_needs_four(self):
        # leaves always carry three distinct labels, center their sum
        assert exact_chi_la(star3()).value == 4

    def test_bound_soundness_on_corpus(self):
        for g in (triangle(), c4(), star3(), special_labeled().graph):
            res = exact_chi_la(g)
            if res.value is not None:
                assert res.value >= chi_la_lower_bound(g)[0]

    def test_cap_enforced(self):
        g = copies_of_p2_join_null(2, 3)  # 14 edges
        with pytest.raises(AntimagicError):
            exact_chi_la(g)

    def test_cap_override(self):
        with pytest.raises(AntimagicError):
            exact_chi_la(c4(), cap=3)
        assert exact_chi_la(c4(), cap=4).value == 3

    def test_deterministic(self):
        a = exact_chi_la(c4())
        b = exact_chi_la(c4())
        assert (a.value, a.nodes) == (b.value, b.nodes)


class TestFindLabeling:
    def test_prescribed_color_set(self):
        g = special_labeled().graph
        res = find_labeling(g, target_colors={14, 19, 22})
        assert res.labeling is not None
        assert induce(res.labeling).color_set == {14, 19, 22}
        ok, _ = is_local_antimagic(res.labeling)
        assert ok

    def test_unknown_mode_raises(self):
        with pytest.raises(AntimagicError, match="unknown mode 'bogus'"):
            find_labeling(single_edge(), mode="bogus")

    def test_impossible_target_c(self):
        assert find_labeling(single_edge(), target_c=1).labeling is None

    def test_unreachable_two_colors_on_c4(self):
        assert find_labeling(c4(), target_c=2).labeling is None

    def test_edgeless_graph_has_the_empty_labeling(self):
        res = find_labeling(null(3))
        assert res.labeling is not None and res.labeling.labels == {}
        assert induce(res.labeling).c == 1

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_empty_target_set_means_no_color(self, mode):
        # 0 colors is outside the budgets of every graph with a vertex
        for g in (c4(), null(3)):
            res = find_labeling(g, target_colors=set(), mode=mode)
            assert (res.labeling, res.nodes) == (None, 0)
        res = find_labeling(Graph((), ()), target_colors=set(), mode=mode)
        assert res.labeling is not None and res.labeling.labels == {} and res.nodes == 0

    def test_target_c_means_exactly_c_colors(self):
        # labels 1, 3, 2 along P_4 give colors 1, 4, 5, 2; most orders give 3
        runs = [find_labeling(p4(), target_c=4)]
        runs += [find_labeling(p4(), target_c=4, mode="heuristic", seed=seed) for seed in range(8)]
        for res in runs:
            assert res.labeling is not None
            assert is_local_antimagic(res.labeling)[0]
            assert induce(res.labeling).c == 4

    def test_heuristic_without_a_swap_returns_none(self):
        # O_3 has only the empty labeling (c = 1); P_2 has one labeling, not local antimagic
        assert find_labeling(null(3), target_c=2, mode="heuristic").labeling is None
        assert find_labeling(null(3), target_c=1, mode="heuristic").labeling is not None
        assert find_labeling(single_edge(), mode="heuristic").labeling is None

    def test_contradictory_constraints(self):
        with pytest.raises(AntimagicError):
            find_labeling(c4(), target_colors={1, 2, 3}, target_c=2)

    def test_found_labelings_always_verify(self):
        for g in (triangle(), c4(), star3()):
            res = find_labeling(g)
            assert res.labeling is not None
            assert is_local_antimagic(res.labeling)[0]

    def test_heuristic_mode_smoke(self):
        g = special_labeled().graph
        res = find_labeling(g, target_c=3, mode="heuristic", seed=1)
        if res.labeling is not None:  # heuristic proves nothing when absent
            assert is_local_antimagic(res.labeling)[0]
            assert induce(res.labeling).c <= 3

    def test_heuristic_is_seeded(self):
        g = special_labeled().graph
        a = find_labeling(g, mode="heuristic", seed=7)
        b = find_labeling(g, mode="heuristic", seed=7)
        assert (a.labeling is None) == (b.labeling is None)
        if a.labeling is not None:
            assert a.labeling.labels == b.labeling.labels

    # recorded labels per seed: they are dealt and swapped in sorted-edge order, which
    # the odd matrix graph (ends not sorted) tells apart from edge order; the last
    # three ask for exactly three colors, alone or with a color set
    @pytest.mark.parametrize("graph,colors,c,pinned", [
        pytest.param(lambda: from_matrix(build_matrix("odd", 1, 1)).graph, None, None, [
            (2, 11, 9, 10, 5, 6, 1, 12, 3, 13, 4, 7, 8, 14),
            (4, 11, 8, 1, 14, 13, 5, 7, 6, 2, 12, 3, 9, 10),
            (10, 4, 3, 7, 6, 13, 12, 11, 8, 2, 9, 1, 5, 14),
        ], id="odd-matrix"),
        pytest.param(c5, None, None, [(3, 2, 1, 5, 4), (3, 4, 5, 1, 2), (3, 2, 4, 5, 1)], id="C5"),
        pytest.param(lambda: special_labeled().graph, {14, 19, 22}, None, [
            (4, 2, 8, 7, 6, 1, 5, 10, 9, 3),
            (8, 10, 4, 9, 6, 7, 1, 5, 2, 3),
            (4, 10, 5, 7, 1, 6, 2, 8, 9, 3),
        ], id="special-colors"),
        pytest.param(lambda: special_labeled().graph, None, 3, [
            (7, 3, 6, 10, 9, 1, 5, 8, 2, 4),
            (6, 7, 4, 3, 5, 9, 1, 8, 10, 2),
            (6, 7, 4, 5, 10, 1, 2, 8, 3, 9),
        ], id="special-c3"),
        pytest.param(c5, None, 3, [(3, 2, 4, 1, 5), (1, 4, 5, 3, 2), (3, 4, 2, 5, 1)], id="C5-c3"),
        pytest.param(lambda: special_labeled().graph, {14, 19, 22}, 3, [
            (8, 4, 10, 9, 7, 6, 5, 1, 3, 2),
            (7, 6, 1, 4, 2, 8, 9, 3, 5, 10),
            (4, 10, 5, 7, 1, 6, 8, 2, 3, 9),
        ], id="special-colors-c3"),
    ])
    def test_heuristic_labelings_are_pinned(self, graph, colors, c, pinned):
        g = graph()
        got = [find_labeling(g, target_colors=colors, target_c=c, mode="heuristic", seed=s).labeling.values
               for s in range(3)]
        assert got == pinned


class TestFeasibleRange:
    """A labeling has between the lower bound and |V| colors; other counts take no search."""

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @pytest.mark.parametrize("c", [2, 7])  # special 2P2 v O2: bound 3, six vertices
    def test_count_outside_the_range_is_answered_at_once(self, monkeypatch, mode, c):
        import antimagic.oracle

        def refuse(*args):
            raise AssertionError("the heuristic ran on a color count no labeling has")

        monkeypatch.setattr(antimagic.oracle, "_heuristic", refuse)
        g = special_labeled().graph
        for res in (find_labeling(g, target_c=c, mode=mode),
                    find_labeling(g, target_colors=set(range(1, c + 1)), mode=mode)):
            assert res.labeling is None and res.nodes == 0


class TestCertifyNoTwoColoring:
    def test_c4(self):
        assert certify_no_2_coloring(c4())

    def test_star_decided_by_exhaustion(self):
        assert certify_no_2_coloring(star3())

    def test_single_edge_vacuous(self):
        assert certify_no_2_coloring(single_edge())

    def test_edgeless_graph_has_no_two_coloring(self):
        assert certify_no_2_coloring(null(3))

    def test_agrees_with_find(self):
        for g in (c4(), star3()):
            assert certify_no_2_coloring(g) == (find_labeling(g, target_c=2).labeling is None)


def path(n: int) -> Graph:
    return Graph.build([u(i) for i in range(1, n + 1)], [(u(i), u(i + 1)) for i in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    us, vs = [u(i) for i in range(1, a + 1)], [v(j) for j in range(1, b + 1)]
    return Graph.build(us + vs, [(p, q) for p in us for q in vs])


def random_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return Graph.build([u(i) for i in range(1, n + 1)],
                       [(u(a), u(b)) for a, b in rng.sample(pairs, rng.randint(1, min(7, len(pairs))))])


def plain_exhaustion(g: Graph) -> dict[int, dict]:
    """c -> the lex-first local antimagic labeling with c colors over
    ``_edge_order(g)``, from every permutation of the labels, unpruned."""
    order = [(g.names[a], g.names[b]) for a, b in _edge_order(g)]
    first: dict[int, dict] = {}
    for labels in itertools.permutations(range(1, len(order) + 1)):
        color = dict.fromkeys(g.names, 0)
        for (a, b), lab in zip(order, labels):
            color[a] += lab
            color[b] += lab
        if all(color[a] != color[b] for a, b in order):
            first.setdefault(len(set(color.values())), dict(zip(order, labels)))
    return first


def numbered(edges: list[tuple[int, int]]) -> Graph:
    """The graph on u_1..u_n with these edges, n the largest number in them."""
    n = max(max(e) for e in edges)
    return Graph.build([u(i) for i in range(1, n + 1)], [(u(a), u(b)) for a, b in edges])


def random_union(seed: int) -> Graph:
    """Copies of one small random graph, its vertices numbered in a random
    order so that the copies interleave in position order; at most 7 edges."""
    rng = random.Random(seed)
    n = rng.randint(3, 4)
    part = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(2, 3))
    copies = rng.randint(2, 7 // len(part))
    ids = rng.sample(range(1, n * copies + 1), n * copies)
    return Graph.build([u(i) for i in ids],
                       [(u(ids[c * n + a]), u(ids[c * n + b])) for c in range(copies) for a, b in part])


# one graph per pruning rule at least: two-color divisibility (P5, P7, K2,3, an
# isolated vertex, mixed side ratios), forced closing labels (all), open twins
# (K1,3, K2,3, P3 + C4), closed twins (2(P2 v O1)) and isomorphic components
# (2(P2 v O1), 3P2, 2P3, P3 + P3 + P2, 2K1,3, C3 + C3 + P2 and the random unions)
RULE_GRAPHS = {
    "P5": path(5),
    "P7": path(7),
    "K2,3": complete_bipartite(2, 3),
    "K1,3": complete_bipartite(1, 3),
    "2(P2vO1)": copies_of_p2_join_null(2, 1),
    "P3+C4": Graph.build([u(i) for i in range(1, 8)],
                         [(u(1), u(2)), (u(2), u(3)), (u(4), u(5)), (u(5), u(6)), (u(6), u(7)), (u(7), u(4))]),
    "P3+O1": Graph.build([u(1), u(2), u(3), u(4)], [(u(1), u(2)), (u(2), u(3))]),  # 1 and 3 divide 3: ratios alone
    "3P2": numbered([(1, 2), (3, 4), (5, 6)]),
    "2P3": numbered([(1, 2), (2, 3), (4, 5), (5, 6)]),
    "P3+P3+P2": numbered([(1, 2), (2, 3), (4, 5), (5, 6), (7, 8)]),
    "2K1,3": numbered([(1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (5, 8)]),
    "C3+C3+P2": numbered([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (7, 8)]),
    **{f"union-{seed}": random_union(seed) for seed in range(6)},
}


@pytest.mark.parametrize("g", list(RULE_GRAPHS.values()) + [random_graph(seed) for seed in range(40)],
                         ids=list(RULE_GRAPHS) + [f"random-{seed}" for seed in range(40)])
def test_pruned_search_agrees_with_plain_exhaustion(g):
    first = plain_exhaustion(g)
    assert exact_chi_la(g).value == (min(first) if first else None)
    if first:
        assert chi_la_lower_bound(g)[0] <= min(first)
    for c in (2, 3):
        found = find_labeling(g, target_c=c).labeling
        assert (None if found is None else found.labels) == first.get(c)


def connected_graph(seed: int) -> Graph:
    """A random connected graph with 2 to 9 edges: a random tree on u_1..u_n,
    then random further edges up to the drawn edge count."""
    rng = random.Random(seed)
    q = rng.randint(2, 9)
    n = rng.randint(next(n for n in itertools.count(3) if n * (n - 1) // 2 >= q), q + 1)
    edges = {(rng.randrange(1, i), i) for i in range(2, n + 1)}
    edges |= set(rng.sample(sorted(set(itertools.combinations(range(1, n + 1), 2)) - edges), q - len(edges)))
    return numbered(sorted(edges))


@pytest.mark.parametrize("seed", range(30), ids=[f"connected-{seed}" for seed in range(30)])
def test_every_connected_graph_but_k2_has_a_labeling(seed):
    """Haslegrave (2018) proves that every connected graph other than K_2
    has a local antimagic labeling, so the exact search must find one."""
    g = connected_graph(seed)
    assert len(components(g)) == 1 and 2 <= g.size <= 9
    assert exact_chi_la(g).value is not None


@pytest.mark.parametrize("name, reason", [
    ("P5", "two-color-divisibility"), ("P7", "two-color-divisibility"), ("K2,3", "two-color-divisibility"),
    ("P3+C4", "two-color-divisibility"), ("P3+O1", "two-color-divisibility"), ("K1,3", "adjacent-pair"),
])
def test_rule_graphs_get_their_bound(name, reason):
    assert chi_la_lower_bound(RULE_GRAPHS[name]) == ((3 if reason != "adjacent-pair" else 2), reason)


def cycle(n: int) -> Graph:
    return Graph.build([u(i) for i in range(1, n + 1)], [(u(i), u(i % n + 1)) for i in range(1, n + 1)])


def copies_join(a: int, m: int) -> Graph:
    """a disjoint copies of P2 v O_m."""
    vs, es = [], []
    for i in range(1, a + 1):
        xs = [x(i, j) for j in range(1, m + 1)]
        vs += [u(i), v(i)] + xs
        es += [(u(i), v(i))] + [(w, y) for w in (u(i), v(i)) for y in xs]
    return Graph.build(vs, es)


def matching_join(a: int, m: int) -> Graph:
    """aP2 v O_m: a disjoint edges joined to m isolated vertices."""
    side = [w for i in range(1, a + 1) for w in (u(i), v(i))]
    xs = [x(1, j) for j in range(1, m + 1)]
    return Graph.build(side + xs, [(u(i), v(i)) for i in range(1, a + 1)] + [(w, y) for w in side for y in xs])


# the oracle-corpus benchmark's fixed graphs, built as bench/run.py builds them, and its stored pool
CORPUS = {
    **{f"C{n}": cycle(n) for n in range(4, 9)},
    **{f"P{n}": path(n) for n in range(5, 8)},
    "K2,3": complete_bipartite(2, 3), "K2,4": complete_bipartite(2, 4),
    "K2,5": complete_bipartite(2, 5), "K3,3": complete_bipartite(3, 3),
    "2(P2vO1)": copies_join(2, 1), "3(P2vO1)": copies_join(3, 1), "2(P2vO2)": copies_join(2, 2),
    "2P2vO2": matching_join(2, 2),
}
EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())
POOL = {f"pool#{e['index']}": Graph.build([u(i) for i in range(1, e["order"] + 1)],
                                          [(u(a), u(b)) for a, b in e["edges"]])
        for e in EXPECTED["full"]["oracle-corpus"]["pool"]}


# chi_la on the corpus, and the nodes ``find_labeling`` expands asking for each
# color count from the lower bound up to chi_la: a change to the first-hit tree shows here
TREES = [
    ("C4", 3, 6), ("C5", 3, 25), ("C6", 3, 28), ("C7", 3, 157), ("C8", 3, 80),
    ("P5", 3, 17), ("P6", 3, 15), ("P7", 3, 110),
    ("K2,3", 3, 11), ("K2,4", 2, 237), ("K2,5", 3, 79), ("K3,3", 3, 543),
    ("2(P2vO1)", 4, 132), ("3(P2vO1)", 5, 3_054), ("2P2vO2", 3, 20_625), ("2(P2vO2)", 4, 27_633),
]
# the nodes ``exact_chi_la`` expands on the same graphs: a change to the minimising tree shows here
MINIMISING_NODES = {
    "C4": 4, "C5": 7, "C6": 10, "C7": 16, "C8": 26, "P5": 4, "P6": 5, "P7": 6,
    "K2,3": 51, "K2,4": 225, "K2,5": 74, "K3,3": 1_854,
    "2(P2vO1)": 111, "3(P2vO1)": 2_575, "2P2vO2": 3_157, "2(P2vO2)": 25_664,
}


def budget_loop(g: Graph) -> tuple[int | None, int]:
    """(the first color count of ``_budgets(g)`` that ``find_labeling`` meets or None,
    the nodes expanded up to it): chi_la by asking for each count upward."""
    nodes = 0
    for c in _budgets(g):
        res = find_labeling(g, target_c=c)
        nodes += res.nodes
        if res.labeling is not None:
            return c, nodes
    return None, nodes


@pytest.mark.parametrize("name, chi, nodes", TREES, ids=[name for name, _, _ in TREES])
def test_search_tree_is_pinned(name, chi, nodes):
    res = exact_chi_la(CORPUS[name])
    assert (res.value, res.nodes) == (chi, MINIMISING_NODES[name])
    assert budget_loop(CORPUS[name]) == (chi, nodes)


@pytest.mark.parametrize("g", [*POOL.values(), *RULE_GRAPHS.values()], ids=[*POOL, *RULE_GRAPHS])
def test_minimising_search_agrees_with_the_budget_loop(g):
    """Plain exhaustion stops at 7 edges; this checks the minimising search
    up to 10 (the corpus is checked by ``test_search_tree_is_pinned``)."""
    assert exact_chi_la(g).value == budget_loop(g)[0]


@pytest.mark.parametrize("a, m, nodes", [(2, 3, 13_624), (3, 2, 75_727), (2, 4, 162_587)],
                         ids=["2P2vO3", "3P2vO2", "2P2vO4"])
def test_paper_graphs_past_the_default_cap(a, m, nodes):
    """chi_la(aP2 v O_m) = 3; the triangle u1 v1 x certifies the bound."""
    g = matching_join(a, m)
    res = exact_chi_la(g, cap=g.size)
    assert chi_la_lower_bound(g) == (3, "chromatic")
    assert (res.value, res.nodes) == (3, nodes)


@pytest.mark.parametrize("name, chi", [(name, chi) for name, chi, _ in TREES])
def test_runs_leave_the_tables_as_built(name, chi):
    """Runs may share one ``_Search``: every run must undo what it placed,
    found or not, first-hit or minimising."""
    g = CORPUS[name]
    search, fresh = _Search(g), _Search(g)

    def as_built():
        return (search.sums, search.free, search.color_count) == (fresh.sums, fresh.free, fresh.color_count)

    hit, _ = search.run(None, chi)
    assert hit is not None and as_built()
    colors = frozenset(EdgeLabeling(g, hit).coloring.color_set)
    assert search.run(colors, chi)[0] == hit and as_built()  # the first labeling with chi colors has these
    # a miss that still expands nodes: only an isolated vertex takes color 0, and the corpus has none
    missed, nodes = search.run(colors | {0}, None)
    assert missed is None and nodes > 0 and as_built()
    budgets = _budgets(g)
    least, _ = search.run(None, budgets[-1], least=budgets[0])
    assert EdgeLabeling(g, least).coloring.c == chi and as_built()


@pytest.fixture
def walked(monkeypatch) -> list[Graph]:
    """The graphs ``Graph._walk`` walks, one entry per walk: a graph whose
    walk is cached already is not listed again."""
    graphs: list[Graph] = []
    walk = Graph.__dict__["_walk"].func

    def counted(g: Graph):
        graphs.append(g)
        return walk(g)

    prop = cached_property(counted)
    prop.__set_name__(Graph, "_walk")
    monkeypatch.setattr(Graph, "_walk", prop)
    return graphs


@pytest.mark.parametrize("name", list(CORPUS))
def test_an_exact_query_walks_its_graph_once(walked, name):
    """The lower bound, its equal-bipartition test and the symmetries all
    read one walk of the queried graph."""
    queries = [exact_chi_la, find_labeling, lambda g: find_labeling(g, target_c=3),
               lambda g: find_labeling(g, target_c=1)]
    for query in queries:
        g = Graph(CORPUS[name].names, CORPUS[name].ends)  # not walked yet
        query(g)
        assert len(walked) == 1 and walked.pop() is g


def test_exact_find_is_pinned():
    res = find_labeling(CORPUS["2P2vO2"], target_colors={14, 19, 22})
    assert (res.labeling.values, res.nodes) == ((7, 1, 6, 4, 2, 8, 9, 3, 10, 5), 259)


UNIONS = {f"union-{seed}": random_union(seed) for seed in range(6, 30)}  # union-0..5 are rule graphs


@pytest.mark.parametrize("g", [*CORPUS.values(), *POOL.values(), *RULE_GRAPHS.values(), *UNIONS.values()],
                         ids=[*CORPUS, *POOL, *RULE_GRAPHS, *UNIONS])
def test_edge_order_walks_one_component_at_a_time(g):
    """The order holds each edge once, each component's edges in one run of
    positions, and every edge of a run after its first touches a vertex an
    earlier edge reached: each vertex but a component's seed is ranked after
    a neighbour, as a breadth-first walk ranks them."""
    order = _edge_order(g)
    assert sorted(order) == sorted(g.ends)
    component = {w: i for i, comp in enumerate(components(g)) for w in comp}
    runs = [component[a] for a, _ in order]
    firsts = [pos for pos in range(len(runs)) if pos == 0 or runs[pos - 1] != runs[pos]]
    assert len({runs[pos] for pos in firsts}) == len(firsts)
    reached: set[int] = set()
    for pos, (a, b) in enumerate(order):
        assert pos in firsts or a in reached or b in reached
        reached |= {a, b}


@pytest.mark.parametrize("g", list(CORPUS.values()) + list(POOL.values()), ids=list(CORPUS) + list(POOL))
def test_closing_vertices_carry_the_neighbours_that_finish_first(g):
    order = _edge_order(g)
    finishing = []  # (position, vertex) in the order the search finishes them: an edge's ends in order
    for pos, (a, b) in enumerate(order):
        finishing += [(pos, w) for w in (a, b) if not any(w in e for e in order[pos + 1:])]
    rank = {w: r for r, (_, w) in enumerate(finishing)}
    want: list[list] = [[] for _ in order]
    for pos, w in finishing:
        nbs = {a + b - w for a, b in order if w in (a, b)}
        want[pos].append((w, sorted(nb for nb in nbs if rank[nb] < rank[w])))
    assert [[(w, sorted(earlier)) for w, earlier in closes] for closes in _Search(g).closes] == want


@pytest.mark.parametrize("g", [*CORPUS.values(), *POOL.values(), *RULE_GRAPHS.values()],
                         ids=[*CORPUS, *POOL, *RULE_GRAPHS])
def test_symmetry_constraints_come_from_automorphisms(g):
    """Every symmetry is an automorphism, and ``less`` holds exactly one
    lex-leader constraint per symmetry that moves an edge: the first
    moved position below the position of its image, listed once."""
    order = _edge_order(g)

    def image(sigma, e):
        a, b = sigma.get(e[0], e[0]), sigma.get(e[1], e[1])
        return (a, b) if a < b else (b, a)

    want: list[set[int]] = [set() for _ in order]
    for sigma in _symmetries(g):
        assert sorted(sigma.values()) == sorted(sigma) and all(sigma[w] != w for w in sigma)
        assert {image(sigma, e) for e in g.ends} == set(g.ends)
        moved = [pos for pos, e in enumerate(order) if image(sigma, e) != e]
        if moved:
            want[order.index(image(sigma, order[moved[0]]))].add(moved[0])
    less = _Search(g).less
    for later, earlier in enumerate(less):
        assert len(set(earlier)) == len(earlier) and all(pos < later for pos in earlier)
    assert [set(earlier) for earlier in less] == want


def test_isomorphic_components_are_swapped():
    def swap_sizes(g):
        return sorted(len(sigma) for sigma in _symmetries(g) if len(sigma) > 2)

    assert swap_sizes(CORPUS["3(P2vO1)"]) == [6, 6]  # consecutive pairs of the three triangles
    assert swap_sizes(CORPUS["2(P2vO2)"]) == [8]
    assert swap_sizes(RULE_GRAPHS["C3+C3+P2"]) == [6]  # the edge is alone in its group
    assert swap_sizes(RULE_GRAPHS["P3+C4"]) == swap_sizes(CORPUS["2P2vO2"]) == []
    # two trees with degrees 3, 2, 2, 1, 1, 1: legs 1, 1, 3 and legs 1, 2, 2 around the centre
    g = numbered([(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (7, 8), (7, 9), (9, 10), (7, 11), (11, 12)])
    comps = [[g.index[u(i)] for i in range(1, 7)], [g.index[u(i)] for i in range(7, 13)]]
    assert _isomorphism(g.neighbors, *comps) is None and swap_sizes(g) == []
    assert _isomorphism(g.neighbors, comps[0], comps[0]) is not None
    # C6 with a long chord and C6 with a short one: same degrees, a triangle only in the second
    ring = [(i, i % 6 + 1) for i in range(1, 7)]
    g = numbered(ring + [(1, 4)] + [(a + 6, b + 6) for a, b in ring + [(1, 3)]])
    comps = [[g.index[u(i)] for i in range(1, 7)], [g.index[u(i)] for i in range(7, 13)]]
    assert _isomorphism(g.neighbors, *comps) is None and swap_sizes(g) == []
    assert _isomorphism(g.neighbors, comps[1], comps[1]) is not None


def test_leaf_check_rejects_the_color_of_an_isolated_vertex():
    """The closing-label filter keeps every finishing color in the target,
    but an isolated vertex's color 0 never finishes: only the leaf's
    set comparison turns it away."""
    p3_o1 = RULE_GRAPHS["P3+O1"]
    assert find_labeling(p3_o1, target_colors={1, 2, 3}).labeling is None
    assert find_labeling(p3_o1, target_colors={0, 1, 2, 3}).labeling.coloring.color_set == {0, 1, 2, 3}
    # K2,4 has a 2-coloring with colors {9, 18}: plus an isolated vertex it makes {0, 9, 18}, not {1, 9, 18}
    us, vs = [u(1), u(2)], [v(j) for j in range(1, 5)]
    k24_o1 = Graph.build(us + vs + [u(3)], [(a, b) for a in us for b in vs])
    assert find_labeling(complete_bipartite(2, 4), target_c=2).labeling.coloring.color_set == {9, 18}
    assert find_labeling(k24_o1, target_colors={1, 9, 18}).labeling is None
    assert find_labeling(k24_o1, target_colors={0, 9, 18}).labeling.coloring.color_set == {0, 9, 18}

"""H rows written from per-group verdicts against rows of a direct build.

The sweep reads each group's verdicts once and writes every H1/H2 row from
them.  The direct row builds the whole composition with
``group_components`` and checks it with ``_colors_ok``, then, for an
all-even H2 row, with ``is_bipartite_equal_parts``.
"""

import itertools
import random

import pytest

from antimagic.graph import component_of, components, is_bipartite_equal_parts, merged, u, v, x
from antimagic.labeling import EdgeLabeling
from antimagic.schemes import EVEN, ODD, build_matrix
import antimagic.sweep as sweep_module
from antimagic.sweep import _colors_ok, _GroupTable, _sweep_cell, compositions_min2, group_keys
from antimagic.transforms import (
    LabeledGraph,
    block_merge,
    expected_colors_j,
    from_matrix,
    group_components,
    split_x,
)


def direct_row(lg, ks, expected, check_bipartite):
    h = group_components(lg, ks)
    ok, detail = _colors_ok(h, expected)
    if ok and check_bipartite and not is_bipartite_equal_parts(h.graph):
        ok, detail = False, "even groups should be bipartite with equal parts"
    return tuple(sorted(h.colors)), ok, detail


def pairs_graph(parity, n, k):
    return block_merge(from_matrix(build_matrix(parity, n, k)), k, 1)


@pytest.mark.parametrize("parity,n,k", [(p, n, k) for p in (EVEN, ODD) for n in (1, 2) for k in range(2, 13)])
def test_derived_rows_equal_direct_rows(parity, n, k):
    pairs = pairs_graph(parity, n, k)
    split = split_x(pairs)
    expected = [expected_colors_j(parity, n, k, 2, split=s) for s in (False, True)]
    want = []
    for ks in compositions_min2(k):
        params = f"n={n} k={k} ks={'+'.join(map(str, ks))}"
        want.append(("H1", params, *direct_row(pairs, ks, expected[0], False)))
        want.append(("H2", params, *direct_row(split, ks, expected[1], all(ka % 2 == 0 for ka in ks))))
    got = [(r.family, r.params, r.colors, r.ok, r.detail) for r in _sweep_cell(parity, n, k, frozenset({"H"}))]
    assert got == want
    assert all(row[3] for row in got)


def test_planted_fault_fails_as_the_direct_path_does():
    """Every swap of two labels inside component 3 of k(2P_2 ∨ O_m) keeps
    the labeling a bijection and breaks the group holding component 3.
    Every composition holds that component, so every row fails, and each
    with the detail the direct path gives."""
    n, k, faulted = 1, 6, 3
    varied = False
    for parity in (EVEN, ODD):
        pairs = pairs_graph(parity, n, k)
        g = pairs.graph
        comps = components(g)
        assert [g.names[c[0]] for c in comps] == [u(i) for i in range(1, k + 1)]
        held = set(comps[faulted - 1])
        inside = [t for t, (a, b) in enumerate(g.ends) if a in held]
        assert len(inside) == 2 + 4 * pairs.m  # u_c v_c, u_c' v_c' and four edges at each x bundle
        expected = expected_colors_j(parity, n, k, 2, split=False)
        for t1, t2 in itertools.combinations(inside, 2):
            values = list(pairs.labeling.values)
            values[t1], values[t2] = values[t2], values[t1]
            bad = LabeledGraph(EdgeLabeling(g, tuple(values)), pairs.provenance)
            table = _GroupTable(bad, expected)
            details = set()
            for ks in compositions_min2(k):
                row = table.row(group_keys(ks), False)
                assert row == direct_row(bad, ks, expected, False), (parity, t1, t2, ks)
                assert not row[1]
                details.add(row[2])
            varied |= len(details) > 1
    assert varied  # for some swaps the smallest violating edge moves with the grouping


@pytest.mark.parametrize("parity,k", [(p, k) for p in (EVEN, ODD) for k in range(4, 11)])
def test_bipartite_verdicts_follow_their_groups(parity, k):
    """With the bipartite check asked on every row, the split graph's odd
    groups fail it while its even groups pass, and the pairs graph's groups
    (each holding triangles) fail it: each verdict must land on its own
    group, whatever the composition it was read from and in whatever order
    the rows come.  Each row is asked first without the check, so the check
    also runs on groups whose colors are known already."""
    n = 1
    pairs = pairs_graph(parity, n, k)
    order = list(compositions_min2(k))
    for lg, split in ((pairs, False), (split_x(pairs), True)):
        expected = expected_colors_j(parity, n, k, 2, split=split)
        for rows in (order, order[::-1], random.Random(k).sample(order, len(order))):
            table = _GroupTable(lg, expected)
            for ks in rows:
                for check in (False, True):
                    assert table.row(group_keys(ks), check) == direct_row(lg, ks, expected, check), (split, ks, check)


def test_two_faulted_groups_report_the_smallest_violating_edge():
    """Two faults, in components 2 and 4, each making an equal-color edge:
    where they fall in different groups, the row names the smaller edge,
    the one at u4 in the second group, not the first group's."""
    n, k = 1, 6
    pairs = pairs_graph(EVEN, n, k)
    g = pairs.graph
    at = g.edge_index
    values = list(pairs.labeling.values)
    bx = lambda i, j: merged([x(i, j), x(2 * k + 1 - i, j)])  # noqa: E731 - the x bundle of columns i and 2k+1-i
    for e1, e2 in (((v(2), bx(2, 2)), (v(11), bx(2, 2))), ((u(4), v(4)), (v(4), bx(4, 2)))):
        t1, t2 = at[e1], at[e2]
        values[t1], values[t2] = values[t2], values[t1]
    bad = LabeledGraph(EdgeLabeling(g, tuple(values)), pairs.provenance)
    expected = expected_colors_j(EVEN, n, k, 2, split=False)
    table = _GroupTable(bad, expected)
    details = {}
    for ks in compositions_min2(k):
        row = table.row(group_keys(ks), False)
        assert row == direct_row(bad, ks, expected, False), ks
        details[ks] = row[2]
    assert details[(2, 2, 2)] == "equal colors across u4-m(v4|v10)"
    assert len(set(details.values())) > 1


def test_serial_grid_builds_and_reads_as_planned(monkeypatch):
    """A serial ``sweep(2, 12)`` makes 892 ``group_components`` builds and
    checks 124 of them with ``bipartition``: a change to the build plan, or
    a build read twice, shows here."""
    calls = {"group_components": 0, "bipartition": 0}
    for name in calls:
        def counted(*args, real=getattr(sweep_module, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(sweep_module, name, counted)
    assert all(row.ok for row in sweep_module.sweep(2, 12))
    assert calls == {"group_components": 892, "bipartition": 124}


@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_component_c_of_each_h_input_starts_at_u_c(parity):
    """In k(2P_2 ∨ O_m) and its split, ``components(g)[c - 1]`` is component
    c: it starts at u_c, at position c - 1, and holds exactly the vertices
    of columns c and 2k+1-c (a merged id by its parts).  The H tables
    number components by this order, through ``component_of``."""
    k = 6
    pairs = pairs_graph(parity, 1, k)
    for lg in (pairs, split_x(pairs)):
        g = lg.graph
        comps = components(g)
        assert len(comps) == k
        for c, comp in enumerate(comps, 1):
            assert comp[0] == c - 1 and g.names[c - 1] == u(c)
            assert {p.i for i in comp for p in (g.names[i].parts or (g.names[i],))} == {c, 2 * k + 1 - c}
        assert component_of(g) == [next(c for c, comp in enumerate(comps) if i in comp) for i in range(g.order)]

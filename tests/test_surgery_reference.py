"""Every transform against a plain reference written on dicts and sets of ids.

The reference rebuilds each output from its input's id-keyed labels: the
vertex set, the edge -> label dict, colors summed from scratch and the
equal-color edges.  It shares no code with the index kernel in ``graph``
and ``labeling``, not even ``merged``: its bundle ids come from its own
``bundle``.  So it checks the kernel's ids, its remapping, its loop and
parallel-edge guards and its color sums.
"""

import random

import pytest

import antimagic.transforms as transforms_module
from antimagic.errors import AntimagicError, BijectionError, LoopError, ParallelEdgeError
from antimagic.graph import MERGED_ROLE, Graph, VertexId, merge_positions, merge_vertices_mapped, merged, u, v, x
from antimagic.labeling import induce, is_local_antimagic
from antimagic.schemes import EVEN, ODD, block_columns, build_matrix
from antimagic.sweep import compositions_min2, sweep
from antimagic.transforms import (
    block_merge,
    chunk_blocks,
    delete_add,
    from_matrix,
    group_components,
    merge_all_x,
    merge_v_blocks,
    random_swap_spec,
    split_x,
)


def bundle(parts):
    """The reference's merged id: flatten nested bundles, sort, reject
    repeats, collapse a single part, else the id (3, *parts)."""
    flat = [q for p in parts for q in (p.parts if p.role == MERGED_ROLE else (p,))]
    if len(set(flat)) != len(flat):
        raise AntimagicError("merged parts must be pairwise distinct")
    flat.sort()
    return flat[0] if len(flat) == 1 else VertexId(MERGED_ROLE, parts=tuple(flat))


def reference(labels, move):
    """edge -> label after moving each edge (a, b) to move(a, b), guarded as every surgery is."""
    out = {}
    for (a, b), lab in labels.items():
        a, b = move(a, b)
        if a == b:
            raise LoopError(f"loop at {a}")
        e = (a, b) if a < b else (b, a)
        if e in out:
            raise ParallelEdgeError(f"surgery maps two edges onto {e[0]}-{e[1]} (parallel edge)")
        out[e] = lab
    return out


def merge_reference(graph, labels, groups):
    to = {w: bundle(group) for group in groups for w in group}
    return {to.get(w, w) for w in graph.names}, reference(labels, lambda a, b: (to.get(a, a), to.get(b, b)))


def split_reference(block):
    """u_i moves to the half of its x bundle holding column i, v_i to the half holding 2k+1-i."""
    k = block.k

    def half(x_bundle, col):
        return bundle([p for p in x_bundle.parts if (p.i <= k) == (col <= k)])

    def move(a, b):  # ids sort u < v < merged, so an x bundle is always b
        if "x" not in b.roles:
            return a, b
        return a, half(b, a.i if a.role == "u" else 2 * k + 1 - a.i)

    bundles = [w for w in block.graph.names if "x" in w.roles]
    vertices = (set(block.graph.names) - set(bundles)) | {half(w, c) for w in bundles for c in (1, 2 * k)}
    return vertices, reference(block.labeling.labels, move)


def check(lg, vertices, labels):
    assert set(lg.graph.names) == vertices
    assert set(lg.graph.edge_index) == set(labels)
    assert lg.labeling.labels == labels
    colors = dict.fromkeys(vertices, 0)
    for (a, b), lab in labels.items():
        colors[a] += lab
        colors[b] += lab
    assert lg.coloring.colors == colors
    bad = sorted(e for e in labels if colors[e[0]] == colors[e[1]])
    assert is_local_antimagic(lg.labeling) == (not bad, bad)


def check_merge(out, lg, groups):
    check(out, *merge_reference(lg.graph, lg.labeling.labels, groups))


# plus two cells of the wide grid's shape (m = 24 and 25), where split_x cuts 24 or 25 bundles per block
CELLS = [(p, n, k) for p in (EVEN, ODD) for n in (1, 2, 3) for k in range(1, 7) if (p, n, k) != (EVEN, 1, 1)]
CELLS += [(EVEN, 12, 4), (ODD, 12, 4)]


@pytest.mark.parametrize("parity,n,k", CELLS)
def test_every_transform_matches_the_reference(parity, n, k):
    base = from_matrix(build_matrix(parity, n, k))
    m = base.m
    check_merge(merge_all_x(base), base, [[x(i, j) for i in range(1, 2 * k + 1)] for j in range(1, m + 1)])
    rng = random.Random(f"{parity}{n}{k}")
    for r in [r for r in range(2, k + 1) if k % r == 0]:
        s = k // r
        block = block_merge(base, r, s)
        cols = [sum(block_columns(k, s, b), []) for b in range(1, r + 1)]
        check_merge(block, base, [[x(i, j) for i in c] for c in cols for j in range(1, m + 1)])
        check(split_x(block), *split_reference(block))
        lg = block
        for _ in range(3):
            spec = random_swap_spec(lg, rng)
            labels = {e: lab for e, lab in lg.labeling.labels.items() if e not in spec.delete}
            out = delete_add(lg, spec)
            check(out, set(lg.graph.names), labels | dict(spec.add))
            assert out.coloring.colors == lg.coloring.colors
            lg = out
    if k < 2:
        return
    pairs = block_merge(base, k, 1)
    for lg in (pairs, split_x(pairs)):
        for s in [s for s in range(2, k + 1) if (2 * k) % s == 0]:
            blocks = chunk_blocks(pairs, s)
            check_merge(merge_v_blocks(lg, blocks), lg, blocks)
        for ks in compositions_min2(k):
            out = group_components(lg, ks)
            # the chain pairs are group_components' own choice; the reference checks the surgery on them
            chain = [w.parts for w in out.graph.names if w.roles == {lg.side}]
            check_merge(out, lg, chain)


P3 = Graph.build([u(1), v(1), u(2)], [(u(1), v(1)), (v(1), u(2))])


@pytest.mark.parametrize("groups,error", [
    pytest.param([[u(1), v(1)]], LoopError, id="adjacent-members"),
    pytest.param([[u(1), u(2)]], ParallelEdgeError, id="shared-neighbor"),
    pytest.param([[u(1), u(1)]], AntimagicError, id="repeated-member"),
])
def test_planted_bad_groups_raise_as_the_reference_does(groups, error):
    with pytest.raises(error) as want:
        merge_reference(P3, dict.fromkeys(P3.edge_index, 0), groups)
    with pytest.raises(error) as got:
        merge_vertices_mapped(P3, groups)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("groups,message", [
    pytest.param([[u(1), x(1, 1)]], "merge group member not in graph: x1.1", id="missing-member"),
    pytest.param([[u(1), u(2)], [u(2)]], "merge groups must be pairwise disjoint", id="overlapping-groups"),
])
def test_planted_bad_groups_are_rejected(groups, message):
    with pytest.raises(AntimagicError) as got:
        merge_vertices_mapped(P3, groups)
    assert str(got.value) == message


PAIRS = block_merge(from_matrix(build_matrix(EVEN, 1, 2)), 2, 1)  # k(2P_2 ∨ O_2) at k = 2, its x vertices in bundles


@pytest.mark.parametrize("groups,error,message", [
    pytest.param([[u(1), x(9, 9)]], AntimagicError, "merge group member not in graph: x9.9", id="missing-member"),
    pytest.param([[v(1), v(2)], [v(2), v(3)]], AntimagicError, "merge groups must be pairwise disjoint",
                 id="overlapping-groups"),
    pytest.param([[v(1), v(1)]], AntimagicError, "merged parts must be pairwise distinct", id="member-twice"),
    pytest.param([[u(1), v(1)]], LoopError, "loop at m(u1|v1)", id="loop"),
    pytest.param([[v(1), v(4)]], ParallelEdgeError,
                 "surgery maps two edges onto m(v1|v4)-m(x1.1|x4.1) (parallel edge)", id="parallel-edge"),
])
def test_every_guard_raises_from_the_merge_call(groups, error, message):
    """The merge mints no id until ``names`` is read, but it guards at
    once: each bad group raises from the call itself, with the message the
    minted ids would give."""
    with pytest.raises(error) as got:
        merge_vertices_mapped(PAIRS.graph, groups)
    assert str(got.value) == message
    good = merge_vertices_mapped(PAIRS.graph, [[v(1), v(2)]])
    assert "names" not in vars(good)  # the same merge, made valid, has minted nothing


# a document graph whose merged ids share the part u1: ordered by smallest part alone they would tie
TIED = Graph.build(
    [u(1), merged([u(1), v(1)]), merged([u(1), v(2)]), x(1, 1), x(1, 2), x(1, 3)],
    [(u(1), x(1, 1)), (merged([u(1), v(1)]), x(1, 2)), (merged([u(1), v(2)]), x(1, 3))],
)


@pytest.mark.parametrize("groups", [
    [[x(1, 2), x(1, 3)]],
    [[x(1, 1), merged([u(1), v(2)])]],
    [[x(1, 1), x(1, 2)], [merged([u(1), v(2)])]],
])
def test_a_merge_of_ids_sharing_a_part_raises(groups):
    """Merged ids order by their smallest part only when no two ids share
    a part, so the merge refuses such a graph, whatever the groups."""
    with pytest.raises(AntimagicError, match="pairwise distinct across the graph: u1 is in several ids"):
        merge_vertices_mapped(TIED, groups)


def test_a_member_sharing_a_part_with_another_raises():
    with pytest.raises(AntimagicError, match="merged parts must be pairwise distinct"):
        merge_vertices_mapped(TIED, [[u(1), merged([u(1), v(1)])]])


def eager_build(lg, vertices, labels):
    """The reference's output built eagerly from ``lg``: the ids sorted,
    edge t the image of edge t (found by its label), and the id -> position
    map."""
    names = tuple(sorted(vertices))
    at = {w: i for i, w in enumerate(names)}
    by_label = {lab: e for e, lab in labels.items()}
    return names, tuple((at[a], at[b]) for a, b in map(by_label.get, lg.labeling.values)), at


def test_every_sweep_merge_matches_an_eager_build(monkeypatch):
    """Every merge ``sweep(4, 8)`` makes (merge-all, block, split, J1, J2 and
    the H groups) is named lazily; once read, its names, ends and index are
    the eager build's.  A merge of ``lg``'s own graph carries its coloring,
    and it equals ``induce``'s.  A split is a merge of the crossed matrix
    graph, so it is checked against ``split_reference`` instead."""
    made = []
    groups_of = {}  # id of a merged graph -> the groups of ids it was merged by
    real = transforms_module._merge_with_labels

    def recording(lg, g2, step):
        out = real(lg, g2, step)
        made.append((lg, step[0], out, "names" in vars(out.graph), "coloring" in vars(out.labeling)))
        return out

    def grouping(merge, to_ids):
        def wrapped(g, groups):
            out = merge(g, groups)
            groups_of[id(out)] = [to_ids(g, group) for group in groups]
            return out
        return wrapped

    monkeypatch.setattr(transforms_module, "_merge_with_labels", recording)
    monkeypatch.setattr(transforms_module, "merge_positions",
                        grouping(merge_positions, lambda g, group: [g.names[p] for p in group]))
    monkeypatch.setattr(transforms_module, "merge_vertices_mapped",
                        grouping(merge_vertices_mapped, lambda g, group: list(group)))
    assert all(row.ok for row in sweep(4, 8))
    assert {m[1] for m in made} == {"merge_all_x", "block_merge", "split_x", "merge_v_blocks", "group_components"}
    for lg, tag, out, named, carried in made:
        assert not named
        if tag == "split_x":
            vertices, labels = split_reference(lg)
            assert out.graph.merged_from[0] is not lg.graph and not carried
            check(out, vertices, labels)
        else:
            vertices, labels = merge_reference(lg.graph, lg.labeling.labels, groups_of[id(out.graph)])
            assert out.graph.merged_from[0] is lg.graph and carried
        names, ends, at = eager_build(lg, vertices, labels)
        assert out.graph.names == names and out.graph.ends == ends and out.graph.index == at
        assert out.coloring.sums == induce(out.labeling).sums


def test_relabel_onto_another_edge_count_raises():
    labeling = PAIRS.labeling
    g = labeling.graph
    for ends in (g.ends[:-1], g.ends + ((0, 5),)):
        with pytest.raises(BijectionError):
            labeling.relabel_edges(Graph(g.names, ends))

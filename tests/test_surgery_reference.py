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

import antimagic.sweep as sweep_module
import antimagic.transforms as transforms_module
from antimagic.errors import AntimagicError, BijectionError, LoopError, ParallelEdgeError
from antimagic.graph import MERGED_ROLE, Graph, VertexId, edge, merge_positions, merge_vertices_mapped, merged, u, v, x
from antimagic.labeling import EdgeLabeling, induce, is_local_antimagic
from antimagic.schemes import EVEN, ODD, block_columns, build_matrix
from antimagic.serialize import dot, graph_doc, labeling_doc
from antimagic.sweep import compositions_min2, sweep
from antimagic.transforms import (
    LabeledGraph,
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


@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_merges_read_no_ids(parity):
    """The H chain and the split merge by position alone: on a lazily
    named k(2P_2 ∨ O_m) neither mints an id, in its input or its outputs."""
    pairs = block_merge(from_matrix(build_matrix(parity, 1, 4)), 4, 1)
    outs = [group_components(pairs, (2, 2)), split_x(pairs)]
    assert not any("names" in vars(g) for g in [pairs.graph] + [out.graph for out in outs])


# a document graph whose merged ids share the part u1, as no surgery makes them
TIED = Graph.build(
    [u(1), merged([u(1), v(1)]), merged([u(1), v(2)]), x(1, 1), x(1, 2), x(1, 3)],
    [(u(1), x(1, 1)), (merged([u(1), v(1)]), x(1, 2)), (merged([u(1), v(2)]), x(1, 3))],
)


@pytest.mark.parametrize("groups", [
    [[x(1, 2), x(1, 3)]],
    [[x(1, 1), merged([u(1), v(2)])]],
    [[x(1, 1), x(1, 2)], [merged([u(1), v(2)])]],
])
def test_a_merge_of_ids_sharing_a_part_is_written_in_id_order(groups):
    """The merge reads no id, so a graph whose ids share a part merges as
    any other does; the documents list the ids sorted, as a build of the
    reference's vertices and edges does."""
    labels = {e: t for t, e in enumerate(TIED.edge_index, 1)}
    vertices, want = merge_reference(TIED, labels, groups)
    out = EdgeLabeling(merge_vertices_mapped(TIED, groups), tuple(labels.values()))
    assert set(out.graph.names) == vertices and out.labels == want
    doc = graph_doc(out.graph)
    assert [item["id"] for item in doc["vertices"]] == [w.token() for w in sorted(vertices)]
    assert doc == graph_doc(Graph.build(vertices, want))
    assert labeling_doc(out) == labeling_doc(EdgeLabeling.from_dict(Graph.build(vertices, want), want))


def test_a_member_sharing_a_part_with_another_raises():
    with pytest.raises(AntimagicError, match="merged parts must be pairwise distinct"):
        merge_vertices_mapped(TIED, [[u(1), merged([u(1), v(1)])]])


def eager_build(source, groups, vertices, labels, values):
    """The reference's output built eagerly from a merge of ``source`` by
    ``groups`` (of ids): each vertex at the smallest position in ``source``
    of its members (a class's are its group's, any other vertex is its
    own), edge t the one labeled ``values[t]``, and the id -> position map."""
    members = {bundle(group): group for group in groups}
    first = {w: min(source.index[p] for p in members.get(w, (w,))) for w in vertices}
    names = tuple(sorted(vertices, key=first.__getitem__))
    at = {w: i for i, w in enumerate(names)}
    by_label = {lab: e for e, lab in labels.items()}
    return names, tuple(tuple(sorted((at[a], at[b]))) for a, b in map(by_label.get, values)), at


@pytest.fixture(scope="module")
def sweep_merges():
    """Every merge ``sweep(4, 8)`` makes (merge-all, block, split, J1, J2
    and the H groups), as (input, tag, output, whether the output was
    named when made, whether it carried its coloring, the groups of ids
    it was merged by)."""
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

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transforms_module, "_merge_with_labels", recording)
        patch.setattr(transforms_module, "merge_positions",
                      grouping(merge_positions, lambda g, group: [g.names[p] for p in group]))
        patch.setattr(transforms_module, "merge_vertices_mapped",
                      grouping(merge_vertices_mapped, lambda g, group: list(group)))
        assert all(row.ok for row in sweep(4, 8))
    return [(*m, groups_of[id(m[2].graph)]) for m in made]


def test_every_sweep_merge_matches_an_eager_build(sweep_merges):
    """Each merge is named lazily; once read, its names, ends and index are
    the eager build's.  A merge of ``lg``'s own graph carries its coloring,
    and it equals ``induce``'s.  A split is a merge of the crossed matrix
    graph, so it is checked against ``split_reference`` instead."""
    assert {m[1] for m in sweep_merges} == {"merge_all_x", "block_merge", "split_x", "merge_v_blocks",
                                           "group_components"}
    for lg, tag, out, named, carried, groups in sweep_merges:
        assert not named
        source = out.graph.merged_from[0]
        if tag == "split_x":
            vertices, labels = split_reference(lg)
            assert source is not lg.graph and not carried
            check(out, vertices, labels)
        else:
            vertices, labels = merge_reference(lg.graph, lg.labeling.labels, groups)
            assert source is lg.graph and carried
        names, ends, at = eager_build(source, groups, vertices, labels, lg.labeling.values)
        assert out.graph.names == names and out.graph.ends == ends and out.graph.index == at
        assert out.coloring.sums == induce(out.labeling).sums


def test_every_sweep_merge_is_written_as_its_id_build(sweep_merges):
    """A merge leaves positions out of id order (a J class sits at its first
    member's slot), but no output shows it: the documents and the DOT of
    each merge are those of its ids, edges and labels built anew, and
    ``edge_index`` holds each edge in its ``edge()`` form."""
    out_of_order = 0
    for _, _, out, _, _, _ in sweep_merges:
        g = out.graph
        rebuilt = EdgeLabeling.from_dict(Graph.build(g.names, out.labeling.labels), out.labeling.labels)
        assert graph_doc(g) == graph_doc(rebuilt.graph)
        assert labeling_doc(out.labeling) == labeling_doc(rebuilt)
        assert dot(out.labeling) == dot(rebuilt)
        assert all(edge(*e) == e for e in g.edge_index)
        out_of_order += list(g.names) != sorted(g.names)
    assert out_of_order


def test_violations_of_an_out_of_order_merge_are_listed_in_id_order():
    """On odd J2 the u classes sit at the u slots, ahead of the v's and x's
    that sort before them.  Labels planted by swaps make two violating
    edges, m(u1|u2)-x1.1 (u class first by position) and v6-x7.1 (first by
    id); they are listed by id, and the sweep's detail names the smallest."""
    pairs = block_merge(from_matrix(build_matrix(ODD, 1, 6)), 6, 1)
    lg = merge_v_blocks(split_x(pairs), chunk_blocks(pairs, 2))
    g, at = lg.graph, lg.graph.edge_index
    big, first, second = merged([u(1), u(2)]), edge(merged([u(1), u(2)]), x(1, 1)), edge(v(6), x(7, 1))
    # m(u1|u2): 1 + .. + 7 + 8 = 36, x1.1: 8 + 28; v6: 9 + 10 + 11 + c, x7.1: 30 + c
    plant = dict(zip([e for e in at if big in e and e != first], range(1, 8))) | {first: 8, edge(v(12), x(1, 1)): 28}
    plant |= dict(zip([e for e in at if v(6) in e and e != second], (9, 10, 11)))
    plant[edge(merged([u(7), u(8)]), x(7, 1))] = 30
    values = list(lg.labeling.values)
    for e, lab in plant.items():  # one label swap each; a later swap never moves an earlier planted label
        t, s = at[e], values.index(lab)
        values[t], values[s] = values[s], values[t]
    planted = EdgeLabeling(g, tuple(values))
    ok, bad = is_local_antimagic(planted)
    assert not ok and {first, second} <= set(bad) and bad == sorted(bad)
    by_position = [e for e in (edge(g.names[a], g.names[b]) for a, b in sorted(g.ends)) if e in bad]
    assert by_position.index(first) < by_position.index(second)
    assert sweep_module._colors_ok(LabeledGraph(planted, lg.provenance), set()) == (
        False, f"equal colors across {bad[0][0]}-{bad[0][1]}")


def test_relabel_onto_another_edge_count_raises():
    labeling = PAIRS.labeling
    g = labeling.graph
    for ends in (g.ends[:-1], g.ends + ((0, 5),)):
        with pytest.raises(BijectionError):
            labeling.relabel_edges(Graph(g.names, ends))

"""Property tests for the labeled families: every value replays from its
provenance log and reads its parameters off it, the JSON documents
round-trip, merging the split halves back restores the block merge, and
delete-add swaps keep every vertex colour."""

import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from antimagic.graph import merge_vertices_mapped, merged
from antimagic.schemes import EVEN, ODD, build_matrix
from antimagic.serialize import (
    dumps,
    graph_doc,
    graph_from_doc,
    labeling_doc,
    labeling_from_doc,
)
from antimagic.sweep import compositions_min2
from antimagic.transforms import (
    block_merge,
    chunk_blocks,
    delete_add,
    from_matrix,
    group_components,
    merge_all_x,
    merge_v_blocks,
    random_swap_spec,
    replay,
    special_labeled,
    split_x,
)

# 30 examples a property keep the module under two seconds
SETTINGS = settings(max_examples=30, deadline=None)

cells = st.tuples(st.sampled_from([EVEN, ODD]), st.integers(1, 3), st.integers(1, 6))


@st.composite
def chains(draw):
    """(parity, n, k) and the values of one transform chain from its base."""
    parity, n, k = draw(cells)
    if (parity, n, k) == (EVEN, 1, 1):
        return (parity, n, k), [special_labeled()]
    base = from_matrix(build_matrix(parity, n, k))
    kinds = ["matrix", "merge-all"]
    if k >= 2:
        kinds += ["block", "split", "J1", "J2"]
    if k >= 4:
        kinds += ["H1", "H2"]
    kind = draw(st.sampled_from(kinds))
    chain = [base]
    if kind == "merge-all":
        chain.append(merge_all_x(base))
    elif kind in ("block", "split"):
        r = draw(st.sampled_from([r for r in range(2, k + 1) if k % r == 0]))
        chain.append(block_merge(base, r, k // r))
        if kind == "split":
            chain.append(split_x(chain[-1]))
        rng = random.Random(draw(st.integers(0, 2**16)))
        for _ in range(draw(st.integers(0, 2))):
            chain.append(delete_add(chain[-1], random_swap_spec(chain[-1], rng)))
    elif kind != "matrix":
        chain.append(block_merge(base, k, 1))
        if kind in ("J2", "H2"):
            chain.append(split_x(chain[-1]))
        if kind.startswith("J"):
            s = draw(st.sampled_from([s for s in range(2, k + 1) if (2 * k) % s == 0]))
            chain.append(merge_v_blocks(chain[-1], chunk_blocks(chain[-1], s)))
        else:
            ks = draw(st.sampled_from(list(compositions_min2(k))))
            chain.append(group_components(chain[-1], ks))
    return (parity, n, k), chain


@SETTINGS
@given(chains())
def test_every_value_replays_and_reads_its_parameters_off_the_log(case):
    (parity, n, k), chain = case
    for lg in chain:
        assert replay(lg.provenance) == lg
        assert (lg.parity, lg.n, lg.k) == (parity, n, k)
        assert lg.m == (2 * n if parity == EVEN else 2 * n + 1)


@SETTINGS
@given(chains())
def test_documents_round_trip(case):
    _, chain = case
    lg = chain[-1]
    assert graph_from_doc(json.loads(dumps(graph_doc(lg.graph)))) == lg.graph
    assert labeling_from_doc(json.loads(dumps(labeling_doc(lg.labeling)))) == lg.labeling
    doc = json.loads(dumps({"provenance": lg.provenance}))
    assert replay(doc["provenance"]) == lg


def block_and_split(cell, data):
    """A block merge over a drawn factorisation k = rs, and its split."""
    parity, n, k = cell
    r = data.draw(st.sampled_from([r for r in range(2, k + 1) if k % r == 0]))
    block = block_merge(from_matrix(build_matrix(parity, n, k)), r, k // r)
    return block, split_x(block)


multi_component = cells.filter(lambda cell: cell[2] >= 2)


@SETTINGS
@given(multi_component, st.data())
def test_merging_the_split_halves_back_restores_the_block_merge(cell, data):
    block, split = block_and_split(cell, data)
    halves = {}
    for w in set(split.graph.names) - set(block.graph.names):
        parts = set(w.parts or (w,))
        whole = next(xv for xv in block.graph.names if parts <= set(xv.parts))
        halves.setdefault(whole, []).append(w)
    assert all(len(pair) == 2 and merged(pair) == whole for whole, pair in halves.items())
    g = merge_vertices_mapped(split.graph, list(halves.values()))
    assert split.labeling.relabel_edges(g) == block.labeling


@SETTINGS
@given(multi_component, st.data())
def test_delete_add_conserves_every_vertex_color(cell, data):
    lg = data.draw(st.sampled_from(block_and_split(cell, data)))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    before = lg.coloring.colors
    for _ in range(3):
        lg = delete_add(lg, random_swap_spec(lg, rng))
        assert lg.coloring.colors == before

"""Property tests for the tuple-backed VertexId: order, equality and hash
agree with the canonical key the ids were defined by, and ids survive
pickling and their token form."""

import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from antimagic.errors import AntimagicError
from antimagic.graph import VertexId, edge, merged, parse_token, u, v, x

from test_surgery_reference import bundle

index = st.integers(min_value=1, max_value=40)
simple_ids = st.one_of(st.builds(u, index), st.builds(v, index), st.builds(x, index, index))
merged_ids = st.lists(simple_ids, min_size=2, max_size=4, unique=True).map(merged)
vertex_ids = st.one_of(simple_ids, merged_ids)


def canonical_key(w) -> tuple:
    """The key ids are ordered, compared and hashed by: (role rank, i, j)
    for u/v/x, and 3 followed by the parts' keys for a merged id."""
    if w.role == "m":
        return (3,) + tuple(canonical_key(p) for p in w.parts)
    return ({"u": 0, "v": 1, "x": 2}[w.role], w.i, w.j)


@given(vertex_ids, vertex_ids)
def test_order_equality_and_hash_follow_the_canonical_key(a, b):
    ka, kb = canonical_key(a), canonical_key(b)
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a == b) == (ka == kb)
    assert (a != b) == (ka != kb)
    assert hash(a) == hash(ka)


@given(vertex_ids)
def test_pickle_round_trip(w):
    back = pickle.loads(pickle.dumps(w))
    assert back == w and hash(back) == hash(w)
    assert (back.role, back.i, back.j, back.parts) == (w.role, w.i, w.j, w.parts)
    assert type(back) is type(w)


@given(vertex_ids)
def test_token_round_trip(w):
    assert parse_token(w.token()) == w


@given(st.text(alphabet="uvxm()|.01239+ _\u0663", max_size=14))
def test_a_token_parses_only_if_its_id_renders_back_to_it(tok):
    try:
        w = parse_token(tok)
    except AntimagicError:
        return
    assert w.token() == tok.strip()


@given(vertex_ids, vertex_ids, vertex_ids)
def test_no_id_equals_an_edge(a, b, c):
    if a != b:
        e = edge(a, b)
        assert c != e and e != c
        assert len({c, e}) == 2


@given(vertex_ids)
def test_roles_are_the_role_of_a_simple_id_or_of_each_part(w):
    if w.role == "m":
        assert w.roles == {p.role for p in w.parts}
    else:
        assert w.roles == {w.role}
    assert "m" not in w.roles


# few indices, so that random lists repeat ids and nested bundles overlap often
few = st.integers(min_value=1, max_value=3)
few_simple = st.one_of(st.builds(u, few), st.builds(v, few), st.builds(x, few, few))
few_ids = st.one_of(few_simple, st.lists(few_simple, min_size=2, max_size=4, unique=True).map(merged))


def outcome(build, parts):
    try:
        return build(parts)
    except AntimagicError as exc:
        return str(exc)


@given(st.lists(few_ids, min_size=1, max_size=5))
def test_merged_agrees_with_the_reference_bundle(parts):
    want, got = outcome(bundle, parts), outcome(merged, parts)
    assert got == want
    if isinstance(want, str):
        assert want == "merged parts must be pairwise distinct"
    else:
        assert type(got) is VertexId and got.parts == want.parts and got.token() == want.token()


def test_merged_of_no_parts_is_an_error():
    with pytest.raises(AntimagicError, match="at least two parts"):
        merged([])

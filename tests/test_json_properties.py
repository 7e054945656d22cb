"""Property tests for ``serialize.dumps``: on any JSON value it writes the
bytes ``json.dumps(value, indent=2, sort_keys=True) + "\\n"`` writes, also
when a list of records changes shape partway through."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from antimagic.serialize import dumps

# quotes, backslashes, control characters, non-ASCII and % (the template's own sign), among any other character
TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f%s é€😀') | st.characters(), max_size=8)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | TEXT
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner) | st.dictionaries(TEXT, inner), max_leaves=20)
# the shapes a template writes: str and int leaves in non-empty lists and dicts
SHAPES = st.recursive(TEXT | st.integers(), lambda inner: st.lists(inner, min_size=1, max_size=4)
                      | st.dictionaries(TEXT, inner, min_size=1, max_size=4), max_leaves=12)


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@st.composite
def like(draw, value):
    """A value of ``value``'s shape with fresh str and int leaves."""
    if type(value) is list:
        return [draw(like(item)) for item in value]
    if type(value) is dict:
        return {key: draw(like(item)) for key, item in value.items()}
    return draw(TEXT if type(value) is str else st.integers())


@st.composite
def records(draw):
    """Items of one shape, then, at times, one arbitrary value in their midst."""
    first = draw(SHAPES)
    items = [first] + [draw(like(first)) for _ in range(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        items.insert(draw(st.integers(1, len(items))), draw(VALUES))
    return items


@given(VALUES)
def test_any_value_is_written_as_the_stdlib_writes_it(value):
    assert dumps(value) == stdlib(value)


@given(records(), TEXT)
def test_records_are_written_as_the_stdlib_writes_them(items, key):
    assert dumps(items) == stdlib(items)
    assert dumps({key: items, "n": 1}) == stdlib({key: items, "n": 1})

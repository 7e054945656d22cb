"""Byte-stable JSON / CSV / DOT views of graphs, labelings and matrices."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any

from .errors import AntimagicError, BijectionError
from .graph import Graph, MERGED_ROLE, U_ROLE, V_ROLE, VertexId, edge, parse_token
from .labeling import EdgeLabeling
from .schemes import LabelMatrix

_SHAPES = {U_ROLE: "box", V_ROLE: "diamond", MERGED_ROLE: "octagon"}


def graph_doc(g: Graph) -> dict[str, Any]:
    """Vertices and edges in sorted-id order."""
    _, tokens, ends = g.id_order
    return _graph_doc(tokens, ends)


def _graph_doc(tokens: list[str], ends: list[tuple[int, int]]) -> dict[str, Any]:
    return {
        "vertices": [{"id": tok} for tok in tokens],
        "edges": [[tokens[a], tokens[b]] for a, b in sorted(ends)],
    }


def json_int(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or boolean raises."""
    if type(value) is not int:
        raise AntimagicError(f"{what} must be an integer, got {value!r}")
    return value


class _Tokens(dict):
    """One document read's vertex ids by exact spelling: ``parse_token`` runs
    once per distinct spelling, and the table lives only for that read."""

    def __missing__(self, tok: str) -> VertexId:
        w = self[tok] = parse_token(tok)
        return w

    def read(self, tok: Any) -> VertexId:
        # a non-string id (a list or dict is not even hashable) meets parse_token's own check
        return self[tok] if type(tok) is str else parse_token(tok)


def graph_from_doc(doc: dict[str, Any]) -> Graph:
    """The graph a document lists; a token that is not a vertex's own
    (``v01``, see ``parse_token``) or a vertex or edge listed twice (also
    as ``[b, a]`` beside ``[a, b]``) raises."""
    return _graph_from_doc(doc, _Tokens())


def _graph_from_doc(doc: dict[str, Any], tokens: _Tokens) -> Graph:
    read = tokens.read
    try:
        vs = [read(item["id"]) for item in doc["vertices"]]
        es = [(read(a), read(b)) for a, b in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise AntimagicError(f"malformed graph document: {exc}") from exc
    g = Graph.build(vs, es)
    if g.order != len(vs) or g.size != len(es):
        raise AntimagicError("graph document lists a vertex or an edge twice")
    return g


def labeling_doc(labeling: EdgeLabeling) -> dict[str, Any]:
    """The graph as ``graph_doc`` writes it, then the labels in label order."""
    _, tokens, ends = labeling.graph.id_order
    return {
        "graph": _graph_doc(tokens, ends),
        "labels": [{"edge": [tokens[a], tokens[b]], "label": lab}
                   for lab, (a, b) in sorted(zip(labeling.values, ends))],
    }


def labeling_from_doc(doc: dict[str, Any]) -> EdgeLabeling:
    """The labeling a document lists; an edge that does not name exactly
    two vertices raises. The graph and the labels share one token table."""
    tokens = _Tokens()
    g = _graph_from_doc(doc.get("graph", {}), tokens)
    read = tokens.read
    try:
        items = doc["labels"]
        labels = {
            edge(read(a), read(b)): json_int(lab, "label")
            for (a, b), lab in ((item["edge"], item["label"]) for item in items)
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise AntimagicError(f"malformed labeling document: {exc}") from exc
    if len(labels) != len(items):
        raise BijectionError("an edge is labeled twice")
    return EdgeLabeling.from_dict(g, labels)


def dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    for any value that call accepts, without its pure-Python indent path:
    see ``_json``."""
    return _json(doc, "\n") + "\n"


_TEXT = {str: encode_basestring_ascii, int: int.__repr__}  # a bool is no plain int: type(True) is bool


def _json(value: Any, nl: str) -> str:
    """``value`` as the stdlib writes it with ``indent=2, sort_keys=True``
    where ``nl``, a newline and spaces, starts its lines.  A list of items
    of one shape is written by one template (``_shape``); every value
    neither a str, a plain int, a non-empty list nor a non-empty dict with
    str keys is the stdlib's own text, its newlines indented by ``nl``
    (JSON text holds no raw newline, so only its line breaks change)."""
    kind, inner = type(value), nl + "  "
    if kind in _TEXT:
        return _TEXT[kind](value)
    if kind is list and value:
        shaped = _shape(value, inner)
        if shaped is None:
            texts = [_json(item, inner) for item in value]
        else:
            template, columns = shaped
            texts = columns[0] if template == "%s" else map(template.__mod__, zip(*columns))
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    if kind is dict and value and set(map(type, value)) == {str}:
        return "{" + inner + ("," + inner).join(
            f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)) + nl + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def _shape(items: list, nl: str) -> tuple[str, list[list[str]]] | None:
    """A ``%`` template and per slot a column of field texts that write each
    of ``items`` at ``nl``, or None unless every item has the first one's
    shape: its type, and that is a str, a plain int, or a non-empty list of
    one length or dict of the same str keys whose fields share a shape in
    turn.  Every item is checked before any is written."""
    first = items[0]
    kind = type(first)
    if set(map(type, items)) != {kind}:
        return None
    if kind in _TEXT:
        return "%s", [list(map(_TEXT[kind], items))]
    if kind is list:
        slots, labels = range(len(first)), [""] * len(first)
    elif kind is dict and set(map(type, first)) == {str}:
        slots = sorted(first)
        labels = [encode_basestring_ascii(key).replace("%", "%%") + ": " for key in slots]
    else:
        return None
    if not slots or set(map(len, items)) != {len(slots)}:
        return None
    inner, parts, columns = nl + "  ", [], []
    for slot, label in zip(slots, labels):
        try:  # equal key counts: a key of the first item missing from another means other keys
            shaped = _shape(list(map(itemgetter(slot), items)), inner)
        except KeyError:
            return None
        if shaped is None:
            return None
        parts.append(label + shaped[0])
        columns += shaped[1]
    opening, closing = "[]" if kind is list else "{}"
    return opening + inner + ("," + inner).join(parts) + nl + closing, columns


def matrix_csv(mx: LabelMatrix) -> str:
    """Rows in ``named_rows()`` order: ux1 .. uxm, uv, vx1 .. vxm."""
    lines = ["row," + ",".join(str(i) for i in range(1, mx.cols + 1))]
    for name, row in mx.named_rows():
        lines.append(name + "," + ",".join(str(val) for val in row))
    return "\n".join(lines) + "\n"


def matrix_doc(mx: LabelMatrix) -> dict[str, Any]:
    return {
        "n": mx.n,
        "k": mx.k,
        "parity": mx.parity,
        "rows": [{"row": name, "entries": list(row)} for name, row in mx.named_rows()],
    }


def dot(labeling: EdgeLabeling) -> str:
    """The labeled graph in DOT: role-shaped nodes, every edge with its
    label, both in sorted-id order."""
    ids, tokens, ends = labeling.graph.id_order
    lines = ["graph G {"]
    for w, tok in zip(ids, tokens):
        lines.append(f'  "{tok}" [shape={_SHAPES.get(w.role, "ellipse")}];')
    for (a, b), lab in sorted(zip(ends, labeling.values)):
        lines.append(f'  "{tokens[a]}" -- "{tokens[b]}" [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

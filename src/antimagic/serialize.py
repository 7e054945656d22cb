"""Byte-stable JSON / CSV / DOT views of graphs, labelings and matrices."""

from __future__ import annotations

import json
from typing import Any

from .errors import AntimagicError, BijectionError
from .graph import Graph, MERGED_ROLE, U_ROLE, V_ROLE, VertexId, edge, parse_token
from .labeling import EdgeLabeling
from .schemes import LabelMatrix

_SHAPES = {U_ROLE: "box", V_ROLE: "diamond", MERGED_ROLE: "octagon"}


def _in_id_order(g: Graph) -> tuple[list[VertexId], list[str], list[tuple[int, int]]]:
    """``g``'s ids sorted, their tokens, and per edge t its two ends as
    indices into those lists, the smaller first: the one id-order view a
    document is written from, for a merge leaves positions out of id order."""
    names = g.names
    order = sorted(range(g.order), key=names.__getitem__)
    rank = [0] * g.order
    for r, i in enumerate(order):
        rank[i] = r
    ends = [(ra, rb) if (ra := rank[a]) < (rb := rank[b]) else (rb, ra) for a, b in g.ends]
    ids = [names[i] for i in order]
    return ids, [w.token() for w in ids], ends


def graph_doc(g: Graph) -> dict[str, Any]:
    """Vertices and edges in sorted-id order."""
    _, tokens, ends = _in_id_order(g)
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
    _, tokens, ends = _in_id_order(labeling.graph)
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


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
    ids, tokens, ends = _in_id_order(labeling.graph)
    lines = ["graph G {"]
    for w, tok in zip(ids, tokens):
        lines.append(f'  "{tok}" [shape={_SHAPES.get(w.role, "ellipse")}];')
    for (a, b), lab in sorted(zip(ends, labeling.values)):
        lines.append(f'  "{tokens[a]}" -- "{tokens[b]}" [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Byte-stable JSON / CSV / DOT views of graphs, labelings and matrices."""

from __future__ import annotations

import json
from typing import Any

from .errors import AntimagicError, BijectionError
from .graph import Graph, MERGED_ROLE, U_ROLE, V_ROLE, VertexId, edge, parse_token
from .labeling import EdgeLabeling
from .schemes import LabelMatrix

_SHAPES = {U_ROLE: "box", V_ROLE: "diamond", MERGED_ROLE: "octagon"}


def graph_doc(g: Graph) -> dict[str, Any]:
    return {
        "vertices": [{"id": w.token()} for w in g.sorted_vertices()],
        "edges": [[a.token(), b.token()] for a, b in g.sorted_edges()],
    }


def json_int(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or boolean raises."""
    if type(value) is not int:
        raise AntimagicError(f"{what} must be an integer, got {value!r}")
    return value


def graph_from_doc(doc: dict[str, Any]) -> Graph:
    """The graph a document lists; a vertex or edge listed twice (also as
    ``v01`` beside ``v1``, or as ``[b, a]`` beside ``[a, b]``) raises."""
    try:
        vs = [parse_token(item["id"]) for item in doc["vertices"]]
        es = [(parse_token(a), parse_token(b)) for a, b in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise AntimagicError(f"malformed graph document: {exc}") from exc
    g = Graph.build(vs, es)
    if g.order != len(vs) or g.size != len(es):
        raise AntimagicError("graph document lists a vertex or an edge twice")
    return g


def labeling_doc(labeling: EdgeLabeling) -> dict[str, Any]:
    items = sorted(labeling.labels.items(), key=lambda kv: kv[1])
    return {
        "graph": graph_doc(labeling.graph),
        "labels": [{"edge": [a.token(), b.token()], "label": lab} for (a, b), lab in items],
    }


def labeling_from_doc(doc: dict[str, Any]) -> EdgeLabeling:
    """The labeling a document lists; an edge that does not name exactly
    two vertices raises."""
    g = graph_from_doc(doc.get("graph", {}))
    try:
        items = doc["labels"]
        labels = {
            edge(parse_token(a), parse_token(b)): json_int(lab, "label")
            for (a, b), lab in ((item["edge"], item["label"]) for item in items)
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise AntimagicError(f"malformed labeling document: {exc}") from exc
    if len(labels) != len(items):
        raise BijectionError("an edge is labeled twice")
    return EdgeLabeling(g, labels)


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def matrix_csv(mx: LabelMatrix) -> str:
    """Rows in canonical order: u-rows by ascending j, uv, v-rows."""
    lines = ["row," + ",".join(str(i) for i in range(1, mx.cols + 1))]
    for key in mx.rows:
        lines.append(mx.row_name(key) + "," + ",".join(str(val) for val in mx.row(key)))
    return "\n".join(lines) + "\n"


def matrix_doc(mx: LabelMatrix) -> dict[str, Any]:
    return {
        "n": mx.n,
        "k": mx.k,
        "parity": mx.parity,
        "rows": [{"row": mx.row_name(key), "entries": list(mx.row(key))} for key in mx.rows],
    }


def _shape(w: VertexId) -> str:
    return _SHAPES.get(w.role, "ellipse")


def dot(g: Graph, labeling: EdgeLabeling | None = None) -> str:
    lines = ["graph G {"]
    for w in g.sorted_vertices():
        lines.append(f'  "{w.token()}" [shape={_shape(w)}];')
    for a, b in g.sorted_edges():
        attr = ""
        if labeling is not None:
            attr = f' [label="{labeling.labels[(a, b)]}"]'
        lines.append(f'  "{a.token()}" -- "{b.token()}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def provenance_doc(provenance: tuple) -> list[Any]:
    return json.loads(json.dumps([list(step) for step in provenance]))


def provenance_from_doc(doc: list[Any]) -> tuple:
    def freeze(item):
        if isinstance(item, list):
            return tuple(freeze(sub) for sub in item)
        return item

    return tuple(freeze(step) for step in doc)

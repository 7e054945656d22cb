import json

import pytest

from antimagic import serialize
from antimagic.errors import AntimagicError
from antimagic.graph import Graph, merged, u, v, x
from antimagic.schemes import EVEN, build_matrix
from antimagic.serialize import (
    dot,
    dumps,
    graph_doc,
    graph_from_doc,
    labeling_doc,
    labeling_from_doc,
    matrix_csv,
)
from antimagic.transforms import block_merge, from_matrix, group_components, replay, special_labeled, split_x


class TestGraphDoc:
    def test_round_trip(self):
        g = special_labeled().graph
        assert graph_from_doc(graph_doc(g)) == g

    def test_round_trip_with_merged_ids(self):
        lg = block_merge(from_matrix(build_matrix(EVEN, 2, 2)), 2, 1)
        assert graph_from_doc(graph_doc(lg.graph)) == lg.graph

    def test_id_grammar(self):
        doc = graph_doc(split_x(block_merge(from_matrix(build_matrix(EVEN, 1, 2)), 2, 1)).graph)
        ids = {item["id"] for item in doc["vertices"]}
        assert "u1" in ids and "v4" in ids
        assert any(tok.startswith("x") and "." in tok for tok in ids)

    def test_document_without_vertices_raises(self):
        with pytest.raises(AntimagicError, match="malformed graph document"):
            graph_from_doc({"edges": []})

    def test_vertices_sorted(self):
        g = special_labeled().graph
        doc = graph_doc(g)
        ids = [item["id"] for item in doc["vertices"]]
        assert ids == ["u1", "u2", "v1", "v2", "x1.1", "x1.2"]


class TestLabelingDoc:
    def test_round_trip(self):
        labeling = special_labeled().labeling
        assert labeling_from_doc(labeling_doc(labeling)).labels == labeling.labels

    def test_sorted_by_label(self):
        labeling = special_labeled().labeling
        doc = labeling_doc(labeling)
        labs = [item["label"] for item in doc["labels"]]
        assert labs == sorted(labs) == list(range(1, 11))

    def test_byte_stable(self):
        lg = block_merge(from_matrix(build_matrix(EVEN, 2, 2)), 2, 1)
        assert dumps(labeling_doc(lg.labeling)) == dumps(labeling_doc(lg.labeling))
        assert dumps(labeling_doc(lg.labeling)) == dumps(
            labeling_doc(block_merge(from_matrix(build_matrix(EVEN, 2, 2)), 2, 1).labeling)
        )


class TestTokenTable:
    def test_each_distinct_token_parsed_once(self, monkeypatch):
        labeling = group_components(block_merge(from_matrix(build_matrix(EVEN, 2, 4)), 4, 1), (2, 2)).labeling
        doc = json.loads(dumps(labeling_doc(labeling)))
        parse_token, parsed = serialize.parse_token, []

        def counting(tok):
            parsed.append(tok)
            return parse_token(tok)

        monkeypatch.setattr(serialize, "parse_token", counting)
        assert labeling_from_doc(doc) == labeling
        # every edge end is a listed vertex, so the distinct tokens are the vertex ids
        assert sorted(parsed) == sorted(item["id"] for item in doc["graph"]["vertices"])
        assert any(tok.startswith("m(") for tok in parsed)

    def test_padded_spellings_read_as_one_id(self):
        graph = {"vertices": [{"id": " u1"}, {"id": "v1"}], "edges": [["u1 ", "v1"]]}
        doc = {"graph": graph, "labels": [{"edge": ["v1 ", "\tu1"], "label": 1}]}
        g = Graph.build([u(1), v(1)], [(u(1), v(1))])
        assert graph_from_doc(graph) == g
        assert labeling_from_doc(doc).labels == {(u(1), v(1)): 1}


class TestMatrixCsv:
    def test_row_order_and_header(self):
        text = matrix_csv(build_matrix(EVEN, 2, 4))
        lines = text.strip().split("\n")
        assert lines[0] == "row,1,2,3,4,5,6,7,8"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["ux1", "ux2", "ux3", "ux4", "uv", "vx1", "vx2", "vx3", "vx4"]
        assert lines[1] == "ux1,65,66,67,68,69,70,71,72"


class TestDot:
    def test_role_shapes_and_labels(self):
        labeling = special_labeled().labeling
        text = dot(labeling)
        assert '"u1" [shape=box];' in text
        assert '"v1" [shape=diamond];' in text
        assert '"x1.1" [shape=ellipse];' in text
        assert '-- "x1.1" [label=' in text

    def test_merged_shape(self):
        lg = block_merge(from_matrix(build_matrix(EVEN, 1, 2)), 2, 1)
        assert "[shape=octagon]" in dot(lg.labeling)


class TestProvenanceDoc:
    def test_json_round_trip(self):
        lg = split_x(block_merge(from_matrix(build_matrix(EVEN, 2, 2)), 2, 1))
        doc = json.loads(dumps({"provenance": lg.provenance}))
        assert replay(doc["provenance"]) == lg

import hashlib
import json
import sys
from pathlib import Path

import pytest

from antimagic.cli import main
from antimagic.serialize import dumps, graph_doc, matrix_doc
from antimagic.graph import Graph, copies_of_p2_join_null, u, v, x
from antimagic.schemes import ODD, build_matrix


def triangle() -> Graph:
    """P_2 v O_1: the triangle on u1, v1, x1.1."""
    return Graph.build([u(1), v(1), x(1, 1)], [(u(1), v(1)), (u(1), x(1, 1)), (v(1), x(1, 1))])


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestConstruct:
    def test_matrix_even_writes_worked_csv(self, tmp_path, capsys):
        code, out = run(capsys, "construct", "--family", "matrix-even", "--n", "2", "--k", "4", "--out", str(tmp_path))
        assert code == 0
        csv = (tmp_path / "matrix.csv").read_text().strip().split("\n")
        assert csv[1] == "ux1,65,66,67,68,69,70,71,72"
        assert csv[5] == "uv,44,39,37,35,38,36,34,29"
        assert (tmp_path / "graph.json").is_file()
        assert (tmp_path / "labeling.json").is_file()
        assert (tmp_path / "graph.dot").is_file()

    def test_special_family_colors(self, tmp_path, capsys):
        code, out = run(capsys, "construct", "--family", "special-2p2o2", "--out", str(tmp_path))
        assert code == 0
        assert "[14, 19, 22]" in out

    def test_block_merge_report_colors(self, tmp_path, capsys):
        code, out = run(
            capsys, "construct", "--family", "block-merge",
            "--n", "2", "--k", "2", "--r", "2", "--s", "1", "--out", str(tmp_path),
        )
        assert code == 0
        assert "[74, 77, 108]" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["colors"] == [74, 77, 108]
        assert report["local_antimagic"] is True

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        code = main(["construct", "--family", "block-merge", "--n", "2", "--k", "5", "--r", "2", "--s", "1", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("family", ["matrix-even", "block-merge", "split-G", "J1", "H-group"])
    def test_default_cell_points_to_the_special_family(self, tmp_path, capsys, family):
        """The default flags name even n = k = 1, which has no matrix: the
        error names the CLI family that builds it, not a library function."""
        code = main(["construct", "--family", family, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "--family special-2p2o2" in err and "special_labeled" not in err

    def test_k_not_r_times_s_names_the_flags(self, tmp_path, capsys):
        code = main(["construct", "--family", "block-merge", "--n", "1", "--k", "6", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: k = r*s required: --k 6 != --r 2 times --s 1\n"

    def test_even_smallest_join_routed_to_special(self, tmp_path, capsys):
        code, out = run(capsys, "construct", "--family", "kP2-join", "--n", "1", "--k", "1", "--out", str(tmp_path))
        assert code == 0
        assert "[14, 19, 22]" in out

    def test_byte_stable_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "construct", "--family", "split-G", "--parity", "odd", "--n", "2", "--k", "3", "--r", "3", "--s", "1", "--out", str(a))
        run(capsys, "construct", "--family", "split-G", "--parity", "odd", "--n", "2", "--k", "3", "--r", "3", "--s", "1", "--out", str(b))
        for name in ("graph.json", "labeling.json", "graph.dot", "matrix.csv", "provenance.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_delete_add_family_connected(self, tmp_path, capsys):
        code, out = run(
            capsys, "construct", "--family", "delete-add",
            "--n", "1", "--k", "4", "--r", "4", "--s", "1", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["components"] == 1
        assert report["local_antimagic"] is True

    def test_j_family_ignores_r_and_s(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["construct", "--family", "J1", "--n", "1", "--k", "3", "--block-size", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--r", "3", "--s", "1", "--out", str(b)]) == 0
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_h_group(self, tmp_path, capsys):
        code, out = run(
            capsys, "construct", "--family", "H-group",
            "--n", "1", "--k", "6", "--r", "6", "--s", "1", "--ks", "2,4", "--out", str(tmp_path),
        )
        assert code == 0
        assert "[112, 122, 127]" in out

    def test_h_group_without_ks_exit_2(self, tmp_path, capsys):
        assert main(["construct", "--family", "H-group", "--n", "1", "--k", "6", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: H-group requires --ks") and captured.out == ""

    @pytest.mark.parametrize("argv", [
        pytest.param(["--family", "kP2-join", "--n", "1", "--k", "2"], id="kP2-join-matrix-case"),
        pytest.param(["--family", "J2", "--n", "1", "--k", "3"], id="J2"),
    ])
    def test_construct_then_verify(self, tmp_path, capsys, argv):
        assert main(["construct", *argv, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "matrix.json").is_file()
        code, out = run(capsys, "verify", str(tmp_path / "labeling.json"))
        assert code == 0
        assert "local-antimagic: ok" in out

    def test_each_labeling_is_induced_once(self, tmp_path, capsys, monkeypatch):
        import antimagic.labeling

        calls = []
        real = antimagic.labeling.induce
        for name, module in list(sys.modules.items()):  # every binding of induce in the package
            if name.startswith("antimagic") and getattr(module, "induce", None) is real:
                monkeypatch.setattr(module, "induce", lambda labeling: calls.append(labeling) or real(labeling))
        args = ["--family", "delete-add", "--n", "8", "--k", "6", "--r", "2", "--s", "3", "--out", str(tmp_path)]
        assert main(["construct"] + args) == 0
        assert len(calls) == 2  # one swap: its input and its output
        calls.clear()
        assert main(["verify", str(tmp_path / "labeling.json")]) == 0
        assert len(calls) == 1


# sha256 of every file construct writes, per flag set: all ten families at one
# small cell, the odd J2 and H-group merges of the u side, and delete-add at
# two r/s choices, recorded when merges still kept positions in id order
CONSTRUCT_SHA256 = json.loads((Path(__file__).parent / "construct_sha256.json").read_text())


@pytest.mark.parametrize("flags", list(CONSTRUCT_SHA256))
def test_construct_writes_pinned_bytes(tmp_path, capsys, flags):
    assert main(["construct", *flags.split(), "--out", str(tmp_path)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(tmp_path.iterdir())}
    assert got == CONSTRUCT_SHA256[flags]


class TestVerify:
    def test_valid_labeling_exit_0(self, tmp_path, capsys):
        run(capsys, "construct", "--family", "special-2p2o2", "--out", str(tmp_path))
        code, out = run(capsys, "verify", str(tmp_path / "labeling.json"))
        assert code == 0
        assert "bijection: ok" in out

    def test_expected_colors_checked(self, tmp_path, capsys):
        run(capsys, "construct", "--family", "special-2p2o2", "--out", str(tmp_path))
        code, _ = run(capsys, "verify", str(tmp_path / "labeling.json"), "--expect-colors", "14,19,22")
        assert code == 0
        code, _ = run(capsys, "verify", str(tmp_path / "labeling.json"), "--expect-colors", "1,2,3")
        assert code == 1
        code, _ = run(capsys, "verify", str(tmp_path / "labeling.json"), "--expect-colors", "14,19,22,22")
        assert code == 0  # a color set: the repeat changes nothing

    def test_tampered_label_exit_1(self, tmp_path, capsys):
        run(capsys, "construct", "--family", "special-2p2o2", "--out", str(tmp_path))
        doc = json.loads((tmp_path / "labeling.json").read_text())
        doc["labels"][0]["label"] = doc["labels"][1]["label"]  # break the bijection
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        code, out = run(capsys, "verify", str(tmp_path / "bad.json"))
        assert code == 1
        assert "bijection" in out

    def test_garbage_exit_2(self, tmp_path, capsys):
        (tmp_path / "junk.json").write_text("{not json")
        assert main(["verify", str(tmp_path / "junk.json")]) == 2

    def test_matrix_document(self, tmp_path, capsys):
        run(capsys, "construct", "--family", "matrix-odd", "--n", "2", "--k", "3", "--out", str(tmp_path))
        code, out = run(capsys, "verify", str(tmp_path / "matrix.json"))
        assert code == 0
        assert "matrix identities: ok" in out


def triangle_labeling_doc(vertex="x1.1", label=3) -> dict:
    ids = ["u1", "v1", vertex]
    edges = [[ids[0], ids[1]], [ids[0], ids[2]], [ids[1], ids[2]]]
    labels = [{"edge": e, "label": lab} for e, lab in zip(edges, [1, 2, label])]
    return {"graph": {"vertices": [{"id": w} for w in ids], "edges": edges}, "labels": labels}


def relabeled(doc: dict, labels) -> dict:
    doc = json.loads(json.dumps(doc))
    for item, lab in zip(doc["labels"], labels):
        item["label"] = lab
    return doc


def with_extra(doc: dict, vertices=(), edges=(), labels=()) -> dict:
    """``doc`` with entries appended to its vertex, edge and label lists."""
    doc = json.loads(json.dumps(doc))
    doc["graph"]["vertices"] += [{"id": w} for w in vertices]
    doc["graph"]["edges"] += [list(e) for e in edges]
    doc["labels"] += [{"edge": list(e), "label": lab} for e, lab in labels]
    return doc


def odd_matrix_doc(n=1, entry=int) -> dict:
    doc = matrix_doc(build_matrix(ODD, 1, 1))
    doc["n"] = n
    doc["rows"][0]["entries"] = [entry(e) for e in doc["rows"][0]["entries"]]
    return doc


# four vertices, four edges and labels 1-4; v01 is not a vertex token (only v1
# renders as itself), and read as v1 it would make u1-v01 the edge u1-v1 again
V01_DOC = relabeled(
    with_extra(triangle_labeling_doc(), vertices=["v01"], edges=[("u1", "v01")], labels=[(("u1", "v01"), 1)]),
    [4, 2, 3],
)

# the label of u1-v1 names a third id; read by its first two ids only it is a valid triangle
THREE_ID_DOC = triangle_labeling_doc()
THREE_ID_DOC["labels"][0]["edge"] = ["u1", "v1", "zzz"]

# a valid triangle whose first label names the end u1 as an object
DICT_END_DOC = triangle_labeling_doc()
DICT_END_DOC["labels"][0]["edge"] = [{"id": "u1"}, "v1"]

DOCUMENTS = {
    "labeling-ok": ("verify", triangle_labeling_doc(), 0),
    "neither-labels-nor-rows": ("verify", {"graph": triangle_labeling_doc()["graph"]}, 2),
    "matrix-even-n1-k1": ("verify", {"parity": "even", "n": 1, "k": 1, "rows": []}, 2),
    "matrix-unknown-parity": ("verify", {"parity": "prime", "n": 2, "k": 2, "rows": []}, 2),
    "matrix-row-without-entries": ("verify", {"parity": "odd", "n": 1, "k": 1, "rows": [{"row": "uv"}]}, 2),
    "matrix-rows-not-a-list": ("verify", {"parity": "odd", "n": 1, "k": 1, "rows": 5}, 2),
    "matrix-too-few-rows": ("verify", {"parity": "odd", "n": 1, "k": 1, "rows": []}, 1),
    "not-an-object": ("verify", 5, 2),
    "label-not-a-number": ("verify", triangle_labeling_doc(label="a"), 2),
    "verify-vertex-id-not-a-string": ("verify", triangle_labeling_doc(vertex=3), 2),
    "verify-vertex-id-without-index": ("verify", triangle_labeling_doc(vertex="ux"), 2),
    "oracle-vertex-id-not-a-string": ("oracle", triangle_labeling_doc(vertex=3), 2),
    "oracle-vertex-id-without-index": ("oracle", triangle_labeling_doc(vertex="ux"), 2),
    # x1.+1 would be x1.1 to int(), and the document a valid triangle
    "verify-vertex-id-non-canonical": ("verify", triangle_labeling_doc(vertex="x1.+1"), 2),
    "labels-float-string-bool": ("verify", relabeled(triangle_labeling_doc(), [3.9, "2", True]), 2),
    "label-float": ("verify", relabeled(triangle_labeling_doc(), [1, 2, 3.0]), 2),
    "matrix-ok": ("verify", odd_matrix_doc(), 0),
    "matrix-n-float": ("verify", odd_matrix_doc(n=1.9), 2),
    "matrix-n-bool": ("verify", odd_matrix_doc(n=True), 2),
    "matrix-float-entries": ("verify", odd_matrix_doc(entry=float), 2),
    "verify-vertex-listed-twice": ("verify", V01_DOC, 2),
    "oracle-vertex-listed-twice": ("oracle", V01_DOC, 2),
    "edge-listed-twice": ("verify", with_extra(triangle_labeling_doc(), edges=[("v1", "u1")]), 2),
    "edge-labeled-twice": ("verify", with_extra(triangle_labeling_doc(), labels=[(("u1", "v1"), 1)]), 1),
    "label-edge-three-ids": ("verify", THREE_ID_DOC, 2),
    # a list or dict is not hashable, so it must not reach a dict lookup before the string check
    "verify-vertex-id-a-list": ("verify", triangle_labeling_doc(vertex=["x1.1"]), 2),
    "oracle-vertex-id-a-list": ("oracle", triangle_labeling_doc(vertex=["x1.1"]), 2),
    "label-edge-end-a-dict": ("verify", DICT_END_DOC, 2),
}

# documents whose one error line must come from parse_token's string check
NOT_A_STRING = {"verify-vertex-id-not-a-string", "oracle-vertex-id-not-a-string",
                "verify-vertex-id-a-list", "oracle-vertex-id-a-list", "label-edge-end-a-dict"}


@pytest.mark.parametrize("case", DOCUMENTS)
def test_document_exit_codes(tmp_path, capsys, case):
    command, doc, code = DOCUMENTS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == code
    if code == 2:
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        if case in NOT_A_STRING:
            lines = captured.err.splitlines()
            assert len(lines) == 1 and "vertex token must be a string" in lines[0]


@pytest.mark.parametrize("argv", [
    pytest.param(lambda d: ["construct", "--family", "special-2p2o2", "--out", str(d / "file")], id="construct-out-is-a-file"),
    pytest.param(lambda d: ["sweep", "--n-max", "1", "--k-max", "1", "--out", str(d / "missing" / "x.csv")],
                 id="sweep-out-in-missing-dir"),
    pytest.param(lambda d: ["oracle", str(d / "graph.json"), "--mode", "find", "--save", str(d / "missing" / "l.json")],
                 id="oracle-save-in-missing-dir"),
])
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    (tmp_path / "graph.json").write_text(dumps(graph_doc(triangle())))
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["sweep", "--n-max", "1", "--k-max", "1", "--jobs", "0"], id="sweep-jobs-0"),
    pytest.param(["sweep", "--n-max", "-1", "--k-max", "2"], id="sweep-n-max-minus-1"),
    pytest.param(["sweep", "--n-max", "0", "--k-max", "1"], id="sweep-n-max-0"),
    pytest.param(["sweep", "--n-max", "1", "--k-max", "0"], id="sweep-k-max-0"),
])
def test_counts_below_one_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err and captured.out == ""


def test_matrix_shape_checked_before_building(tmp_path, capsys, monkeypatch):
    import antimagic.cli

    def refuse(*args):
        raise AssertionError("build_matrix called on a document of the wrong shape")

    monkeypatch.setattr(antimagic.cli, "build_matrix", refuse)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"parity": "odd", "n": 10**9, "k": 10**9, "rows": [{"row": "uv", "entries": [1]}]}))
    assert main(["verify", str(path)]) == 1

def test_matrix_entry_changed_exit_1(tmp_path, capsys):
    # the right shape, so the stored rows are compared with the built ones
    doc = odd_matrix_doc()
    doc["rows"][1]["entries"][0] += 1
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    assert out == "verification failed: matrix entries differ from the closed forms\n"


class TestSweep:
    def test_small_grid_passes(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code = main(["sweep", "--n-max", "2", "--k-max", "2", "--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0].startswith("family,parity,params")
        assert all(",pass," in line or line.startswith("family") for line in lines)

    def test_parallel_matches_serial(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--n-max", "2", "--k-max", "6", "--out", str(a)])  # H rows start at k = 4
        main(["sweep", "--n-max", "2", "--k-max", "6", "--jobs", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_capped_at_cell_count(self, tmp_path, capsys, monkeypatch):
        import multiprocessing

        asked = []

        class SerialPool:  # records the worker count and starts no process
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--n-max", "1", "--k-max", "1", "--out", str(a)]) == 0
        assert main(["sweep", "--n-max", "1", "--k-max", "1", "--jobs", "64", "--out", str(b)]) == 0
        assert asked == [2]  # two cells: (even, 1, 1) and (odd, 1, 1)
        assert a.read_bytes() == b.read_bytes()

    def test_family_filter(self, tmp_path, capsys):
        code, out = run(capsys, "sweep", "--n-max", "1", "--k-max", "2", "--families", "matrix,join")
        assert code == 0
        body = [line for line in out.strip().split("\n")[1:] if line]
        assert body and all(line.split(",")[0] in ("matrix", "join") for line in body)

    def test_unknown_family_exit_2(self, capsys):
        assert main(["sweep", "--families", "nonsense"]) == 2

    def test_unwritable_out_fails_before_the_grid_runs(self, tmp_path, capsys, monkeypatch):
        import antimagic.cli

        def refuse(*args, **kwargs):
            raise AssertionError("sweep ran before the output path was opened")

        monkeypatch.setattr(antimagic.cli, "sweep", refuse)
        assert main(["sweep", "--n-max", "12", "--k-max", "12", "--out", str(tmp_path / "missing" / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_error_outside_the_contract_raises(self, capsys, monkeypatch):
        import antimagic.cli

        def broken(*args, **kwargs):
            raise KeyError("a programming error, not bad input")

        monkeypatch.setattr(antimagic.cli, "sweep", broken)
        with pytest.raises(KeyError):
            main(["sweep", "--n-max", "1", "--k-max", "1"])


class TestOracle:
    def write_graph(self, tmp_path, g, name="g.json"):
        path = tmp_path / name
        path.write_text(dumps(graph_doc(g)))
        return str(path)

    def test_triangle(self, tmp_path, capsys):
        path = self.write_graph(tmp_path, triangle())
        code, out = run(capsys, "oracle", path)
        assert code == 0
        report = json.loads(out)
        assert report["result"] == 3
        assert report["mode"] == "chi-la"

    def test_two_disjoint_edges_nonexistence(self, tmp_path, capsys):
        path = self.write_graph(tmp_path, copies_of_p2_join_null(2, 0))
        code, out = run(capsys, "oracle", path)
        assert code == 0
        assert json.loads(out)["result"] == "no labeling exists"

    def test_edgeless_graph_has_one_color(self, tmp_path, capsys):
        path = self.write_graph(tmp_path, Graph.build([x(1, j) for j in (1, 2, 3)], []))
        code, out = run(capsys, "oracle", path)
        assert code == 0
        assert json.loads(out)["result"] == 1

    def test_graph_without_vertices_has_no_color(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"vertices": [], "edges": []}')
        code, out = run(capsys, "oracle", str(path))
        assert code == 0
        assert json.loads(out)["result"] == 0

    def test_find_with_target_colors(self, tmp_path, capsys):
        from antimagic.transforms import special_labeled

        g = special_labeled().graph
        path = self.write_graph(tmp_path, g)
        save = tmp_path / "found.json"
        code, out = run(capsys, "oracle", path, "--mode", "find", "--target-colors", "14,19,22", "--save", str(save))
        assert code == 0
        assert json.loads(out)["result"] == [14, 19, 22]
        assert save.is_file()
        code, _ = run(capsys, "verify", str(save), "--expect-colors", "14,19,22")
        assert code == 0

    def test_find_more_colors_than_vertices_takes_no_search(self, tmp_path, capsys):
        from antimagic.transforms import special_labeled

        path = self.write_graph(tmp_path, special_labeled().graph)  # six vertices
        code, out = run(capsys, "oracle", path, "--mode", "find", "--target-c", "7")
        assert code == 0
        report = json.loads(out)
        assert report["result"] == "none"
        assert report["nodes_expanded"] == 0

    def test_certify_mode(self, tmp_path, capsys):
        from antimagic.graph import Graph, u, v

        # K_{1,3}: the lower bound is 2 (sides 1 and 3 both divide 6), so exhaustion decides
        g = Graph.build([u(1), v(1), v(2), v(3)], [(u(1), v(1)), (u(1), v(2)), (u(1), v(3))])
        path = self.write_graph(tmp_path, g)
        code, out = run(capsys, "oracle", path, "--mode", "certify-2")
        assert code == 0
        report = json.loads(out)
        assert report["result"] is True
        assert report["lower_bound"] == [2, "adjacent-pair"]
        assert report["nodes_expanded"] > 0

    def test_certify_mode_settled_by_the_bound(self, tmp_path, capsys):
        from antimagic.graph import Graph, u, v

        # C4 has equal sides: the bound is 3 and no search runs
        g = Graph.build([u(1), v(1), u(2), v(2)], [(u(1), v(1)), (v(1), u(2)), (u(2), v(2)), (v(2), u(1))])
        path = self.write_graph(tmp_path, g)
        code, out = run(capsys, "oracle", path, "--mode", "certify-2")
        assert code == 0
        report = json.loads(out)
        assert report["result"] is True
        assert report["lower_bound"] == [3, "equal-bipartition"]
        assert report["nodes_expanded"] == 0

    def test_lower_bound_reports_its_reason(self, tmp_path, capsys):
        from antimagic.graph import Graph, u, v

        # K_{2,5}: a 2-coloring needs the side of 2 to divide q(q+1)/2 = 55
        us, vs = [u(1), u(2)], [v(j) for j in range(1, 6)]
        path = self.write_graph(tmp_path, Graph.build(us + vs, [(a, b) for a in us for b in vs]))
        code, out = run(capsys, "oracle", path)
        assert code == 0
        report = json.loads(out)
        assert report["result"] == 3
        assert report["lower_bound"] == [3, "two-color-divisibility"]

    def test_cap_violation_exit_2(self, tmp_path, capsys):
        from antimagic.graph import Graph, u, v

        path = self.write_graph(tmp_path, copies_of_p2_join_null(2, 3))
        assert main(["oracle", path]) == 2
        # C4 has 4 edges: under the default cap, over --cap 3
        us, vs = [u(1), u(2)], [v(1), v(2)]
        c4 = self.write_graph(tmp_path, Graph.build(us + vs, [(a, b) for a in us for b in vs]), name="c4.json")
        assert main(["oracle", c4, "--cap", "3"]) == 2
        assert "over the cap 3" in capsys.readouterr().err
        assert main(["oracle", c4, "--cap", "4"]) == 0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("[[]]")
        assert main(["oracle", str(tmp_path / "bad.json")]) == 2


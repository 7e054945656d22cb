"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload: str, trace: int = 0, seed: int = 1, expected=None) -> tuple[int, dict | None]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    code = run.main(argv, scale="tiny", expected=expected)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, (json.loads(lines[-1]) if code == 0 else None)


def units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_units_match_benchmark_json(capsys, workload):
    code, res = bench(capsys, workload, trace=0)
    assert code == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())

    code, res = bench(capsys, workload, trace=1)
    assert code == 0, "a function this workload must call recorded no calls"
    assert res["correct"] is True
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_every_listed_function_is_required_somewhere():
    assert set().union(*run.MUST_CALL.values()) == set(tracing.FUNCTIONS)


def test_planted_wrong_grid_digest_is_a_failure(capsys):
    expected = dict(run.load_expected("tiny")["grid-deep-k"], csv_sha256="0" * 64)
    code, res = bench(capsys, "grid-deep-k", expected=expected)
    assert code == 0
    assert res["correct"] is False and res["failed"] >= 1


def test_planted_wrong_construct_digest_is_a_failure(capsys):
    code, clean = bench(capsys, "cli-roundtrip")
    expected = copy.deepcopy(run.load_expected("tiny")["cli-roundtrip"])
    expected["construct"]["split-G"]["graph.dot"] = "0" * 64
    code, res = bench(capsys, "cli-roundtrip", expected=expected)
    assert code == 0
    assert res["correct"] is False and res["failed"] > clean["failed"]


def test_malformed_matrix_documents_are_attempted_not_skipped():
    mods = run.import_antimagic()
    workload = run.make_workload("cli-roundtrip", mods, "tiny", 1, run.load_expected("tiny")["cli-roundtrip"])
    speed = run.Speed()
    speed.start()
    try:
        p = run.Pass(speed).run(workload, None)
    finally:
        speed.stop()
        workload.close()
    matrices = sum(1 for args in workload.constructs.values() if "special-2p2o2" not in args)
    commands = 2 * len(workload.constructs) + matrices + 2 + len(workload.malformed)
    assert p.attempted == len(p.items) == commands
    # a malformed document must exit 2; a traceback instead is a failed command
    assert all(note.startswith("verify matrix-") for note in p.notes)
    assert p.wrong == 0


def test_oracle_counts_repeat_exactly(capsys):
    counted = [name for name in (m["name"] for m in SPEC["per_layer"])
               if name == "oracle.nodes" or name.endswith(".calls")]
    first = bench(capsys, "oracle-corpus", trace=1, seed=7)[1]["metrics"]
    second = bench(capsys, "oracle-corpus", trace=1, seed=7)[1]["metrics"]
    assert first["oracle.nodes"]["value"] > 0
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}


def test_wrapper_missing_from_one_namespace_fails_loudly(capsys, monkeypatch):
    install = tracing.Tracer.install

    def install_but_miss_sweep(self):
        install(self)
        sweep = self.modules["sweep"]
        sweep.block_merge = sweep.block_merge.__wrapped__

    monkeypatch.setattr(tracing.Tracer, "install", install_but_miss_sweep)
    code, _ = bench(capsys, "grid-deep-k", trace=1)
    assert code == 3


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-deep-k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

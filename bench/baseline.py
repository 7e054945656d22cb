#!/usr/bin/env python3
"""Run the benchmark twice over ten seeds per workload and summarise it.

    python3 bench/baseline.py [--out FILE]

Makes SETS sets of runs of ``bench/run.py``; each set runs every workload in
BENCHMARK.json with seeds 1..RUNS, taking the workloads in turn for each
seed, with ``run_seconds`` from BENCHMARK.json.  For every set, workload and
end-to-end metric it reports the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), their distance as a share of the
median, and the run count, on the speed-scaled clock and, for the time
metrics, on the raw clock (the ``# raw`` line of each run).  It flags a
spread of at least a third of the metric's bound, and a set whose median
differs from the first set's by more than the bound.  Then it makes one
traced run per workload with seed 1 and keeps its per-layer table.
``--out`` writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SETS = 2


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result object of one run, and its raw-clock time metrics."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    raw = [json.loads(line[len("# raw "):]) for line in lines if line.startswith("# raw ")]
    return json.loads(lines[-1]), (raw[0] if raw else {})


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values), "spread": (q3 - q1) / median}


def run_set(spec: dict, names: list[str], bounds: dict) -> tuple[dict, bool]:
    values = {w: {m: [] for m in bounds} for w in names}
    raws: dict = {w: {} for w in names}
    counts: dict = {w: [] for w in names}
    for seed in range(1, RUNS + 1):
        for w in names:
            res, raw = run_once(spec["command"], w, seed, spec["run_seconds"], 0)
            if not res["correct"]:
                print(f"{w} seed {seed}: outputs incorrect", file=sys.stderr)
            counts[w].append((res["attempted"], res["failed"]))
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            for m, v in raw.items():
                raws[w].setdefault(m, []).append(v)
            print(f"{w} seed {seed}: " + " ".join(f"{m}={values[w][m][-1]:.6g}" for m in bounds), flush=True)
    steady, out = True, {}
    for w in names:
        entry = {"attempted_failed": counts[w], "end_to_end": {}, "raw": {}}
        for m, bound in bounds.items():
            s = entry["end_to_end"][m] = summarise(values[w][m])
            flag = ""
            if s["spread"] >= bound / 3:
                flag, steady = "  <-- spread over bound/3", False
            r = ""
            if m in raws[w]:
                entry["raw"][m] = summarise(raws[w][m])
                r = f" raw median {entry['raw'][m]['median']:<10.6g} spread {entry['raw'][m]['spread']:.4f}"
            print(f"{w:15} {m:13} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bound}){r}{flag}")
        out[w] = entry
    return out, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets, steady = [], True
    for i in range(SETS):
        print(f"set {i + 1} of {SETS}", flush=True)
        result, ok = run_set(spec, names, bounds)
        sets.append(result)
        steady = steady and ok

    report = {"run_seconds": spec["run_seconds"], "seeds": [1, RUNS], "sets": SETS, "workloads": {}}
    agree = True
    for w in names:
        first = sets[0][w]["end_to_end"]
        entry = {"sets": [s[w] for s in sets], "median_change": {}}
        for m, bound in bounds.items():
            change = [s[w]["end_to_end"][m]["median"] / first[m]["median"] - 1 for s in sets[1:]]
            entry["median_change"][m] = change
            flag = ""
            if any(abs(c) > bound for c in change):
                flag, agree = "  <-- sets disagree by more than the bound", False
            print(f"{w:15} {m:13} set medians " + " ".join(f"{s[w]['end_to_end'][m]['median']:<12.6g}" for s in sets)
                  + f"change {' '.join(f'{c:+.4f}' for c in change)} (bound {bound}){flag}")
        res, _ = run_once(spec["command"], w, 1, spec["run_seconds"], 1)
        entry["per_layer_seed"] = 1
        entry["per_layer"] = {name: m["value"] for name, m in res["metrics"].items()}
        report["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    print("sets agree" if agree else "sets DISAGREE")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the antimagic package: four fixed workloads, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end figures; with ``--trace 1`` they are the
per-layer figures of a traced run (see ``bench/README.md``).  Exit code 2
means bad arguments or no package sources next to the benchmark; 3 means a
traced run recorded no calls to a function its workload must call.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402

MODULES = ("errors", "graph", "labeling", "schemes", "transforms", "sweep", "oracle", "serialize", "cli")
SETUP_REPEATS = 31
TRACE_MIN_PAIRS = 3
TAIL_BEYOND = 10
# The machine the baseline was measured on (2 shared vCPUs) ran the same work up to 1.9x
# slower for stretches from under a second to minutes, so raw pass times spread
# 10-30% between runs.  Times are therefore scaled to a reference speed read off a
# probe loop run every PROBE_EVERY_S (see Speed); the same metrics on the raw
# clock are printed on a "# raw" line above the result.
PROBE_ITERATIONS = 6_000
PROBE_EVERY_S = 0.25
PROBE_REFERENCE_S = 0.0017  # the probe's time on that machine when it ran fast

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "failure_rate": "ratio",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


def import_antimagic() -> dict:
    """A fresh import of the package and all its modules, by short name."""
    for name in [m for m in sys.modules if m == "antimagic" or m.startswith("antimagic.")]:
        del sys.modules[name]
    mods = {"antimagic": importlib.import_module("antimagic")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"antimagic.{name}")
    return mods


def speed_probe() -> float:
    """Time a fixed piece of pure-Python work (tuple keys in a dict, small
    str allocations); the best of three, so one interrupt does not count."""
    best = math.inf
    for _ in range(3):
        t0 = clock()
        counts: dict = {}
        for i in range(PROBE_ITERATIONS):
            key = (i & 511, i & 7)
            counts[key] = counts.get(key, 0) + len(str(i))
        best = min(best, clock() - t0)
    return best


class Speed:
    """The machine's speed over time, probed from a SIGALRM timer.

    While running, a probe runs every PROBE_EVERY_S at the next bytecode
    boundary, also inside long calls.  The time between two probes is
    scaled by PROBE_REFERENCE_S / (mean of the two probe times), which gives
    seconds at the reference speed; time spent probing is left out.
    """

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []  # (start, end, probe time)
        self._running = False
        self._busy = False

    def probe(self) -> None:
        self._busy = True
        t0 = clock()
        best = speed_probe()
        self.probes.append((t0, clock(), best))
        self._busy = False

    def _on_alarm(self, *_signal) -> None:
        if self._running and not self._busy:
            self.probe()

    def start(self) -> None:
        self.probe()
        self._running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        # the handler stays installed, so a late alarm is ignored, not fatal
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False
        self.probe()
        self._ends = [end for _, end, _ in self.probes]
        self._scale = [2 * PROBE_REFERENCE_S / (a[2] + b[2]) for a, b in zip(self.probes, self.probes[1:])]

    @contextlib.contextmanager
    def paused(self):
        """No probes in between: for work on other processes, which a probe
        in this one would compete with."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False
        try:
            yield
        finally:
            self.probe()
            self._running = True
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def scaled(self, a: float, b: float) -> float:
        """Seconds at the reference speed spent in [a, b], probes excluded."""
        j = max(0, bisect.bisect_right(self._ends, a) - 1)
        total = 0.0
        while j + 1 < len(self.probes):
            lo, hi = self.probes[j][1], self.probes[j + 1][0]
            if lo >= b:
                break
            total += max(0.0, min(b, hi) - max(a, lo)) * self._scale[j]
            j += 1
        return total


class Pass:
    """One full pass over a workload's items, with its outcome.  It keeps
    raw clock stamps; ``scale`` reads them off the Speed that probed while
    it ran, once that has stopped."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.items: list[tuple[float, float]] = []  # (start, end) of each item
        self.attempted = 0
        self.failed = 0  # crashed, or returned a wrong result
        self.wrong = 0  # returned a result that differs from the expectation
        self.notes: list[str] = []

    def item(self, start: float, end: float) -> None:
        self.items.append((start, end))

    def run(self, workload, tracer) -> "Pass":
        self.start = clock()
        try:
            workload.run_pass(self, tracer)
        finally:
            self.end = clock()
        return self

    def scale(self) -> "Pass":
        self.raw_seconds = self.end - self.start
        self.raw_latencies = [b - a for a, b in self.items]
        self.seconds = self.speed.scaled(self.start, self.end)
        self.latencies = [self.speed.scaled(a, b) for a, b in self.items]
        return self

    def check(self, ok: bool, note: str) -> None:
        """One operation whose returned output was compared to its expectation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.notes.append(note)

    def crash(self, note: str) -> None:
        """One operation that raised instead of returning."""
        self.attempted += 1
        self.failed += 1
        self.notes.append(note)


# --- grid workloads -------------------------------------------------------------


def csv_digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(row.csv().encode() + b"\n")
    return h.hexdigest()


class Grid:
    """Serial ``sweep()`` over the parameter grid n <= n_max, k <= k_max.

    Items are the yielded rows, timed between yields.  The inputs are the
    paper's fixed grid, so the seed is not used.
    """

    def __init__(self, mods, size: dict, expected: dict):
        self.sweep = mods["sweep"].sweep
        self.n_max, self.k_max = size["n_max"], size["k_max"]
        self.digest = expected.get("csv_sha256")

    def record(self) -> dict:
        return {"csv_sha256": csv_digest(self.sweep(self.n_max, self.k_max))}

    def run_pass(self, p: Pass, tracer) -> None:
        h = hashlib.sha256()
        before = clock()
        for row in self.sweep(self.n_max, self.k_max):
            now = clock()
            p.item(before, now)
            if tracer is not None:
                tracer.sweep_row(row.family, before, now)
            line = row.csv()
            h.update(line.encode() + b"\n")
            p.check(row.ok, f"row failed: {line}")
            before = clock()
        p.check(h.hexdigest() == self.digest, f"grid CSV sha256 {h.hexdigest()} != expected {self.digest}")

    def close(self) -> None:
        pass


# --- oracle workload ------------------------------------------------------------

SPECIAL_COLORS = [14, 19, 22]
POOL_STRATA = 32


def _graphs(mods) -> dict:
    """The fixed corpus, built from vertex ids and edge lists only."""
    gm = mods["graph"]
    Graph, u, v, x = gm.Graph, gm.u, gm.v, gm.x

    def cycle(n):
        return Graph.build([u(i) for i in range(1, n + 1)], [(u(i), u(i % n + 1)) for i in range(1, n + 1)])

    def path(n):
        return Graph.build([u(i) for i in range(1, n + 1)], [(u(i), u(i + 1)) for i in range(1, n)])

    def complete_bipartite(a, b):
        us, vs = [u(i) for i in range(1, a + 1)], [v(j) for j in range(1, b + 1)]
        return Graph.build(us + vs, [(p, q) for p in us for q in vs])

    def copies_join(a, m):
        """a disjoint copies of P2 v O_m."""
        vs, es = [], []
        for i in range(1, a + 1):
            xs = [x(i, j) for j in range(1, m + 1)]
            vs += [u(i), v(i)] + xs
            es += [(u(i), v(i))] + [(w, y) for w in (u(i), v(i)) for y in xs]
        return Graph.build(vs, es)

    def matching_join(a, m):
        """aP2 v O_m: a disjoint edges joined to m isolated vertices."""
        side = [w for i in range(1, a + 1) for w in (u(i), v(i))]
        xs = [x(1, j) for j in range(1, m + 1)]
        es = [(u(i), v(i)) for i in range(1, a + 1)] + [(w, y) for w in side for y in xs]
        return Graph.build(side + xs, es)

    out = {f"C{n}": cycle(n) for n in range(4, 9)}
    out.update({f"P{n}": path(n) for n in range(5, 8)})
    out.update({"K2,3": complete_bipartite(2, 3), "K2,4": complete_bipartite(2, 4)})
    out.update({"K2,5": complete_bipartite(2, 5), "K3,3": complete_bipartite(3, 3)})
    out.update({"2(P2vO1)": copies_join(2, 1), "3(P2vO1)": copies_join(3, 1), "2(P2vO2)": copies_join(2, 2)})
    out["2P2vO2"] = matching_join(2, 2)
    return out


def pool_graph(mods, entry: dict):
    gm = mods["graph"]
    return gm.Graph.build([gm.u(i) for i in range(1, entry["order"] + 1)],
                          [(gm.u(a), gm.u(b)) for a, b in entry["edges"]])


class OracleCorpus:
    """Fixed oracle queries with stored verdicts, plus a seeded draw from a
    stored pool of random graphs with at most 9 edges.

    The pool is sorted by search-tree size and cut into POOL_STRATA equal
    strata; the seed picks one graph from each of the first ``strata``, so
    every seed gets a draw of the same shape and the seeded part stays a
    small, steady share of the pass.
    """

    def __init__(self, mods, size: dict, expected: dict, seed: int):
        self.mods = mods
        graphs = _graphs(mods)
        self.queries = [(name, kind, graphs[gname]) for name, kind, gname in size["queries"]]
        self.n_fixed = len(self.queries)
        self.rounds = size["rounds"]
        self.verdicts = dict(expected.get("verdicts", {}))
        pool = expected.get("pool", [])
        per = len(pool) // POOL_STRATA
        rng = random.Random(seed)
        for s in range(size["strata"]):
            entry = rng.choice(pool[s * per:(s + 1) * per])
            self.queries.append((f"pool#{entry['index']}", "chi", pool_graph(mods, entry)))
            self.verdicts[f"pool#{entry['index']}"] = entry["chi"]

    def ask(self, kind: str, g):
        oracle = self.mods["oracle"]
        if kind == "chi":
            return oracle.exact_chi_la(g).value
        if kind == "certify":
            return oracle.certify_no_2_coloring(g)
        mode = "heuristic" if kind == "heuristic" else "exact"
        res = oracle.find_labeling(g, target_colors=set(SPECIAL_COLORS), mode=mode, seed=0)
        return res.labeling

    def verdict(self, kind: str, answer):
        """The comparable form of an answer: found labelings by colour set."""
        if kind in ("find", "heuristic"):
            if answer is None:
                return None
            ok, _ = self.mods["labeling"].is_local_antimagic(answer)
            colors = sorted(self.mods["labeling"].induce(answer).color_set)
            return colors if ok else "not local antimagic"
        return answer

    def record(self) -> dict:
        fixed = self.queries[: self.n_fixed]
        return {"verdicts": {name: self.verdict(kind, self.ask(kind, g)) for name, kind, g in fixed}}

    def run_pass(self, p: Pass, tracer) -> None:
        light = [q for q in self.queries if q[0] not in REFUTATIONS]
        for name, kind, g in self.queries + light * (self.rounds - 1):
            t0 = clock()
            try:
                answer = self.ask(kind, g)
            except Exception as exc:  # a crash is a failed query, reported below
                p.item(t0, clock())
                p.crash(f"{name}: {type(exc).__name__}: {exc}")
                continue
            p.item(t0, clock())
            got, want = self.verdict(kind, answer), self.verdicts.get(name)
            p.check(got == want, f"{name}: {kind} gave {got!r}, expected {want!r}")

    def close(self) -> None:
        pass


# --- CLI workload ---------------------------------------------------------------


def file_digests(folder: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(folder.iterdir())}


class CliRoundtrip:
    """In-process ``antimagic.cli.main`` calls: construct every family,
    verify what was written, run the oracle on a constructed graph, a
    two-worker sweep, and malformed matrix documents that must exit 2.

    The inputs are fixed parameters, so the seed is not used.
    """

    def __init__(self, mods, size: dict, expected: dict, tag: str):
        self.main = mods["cli"].main
        self.expected = expected
        self.work = WORK / tag
        self.work.mkdir(parents=True, exist_ok=True)
        n, k = str(size["n"]), str(size["k"])
        self.constructs = {
            "matrix-even": ["--family", "matrix-even", "--n", n, "--k", k],
            "matrix-odd": ["--family", "matrix-odd", "--n", n, "--k", k],
            "kP2-join": ["--family", "kP2-join", "--parity", "odd", "--n", n, "--k", k],
            "block-merge": ["--family", "block-merge", "--n", n, "--k", k] + size["rs"],
            "split-G": ["--family", "split-G", "--parity", "odd", "--n", n, "--k", k] + size["rs"],
            "J1": ["--family", "J1", "--n", n, "--k", k, "--r", k, "--s", "1", "--block-size", "2"],
            "J2": ["--family", "J2", "--parity", "odd", "--n", n, "--k", k, "--r", k, "--s", "1",
                   "--block-size", size["j2_block"]],
            "H-group": ["--family", "H-group", "--n", n, "--k", k, "--r", k, "--s", "1", "--ks", size["ks"]],
            "delete-add": ["--family", "delete-add", "--n", n, "--k", k] + size["rs"],
            "special-2p2o2": ["--family", "special-2p2o2"],
        }
        self.sweep_args = ["--n-max", str(size["sweep_n"]), "--k-max", str(size["sweep_k"])]
        self.malformed = {
            "matrix-even-n1-k1": {"parity": "even", "n": 1, "k": 1, "rows": []},
            "matrix-unknown-parity": {"parity": "prime", "n": 2, "k": 2, "rows": []},
        }
        for name, doc in self.malformed.items():
            (self.work / f"{name}.json").write_text(json.dumps(doc))

    def call(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        return code, out.getvalue()

    def record(self) -> dict:
        rec = {"construct": {}, "colors": {}}
        for family, args in self.constructs.items():
            folder = self.work / family
            code, _ = self.call(["construct", *args, "--out", str(folder)])
            assert code == 0, family
            rec["construct"][family] = file_digests(folder)
            rec["colors"][family] = json.loads((folder / "report.json").read_text())["colors"]
        code, out = self.call(["oracle", str(self.work / "special-2p2o2" / "graph.json")])
        rec["oracle"] = json.loads(out)["result"]
        serial = self.work / "sweep-serial.csv"
        code, _ = self.call(["sweep", *self.sweep_args, "--jobs", "1", "--out", str(serial)])
        rec["sweep_csv_sha256"] = hashlib.sha256(serial.read_bytes()).hexdigest()
        return rec

    def run_pass(self, p: Pass, tracer) -> None:
        exp = self.expected

        def run(label: str, argv: list[str], judge) -> None:
            t0 = clock()
            try:
                code, out = self.call(argv)
            except Exception as exc:  # a traceback is a failed command, counted and reported
                p.item(t0, clock())
                p.crash(f"{label}: {type(exc).__name__}: {exc}")
                return
            p.item(t0, clock())
            ok, note = judge(code, out)
            p.check(ok, f"{label}: {note}")

        for family, args in self.constructs.items():
            folder = self.work / family
            want = exp["construct"].get(family)
            run(f"construct {family}", ["construct", *args, "--out", str(folder)],
                lambda code, _out, folder=folder, want=want: (
                    code == 0 and file_digests(folder) == want, f"exit {code} or output files differ"))
        for family in self.constructs:
            folder = self.work / family
            colors = ",".join(map(str, exp["colors"].get(family, [])))
            run(f"verify {family}/labeling.json",
                ["verify", str(folder / "labeling.json"), "--expect-colors", colors],
                lambda code, _out: (code == 0, f"exit {code}"))
            if (folder / "matrix.json").exists():
                run(f"verify {family}/matrix.json", ["verify", str(folder / "matrix.json")],
                    lambda code, _out: (code == 0, f"exit {code}"))
        run("oracle special-2p2o2", ["oracle", str(self.work / "special-2p2o2" / "graph.json")],
            lambda code, out: (code == 0 and json.loads(out)["result"] == exp["oracle"], f"exit {code}: {out!r}"))
        csv = self.work / "sweep.csv"
        want_csv = exp["sweep_csv_sha256"]
        with p.speed.paused():
            run("sweep --jobs 2", ["sweep", *self.sweep_args, "--jobs", "2", "--out", str(csv)],
                lambda code, _out: (code == 0 and hashlib.sha256(csv.read_bytes()).hexdigest() == want_csv,
                                    f"exit {code} or CSV differs from the serial rows"))
        for name in self.malformed:
            run(f"verify {name}", ["verify", str(self.work / f"{name}.json")],
                lambda code, _out: (code == 2, f"exit {code}, expected 2"))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            WORK.rmdir()


# --- workloads and their sizes --------------------------------------------------

ORACLE_FULL = (
    [(f"chi {g}", "chi", g) for g in ("C4", "C5", "C6", "C7", "C8", "P5", "P6", "P7",
                                      "K2,3", "K2,4", "2(P2vO1)", "2P2vO2")]
    + [("chi 2(P2vO2)", "chi", "2(P2vO2)"), ("chi K2,5", "chi", "K2,5"), ("chi 3(P2vO1)", "chi", "3(P2vO1)"),
       ("certify C6", "certify", "C6"), ("certify K3,3", "certify", "K3,3"), ("find 2P2vO2", "find", "2P2vO2"),
       ("heuristic 2P2vO2", "heuristic", "2P2vO2")]
)
# the four slow refutations run once a pass, every other query `rounds` times,
# so a run holds enough of the millisecond queries for a steady median
REFUTATIONS = {"chi 2(P2vO2)", "chi K2,5", "chi 3(P2vO1)", "certify K3,3"}
ORACLE_TINY = [q for q in ORACLE_FULL if q[2] in ("C4", "C5", "C6", "P5", "K2,3", "2(P2vO1)", "2P2vO2")]

SIZES = {
    "full": {
        "grid-deep-k": {"n_max": 2, "k_max": 12},
        "grid-wide-m": {"n_max": 24, "k_max": 4},
        "oracle-corpus": {"queries": ORACLE_FULL, "strata": 32, "rounds": 3},
        "cli-roundtrip": {"n": 8, "k": 6, "rs": ["--r", "2", "--s", "3"], "j2_block": "3", "ks": "2,4",
                          "sweep_n": 3, "sweep_k": 6},
    },
    "tiny": {
        "grid-deep-k": {"n_max": 1, "k_max": 5},
        "grid-wide-m": {"n_max": 3, "k_max": 4},
        "oracle-corpus": {"queries": ORACLE_TINY, "strata": 4, "rounds": 1},
        "cli-roundtrip": {"n": 2, "k": 4, "rs": ["--r", "2", "--s", "2"], "j2_block": "2", "ks": "2,2",
                          "sweep_n": 2, "sweep_k": 3},
    },
}

# seconds one pass took at the seed (2 CPUs); a run makes a fixed number of
# passes from these, so attempted counts and tail percentiles are the same on
# every run and every commit
PASS_SECONDS = {
    "full": {"grid-deep-k": 4.0, "grid-wide-m": 5.0, "oracle-corpus": 10.0, "cli-roundtrip": 1.1},
    "tiny": {"grid-deep-k": 1.0, "grid-wide-m": 1.0, "oracle-corpus": 1.0, "cli-roundtrip": 1.0},
}
MIN_PASSES = {"full": 3, "tiny": 2}

GRID_CALLS = {
    "schemes.build_matrix", "schemes.check_identities", "transforms.from_matrix", "transforms.merge_all_x",
    "transforms.block_merge", "transforms.split_x", "transforms.merge_v_blocks", "transforms.group_components",
    "labeling.EdgeLabeling", "labeling.relabel_edges", "labeling.induce", "labeling.chi_la_lower_bound",
    "graph.merge_vertices_mapped", "graph.components", "graph.bipartition", "graph.is_bipartite_equal_parts",
}
# functions each workload must call; a traced run with zero calls to one of
# them means a wrapper went into the wrong namespace
MUST_CALL = {
    "grid-deep-k": GRID_CALLS,
    "grid-wide-m": GRID_CALLS,
    "oracle-corpus": {
        "oracle.exact_chi_la", "oracle.find_labeling", "oracle.certify_no_2_coloring", "labeling.EdgeLabeling",
        "labeling.induce", "labeling.is_local_antimagic", "labeling.chi_la_lower_bound", "graph.components",
        "graph.bipartition", "graph.is_bipartite_equal_parts",
    },
    "cli-roundtrip": GRID_CALLS | {
        "transforms.connecting_swaps", "labeling.is_local_antimagic", "oracle.exact_chi_la",
        "serialize.graph_doc", "serialize.graph_from_doc", "serialize.labeling_doc", "serialize.labeling_from_doc",
        "serialize.dot", "serialize.matrix_csv", "cli.construct", "cli.verify", "cli.sweep", "cli.oracle",
    },
}


def make_workload(name: str, mods, scale: str, seed: int, expected: dict):
    size = SIZES[scale][name]
    if name.startswith("grid-"):
        return Grid(mods, size, expected)
    if name == "oracle-corpus":
        return OracleCorpus(mods, size, expected, seed)
    return CliRoundtrip(mods, size, expected, f"{scale}-{seed}")


def load_expected(scale: str) -> dict:
    return json.loads(EXPECTED.read_text())[scale]


# --- metrics --------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with TAIL_BEYOND samples beyond it, as
    (percentile, value): the (TAIL_BEYOND + 1)-th largest sample.  None when
    there are too few samples for that to be at least the median."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def timings(setup: list[float], walls: list[float], items: list[int], latencies: list[float]) -> dict:
    """The time metrics from one clock: setup repetitions, pass walls, items
    per pass and every item's latency, all in seconds."""
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(n / w for n, w in zip(items, walls)),
        "item_ms_p50": statistics.median(latencies) * 1e3,
    }
    t = tail(latencies)
    if t is not None:
        metrics["item_ms_tail"] = t[1] * 1e3
    return metrics


def end_to_end(passes: list[Pass], setup: list[float], setup_raw: list[float]) -> tuple[dict, dict, list[str]]:
    """Speed-scaled end-to-end metrics, the time metrics on the raw clock,
    and notes."""
    items = [len(p.items) for p in passes]
    latencies = [s for p in passes for s in p.latencies]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = timings(setup, [p.seconds for p in passes], items, latencies)
    raw = timings(setup_raw, [p.raw_seconds for p in passes], items, [s for p in passes for s in p.raw_latencies])
    # Laplace's rule of succession, (failed + 1) / (attempted + 2): never 0,
    # so a ratio against the parent stays defined; raw counts are printed too
    metrics["failure_rate"] = (failed + 1) / (attempted + 2)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = [f"{len(passes)} passes, {len(latencies)} items, {attempted} checked operations, {failed} failed",
             "pass seconds, scaled: " + " ".join(f"{p.seconds:.3f}" for p in passes),
             "pass seconds, raw:    " + " ".join(f"{p.raw_seconds:.3f}" for p in passes)]
    t = tail(latencies)
    if t is not None:
        notes.append(f"item_ms_tail is p{t[0]:.2f} of {len(latencies)} samples")
    else:
        notes.append(f"item_ms_tail omitted: {len(latencies)} samples are too few")
    return metrics, raw, notes


def per_layer(tracer: tracing.Tracer, speed: Speed, traced: list[Pass], plain: list[Pass]) -> tuple[dict, bool]:
    """The per-layer table, per traced pass, and whether the tracing overhead
    was resolved.  Spans and pass walls are all speed-scaled by ``speed``."""
    k = len(traced)
    metrics: dict[str, tuple[float, str]] = {}
    for name, row in tracer.table(speed.scaled).items():
        metrics[f"{name}.calls"] = (row["calls"] / k, "count")
        metrics[f"{name}.self_s"] = (row["self_s"] / k, "s")
    for fam, (rows, seconds) in tracer.families(speed.scaled).items():
        metrics[f"sweep.{fam}.rows"] = (rows / k, "count")
        metrics[f"sweep.{fam}.s"] = (seconds / k, "s")
    c = tracer.counts
    node_seconds = tracer.node_seconds(speed.scaled)
    metrics["oracle.nodes"] = (c["oracle.nodes"] / k, "count")
    metrics["oracle.nodes_per_s"] = (c["oracle.nodes"] / node_seconds if node_seconds else 0.0, "1/s")
    metrics["graph.vertices_out"] = (c["graph.vertices_out"] / k, "count")
    metrics["graph.edges_out"] = (c["graph.edges_out"] / k, "count")
    metrics["serialize.bytes_out"] = (c["serialize.bytes_out"] / k, "bytes")
    # passes alternate untraced, traced; each pair's difference is one
    # estimate of the overhead, and the untraced passes' range is the noise
    plain_walls = [p.seconds for p in plain]
    overhead = statistics.median(t.seconds - p.seconds for p, t in zip(plain, traced))
    noise = max(plain_walls) - min(plain_walls)
    resolved = overhead > noise
    metrics["trace.wall_s"] = (statistics.median(p.seconds for p in traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(plain_walls), "s")
    metrics["trace.pass_range_s"] = (noise, "s")
    # below the noise the overhead is not resolved: report its upper bound
    metrics["trace.overhead_s"] = (overhead if resolved else noise, "s")
    return metrics, resolved


# --- driver ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale: str = "full", expected: dict | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "antimagic" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    expected = load_expected(scale)[args.workload] if expected is None else expected

    n_passes = max(MIN_PASSES[scale], round(args.seconds / PASS_SECONDS[scale][args.workload]))
    tag = f"{args.workload}-seed{args.seed}"
    # one probe for the whole run, so set-up, passes and spans share a clock
    speed, setups, passes, workload = Speed(), [], [], None
    speed.start()
    try:
        if args.trace:
            mods = import_antimagic()
            workload = make_workload(args.workload, mods, scale, args.seed, expected)
            tracer = tracing.Tracer(mods)
            plain, traced = [], []
            for _ in range(max(TRACE_MIN_PAIRS, n_passes // 2)):
                plain.append(Pass(speed).run(workload, None))
                tracer.install()
                try:
                    traced.append(Pass(speed).run(workload, tracer))
                finally:
                    tracer.restore()
            passes = plain + traced
        else:
            # the set-up repetitions are spread over the run, a few before each
            # pass, so their median sees the machine's speed over the whole run
            for _ in range(n_passes):
                for _ in range(-(-SETUP_REPEATS // n_passes)):
                    if workload is not None:
                        workload.close()
                    t0 = clock()
                    workload = make_workload(args.workload, import_antimagic(), scale, args.seed, expected)
                    setups.append((t0, clock()))
                    speed.probe()
                passes.append(Pass(speed).run(workload, None))
    finally:
        speed.stop()
        if workload is not None:
            workload.close()
    for p in passes:
        p.scale()

    if args.trace:
        metrics, resolved = per_layer(tracer, speed, traced, plain)
        tracer.write_spans(OUT / f"{tag}.spans.csv.gz")
        table = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        table["trace.overhead_s"]["resolved"] = resolved
        table["oracle.certify_no_2_coloring.nodes"] = {"value": None, "unit": "count"}
        (OUT / f"{tag}.layers.json").write_text(json.dumps(table, indent=1) + "\n")
        for name, (value, unit) in metrics.items():
            print(f"# {name:<40} {value:>16.6g} {unit}")
        print(f"# oracle calls without a node count: {tracer.nodes_absent_calls / len(traced):g} per pass")
        if not resolved:
            print(f"# tracing overhead unresolved: {len(traced)} pairs of passes differ by no more than "
                  "the untraced passes' range, which trace.overhead_s reports as its upper bound")
        missing = sorted(f for f in MUST_CALL[args.workload] if metrics[f"{f}.calls"][0] == 0)
        if missing:
            print(f"error: traced run recorded no calls to {', '.join(missing)}", file=sys.stderr)
            return 3
    else:
        setup = [speed.scaled(a, b) for a, b in setups]
        values, raw, notes = end_to_end(passes, setup, [b - a for a, b in setups])
        metrics = {name: (values[name], END_TO_END_UNITS[name]) for name in END_TO_END_UNITS if name in values}
        for note in notes:
            print(f"# {note}")
        print(f"# raw {json.dumps(raw)}")

    failed = sum(p.failed for p in passes)
    for note in sorted({n for p in passes for n in p.notes})[:20]:
        print(f"# failed: {note}")
    result = {
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recording for the traced benchmark run, installed from outside.

No file of the package changes.  ``Tracer.install`` swaps a wrapper in for
every listed public function in each ``antimagic`` module namespace that
binds it (``from .transforms import block_merge`` in ``sweep.py`` makes a
second binding that must be replaced too), and for the two ``EdgeLabeling``
methods on the class itself.  ``Tracer.restore`` puts the originals back.

Each wrapper call appends one span ``(name, start, end, parent)`` to an
in-memory list; ``parent`` is the index of the enclosing traced span, or -1.
A span's self time is its duration minus the durations of its direct
children, which nest inside it because the traced code is single-threaded.
Spans keep raw ``perf_counter`` stamps; the tables take a ``scale``
function that turns a raw interval into seconds on the benchmark's clock.
"""

from __future__ import annotations

import gzip
import time
from pathlib import Path

# metric prefix -> (module, attribute path) of every listed public function
FUNCTIONS = {
    "schemes.build_matrix": ("schemes", "build_matrix"),
    "schemes.check_identities": ("schemes", "check_identities"),
    "transforms.from_matrix": ("transforms", "from_matrix"),
    "transforms.merge_all_x": ("transforms", "merge_all_x"),
    "transforms.block_merge": ("transforms", "block_merge"),
    "transforms.split_x": ("transforms", "split_x"),
    "transforms.merge_v_blocks": ("transforms", "merge_v_blocks"),
    "transforms.group_components": ("transforms", "group_components"),
    "transforms.connecting_swaps": ("transforms", "connecting_swaps"),
    "labeling.EdgeLabeling": ("labeling", "EdgeLabeling.__post_init__"),
    "labeling.relabel_edges": ("labeling", "EdgeLabeling.relabel_edges"),
    "labeling.induce": ("labeling", "induce"),
    "labeling.is_local_antimagic": ("labeling", "is_local_antimagic"),
    "labeling.chi_la_lower_bound": ("labeling", "chi_la_lower_bound"),
    "graph.merge_vertices_mapped": ("graph", "merge_vertices_mapped"),
    "graph.components": ("graph", "components"),
    "graph.bipartition": ("graph", "bipartition"),
    "graph.is_bipartite_equal_parts": ("graph", "is_bipartite_equal_parts"),
    "oracle.exact_chi_la": ("oracle", "exact_chi_la"),
    "oracle.find_labeling": ("oracle", "find_labeling"),
    "oracle.certify_no_2_coloring": ("oracle", "certify_no_2_coloring"),
    "serialize.graph_doc": ("serialize", "graph_doc"),
    "serialize.graph_from_doc": ("serialize", "graph_from_doc"),
    "serialize.labeling_doc": ("serialize", "labeling_doc"),
    "serialize.labeling_from_doc": ("serialize", "labeling_from_doc"),
    "serialize.dot": ("serialize", "dot"),
    "serialize.matrix_csv": ("serialize", "matrix_csv"),
    "cli.construct": ("cli", "cmd_construct"),
    "cli.verify": ("cli", "cmd_verify"),
    "cli.sweep": ("cli", "cmd_sweep"),
    "cli.oracle": ("cli", "cmd_oracle"),
}

# wrapped only to count the bytes they return; they get no span
BYTE_COUNTED = (("serialize", "dumps"), ("serialize", "dot"), ("serialize", "matrix_csv"))

# the rows the sweep yields, by the family name in their first CSV field
SWEEP_FAMILIES = ("matrix", "join", "merge-all", "block", "split", "J1", "J2", "H1", "H2")

COUNTERS = ("oracle.nodes", "graph.vertices_out", "graph.edges_out", "serialize.bytes_out")


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps short names (``"graph"``, ...) to the imported
        ``antimagic`` submodules, plus ``"antimagic"`` for the package."""
        self.modules = modules
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.node_spans: list = []  # (start, end) of oracle calls that report a node count
        self.nodes_absent_calls = 0  # oracle calls that expose no node count
        self.rows: list = []  # (family, start, end) of each yielded sweep row
        self._saved: list = []

    # --- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        for name, (mod, path) in FUNCTIONS.items():
            self._swap(mod, path, self._span_wrapper(name, _after_hook(self, name)))
        for mod, path in BYTE_COUNTED:
            self._swap(mod, path, self._byte_wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _swap(self, mod: str, path: str, make) -> None:
        owner = self.modules[mod]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        current = getattr(owner, attr)
        wrapper = make(current)
        if outer:  # a method: the class attribute is the one lookup site
            self._saved.append((owner, attr, current))
            setattr(owner, attr, wrapper)
            return
        for module in self.modules.values():
            for key, val in list(vars(module).items()):
                if val is current:
                    self._saved.append((module, key, current))
                    setattr(module, key, wrapper)

    def _span_wrapper(self, name: str, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name, start, end, parent)
                if after is not None:
                    after(result, start, end)
                return result

            traced.__wrapped__ = fn
            return traced

        return make

    def _byte_wrapper(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            text = fn(*args, **kwargs)
            counts["serialize.bytes_out"] += len(text.encode())
            return text

        counted.__wrapped__ = fn
        return counted

    # --- sweep rows, timed by the benchmark between yields -----------------

    def sweep_row(self, family: str, start: float, end: float) -> None:
        self.rows.append((family, start, end))

    # --- results -----------------------------------------------------------

    def table(self, scale) -> dict[str, dict[str, float]]:
        """Per function: calls and self seconds over every span recorded."""
        took = [scale(start, end) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), seconds in zip(self.spans, took):
            if parent >= 0:
                child[parent] += seconds
        out = {name: {"calls": 0, "self_s": 0.0} for name in FUNCTIONS}
        for (name, _, _, _), seconds, inner in zip(self.spans, took, child):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += seconds - inner
        return out

    def families(self, scale) -> dict[str, tuple[int, float]]:
        """Per sweep family: rows yielded and seconds between yields."""
        out = dict.fromkeys(SWEEP_FAMILIES, (0, 0.0))
        for family, start, end in self.rows:
            rows, seconds = out[family]
            out[family] = (rows + 1, seconds + scale(start, end))
        return out

    def node_seconds(self, scale) -> float:
        """Time inside the oracle calls that report a node count."""
        return sum(scale(start, end) for start, end in self.node_spans)

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped CSV: name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{int(start * 1e9)},{int(end * 1e9)},{parent}\n")


def _after_hook(tracer: Tracer, name: str):
    """Counters read off a call's result where the layer does the work."""
    counts = tracer.counts
    if name.startswith("transforms."):
        def after(lg, _start, _end):
            counts["graph.vertices_out"] += lg.graph.order
            counts["graph.edges_out"] += lg.graph.size
        return after
    if name in ("oracle.exact_chi_la", "oracle.find_labeling"):
        def after(res, start, end):
            # heuristic finds report 0 nodes: they expand no search tree
            if getattr(res, "mode", "exact") == "exact":
                counts["oracle.nodes"] += res.nodes
                tracer.node_spans.append((start, end))
            else:
                tracer.nodes_absent_calls += 1
        return after
    if name == "oracle.certify_no_2_coloring":
        def after(_verdict, _start, _end):
            tracer.nodes_absent_calls += 1  # returns a bare bool: nodes unknown, not 0
        return after
    return None

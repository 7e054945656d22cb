#!/usr/bin/env python3
"""Write bench/expected.json: the outputs the benchmark checks, taken from
the current code.

    python3 bench/record.py

Run it only at the commit that defines the expected outputs.  Later changes
must reproduce these digests and verdicts byte for byte; a change that means
to alter an output says so and re-records in a change of its own.

It also draws the oracle workload's pool of random graphs: POOL_SIZE graphs
with 4 to 8 vertices and at most 9 edges, from a fixed master seed, keeping
those whose exact search expands at most POOL_NODE_CAP nodes, so that the
seeded part of the workload stays a small share of a pass.
"""

from __future__ import annotations

import json
import random
import sys

import run

POOL_SEED = 20241022
POOL_SIZE = 2 * run.POOL_STRATA
POOL_NODE_CAP = 100_000


def random_pool(mods) -> list[dict]:
    rng = random.Random(POOL_SEED)
    exact_chi_la = mods["oracle"].exact_chi_la
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        order = rng.randint(4, 8)
        pairs = [(a, b) for a in range(1, order + 1) for b in range(a + 1, order + 1)]
        edges = sorted(rng.sample(pairs, rng.randint(3, min(9, len(pairs)))))
        key = (order, tuple(edges))
        if key in seen:
            continue
        seen.add(key)
        entry = {"order": order, "edges": [list(e) for e in edges]}
        res = exact_chi_la(run.pool_graph(mods, entry))
        if res.nodes <= POOL_NODE_CAP:
            pool.append({**entry, "chi": res.value, "nodes": res.nodes})
    pool.sort(key=lambda e: (e["nodes"], e["order"], e["edges"]))
    for index, entry in enumerate(pool):
        entry["index"] = index
    return pool


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.import_antimagic()
    pool = random_pool(mods)
    out = {}
    for scale, sizes in run.SIZES.items():
        out[scale] = {}
        for name in sizes:
            workload = run.make_workload(name, mods, scale, 0, {"pool": pool} if name == "oracle-corpus" else {})
            try:
                out[scale][name] = workload.record()
            finally:
                workload.close()
            if name == "oracle-corpus":
                out[scale][name]["pool"] = pool
            print(f"recorded {scale} {name}", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface: construct, verify, sweep, oracle.

Exit codes: 0 success, 1 verification failure, 2 input/parameter error.
Commands raise ``AntimagicError`` or ``OSError`` on bad input, and ``main``
alone turns either into one ``error: …`` line on stderr and exit 2.
All outputs are byte-stable across runs for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .errors import AntimagicError, BijectionError, UseSpecialCase
from .graph import components
from .labeling import chi_la_lower_bound, is_local_antimagic
from .oracle import exact_chi_la, find_labeling
from .schemes import EVEN, ODD, build_matrix, check_identities, scheme_m
from .serialize import (
    dot,
    dumps,
    graph_doc,
    graph_from_doc,
    json_int,
    labeling_doc,
    labeling_from_doc,
    matrix_csv,
    matrix_doc,
)
from .sweep import ALL_FAMILIES, csv_text, sweep
from .transforms import (
    block_merge,
    chunk_blocks,
    connecting_swaps,
    from_matrix,
    group_components,
    merge_all_x,
    merge_v_blocks,
    special_labeled,
    split_x,
)

FAMILIES = (
    "matrix-even",
    "matrix-odd",
    "kP2-join",
    "block-merge",
    "split-G",
    "J1",
    "J2",
    "H-group",
    "delete-add",
    "special-2p2o2",
)


def int_list(text: str) -> tuple[int, ...]:
    """Integers separated by commas or plus signs, e.g. ``2,4`` or ``2+4``."""
    return tuple(int(part) for part in text.replace("+", ",").split(",") if part)


def at_least_one(text: str) -> int:
    """An integer of at least 1; anything else is bad input (exit 2)."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _build_family(args) -> tuple:
    """Returns (labeled_graph, matrix_or_None)."""
    parity = args.parity
    if args.family == "special-2p2o2":
        return special_labeled(), None
    if args.family == "matrix-even" or (args.family == "matrix-odd"):
        parity = EVEN if args.family == "matrix-even" else ODD
    try:
        mx = build_matrix(parity, args.n, args.k)
    except UseSpecialCase:
        if args.family == "kP2-join":
            return special_labeled(), None
        raise AntimagicError("even parity with n = k = 1 is 2P_2 ∨ O_2, which has no label matrix; "
                             "pass --family special-2p2o2 for its labeling") from None
    base = from_matrix(mx)
    if args.family in ("matrix-even", "matrix-odd"):
        return base, mx
    if args.family == "kP2-join":
        return merge_all_x(base), mx
    if args.family in ("block-merge", "split-G", "delete-add") and args.k != args.r * args.s:
        raise AntimagicError(f"k = r*s required: --k {args.k} != --r {args.r} times --s {args.s}")
    if args.family == "block-merge":
        return block_merge(base, args.r, args.s), mx
    if args.family == "split-G":
        return split_x(block_merge(base, args.r, args.s)), mx
    if args.family == "delete-add":
        return connecting_swaps(block_merge(base, args.r, args.s)), mx
    pairs = block_merge(base, args.k, 1)
    if args.family == "J1":
        return merge_v_blocks(pairs, chunk_blocks(pairs, args.block_size)), mx
    if args.family == "J2":
        return merge_v_blocks(split_x(pairs), chunk_blocks(pairs, args.block_size)), mx
    if args.family == "H-group":
        if not args.ks:
            raise AntimagicError("H-group requires --ks, e.g. --ks 2,4")
        return group_components(pairs, args.ks), mx
    raise AntimagicError(f"unknown family {args.family!r}")


def cmd_construct(args) -> int:
    lg, mx = _build_family(args)
    files = {
        "graph.json": dumps(graph_doc(lg.graph)),
        "labeling.json": dumps(labeling_doc(lg.labeling)),
        "graph.dot": dot(lg.labeling),
        "provenance.json": dumps({"provenance": lg.provenance}),
    }
    if mx is not None:
        files["matrix.csv"] = matrix_csv(mx)
        files["matrix.json"] = dumps(matrix_doc(mx))
    colors = sorted(lg.colors)
    ok, bad = is_local_antimagic(lg.labeling)
    report = {
        "family": args.family,
        "order": lg.graph.order,
        "size": lg.graph.size,
        "components": len(components(lg.graph)),
        "colors": colors,
        "local_antimagic": ok,
    }
    files["report.json"] = dumps(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    print(f"{args.family}: order {lg.graph.order}, size {lg.graph.size}, colors {colors}")
    return 0


def _load_doc(path: str) -> dict:
    """The JSON object stored at ``path``.  A file that cannot be opened
    raises ``OSError``; any other content raises ``AntimagicError``."""
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise AntimagicError(exc) from exc
    if not isinstance(doc, dict):
        raise AntimagicError("expected a JSON object")
    return doc


def cmd_verify(args) -> int:
    doc = _load_doc(args.input)
    if "rows" in doc:
        return _verify_matrix(doc)
    if "labels" not in doc:
        raise AntimagicError("document has neither labels nor matrix rows")
    try:
        labeling = labeling_from_doc(doc)
    except BijectionError as exc:
        print(f"verification failed: bijection: {exc}")
        return 1
    print("bijection: ok")
    ok, bad = is_local_antimagic(labeling)
    print(f"local-antimagic: {'ok' if ok else f'{len(bad)} violations'}")
    colors = sorted(labeling.coloring.color_set)
    print(f"colors: {colors}")
    failed = not ok
    if args.expect_colors:
        expected = sorted(set(args.expect_colors))
        match = colors == expected
        print(f"color-set: {'ok' if match else f'expected {expected}'}")
        failed = failed or not match
    return 1 if failed else 0


def _verify_matrix(doc) -> int:
    """Compare a matrix document with the closed forms.  The document's
    shape is checked against (2m+1) x 2k before anything is built, so
    the work stays in proportion to the document's own size."""
    try:
        parity, n, k = doc["parity"], json_int(doc["n"], "n"), json_int(doc["k"], "k")
        m = scheme_m(parity, n, k)
        rows = doc["rows"]
        stored = {row["row"]: tuple(json_int(e, "matrix entry") for e in row["entries"]) for row in rows}
    except (KeyError, TypeError) as exc:
        raise AntimagicError(f"malformed matrix document: {exc}") from exc
    if len(rows) != 2 * m + 1 or any(len(entries) != 2 * k for entries in stored.values()):
        print(f"verification failed: matrix shape differs from {2 * m + 1} x {2 * k}")
        return 1
    mx = build_matrix(parity, n, k)
    if stored != dict(mx.named_rows()):
        print("verification failed: matrix entries differ from the closed forms")
        return 1
    report = check_identities(mx)
    for failure in report.failures:
        print(f"verification failed: {failure}")
    print("matrix identities: " + ("ok" if report.ok else "failed"))
    return 0 if report.ok else 1


def cmd_sweep(args) -> int:
    families = tuple(args.families.split(",")) if args.families else ALL_FAMILIES
    unknown = set(families) - set(ALL_FAMILIES)
    if unknown:
        raise AntimagicError(f"unknown families {sorted(unknown)}")
    # the output is opened first, so an unwritable path fails before the grid runs
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        rows = list(sweep(args.n_max, args.k_max, families, jobs=args.jobs))
        out.write(csv_text(rows))
    failed = sum(1 for row in rows if not row.ok)
    print(f"# {len(rows)} instances, {failed} failures", file=sys.stderr)
    return 1 if failed else 0


def cmd_oracle(args) -> int:
    doc = _load_doc(args.input)
    g = graph_from_doc(doc.get("graph", doc))
    target_colors = set(args.target_colors) if args.target_colors else None
    if args.mode == "chi-la":
        res = exact_chi_la(g, cap=args.cap)
        result = res.value if res.value is not None else "no labeling exists"
    elif args.mode == "certify-2":
        res = find_labeling(g, target_c=2, cap=args.cap)
        result = res.labeling is None
    else:
        res = find_labeling(
            g, target_colors=target_colors, target_c=args.target_c,
            mode=("heuristic" if args.mode == "heuristic" else "exact"),
            seed=args.seed, cap=args.cap,
        )
        if res.labeling is None:
            result = "none" if args.mode == "find" else "not found"
        else:
            result = sorted(res.labeling.coloring.color_set)
            if args.save:
                Path(args.save).write_text(dumps(labeling_doc(res.labeling)))
    report = {
        "instance": Path(args.input).name,
        "mode": args.mode,
        "result": result,
        "lower_bound": list(chi_la_lower_bound(g)),
        "nodes_expanded": res.nodes,
        "wall_time": round(res.seconds, 6),
    }
    print(dumps(report), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="antimagic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family instance and write its files")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--parity", choices=(EVEN, ODD), default=EVEN)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--ks", type=int_list, default="", help="group sizes for H-group, e.g. 2,4")
    p.add_argument("--block-size", type=int, default=2, help="J-family block size")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a labeling (or matrix) document")
    p.add_argument("input")
    p.add_argument("--expect-colors", type=int_list, default="")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run the family grid and emit a CSV summary")
    p.add_argument("--n-max", type=at_least_one, default=6)
    p.add_argument("--k-max", type=at_least_one, default=6)
    p.add_argument("--families", default="", help=f"comma list from {','.join(ALL_FAMILIES)}")
    p.add_argument("--jobs", type=at_least_one, default=1)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="exact or heuristic search on a graph document")
    p.add_argument("input")
    p.add_argument("--mode", choices=("chi-la", "find", "heuristic", "certify-2"), default="chi-la")
    p.add_argument("--target-c", type=int, default=None)
    p.add_argument("--target-colors", type=int_list, default="")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", default="", help="write a found labeling here")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AntimagicError, OSError) as exc:  # bad input, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

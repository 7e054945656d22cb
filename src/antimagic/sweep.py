"""Grid verification of every constructed family across a parameter range.

One row per instance: the family, its parameters, the induced colors,
and whether the labeling verified against the closed-form expectation.
The whole grid is pure, so rows can be computed in parallel; output
order is canonical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import is_bipartite_equal_parts
from .labeling import chi_la_lower_bound, is_local_antimagic
from .schemes import EVEN, ODD, SPECIAL_COLOR_SET, build_matrix, check_identities, u_color, v_color
from .transforms import (
    LabeledGraph,
    block_merge,
    chunk_blocks,
    expected_colors_block,
    expected_colors_j,
    expected_colors_split,
    from_matrix,
    group_components,
    merge_all_x,
    merge_v_blocks,
    special_labeled,
    split_x,
    theorem_certificate,
)

ALL_FAMILIES = ("matrix", "join", "merge-all", "block", "split", "J1", "J2", "H")


@dataclass(frozen=True)
class SweepRow:
    family: str
    parity: str
    params: str
    colors: tuple[int, ...]
    ok: bool
    detail: str = ""

    def csv(self) -> str:
        colors = " ".join(str(c) for c in self.colors)
        return f"{self.family},{self.parity},{self.params},{colors},{'pass' if self.ok else 'FAIL'},{self.detail}"


def csv_text(rows: Iterable[SweepRow]) -> str:
    """The CSV ``antimagic sweep`` writes: a header line, then one line per row."""
    return "\n".join(["family,parity,params,colors,status,detail"] + [row.csv() for row in rows]) + "\n"


def compositions_min2(k: int) -> Iterator[tuple[int, ...]]:
    """Ordered ways of writing k as parts >= 2 (at least two parts)."""

    def rec(rest: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for first in range(2, rest + 1):
            for tail in rec(rest - first):
                yield (first,) + tail

    for comp in rec(k):
        if len(comp) >= 2:
            yield comp


def _colors_ok(lg: LabeledGraph, expected: set[int]) -> tuple[bool, str]:
    ok, bad = is_local_antimagic(lg.labeling)
    if not ok:
        return False, f"equal colors across {bad[0][0]}-{bad[0][1]}"
    cs = set(lg.colors)
    if cs != expected:
        return False, f"colors {sorted(cs)} != expected {sorted(expected)}"
    return True, ""


def sweep(
    n_max: int = 12, k_max: int = 12, families: tuple[str, ...] = ALL_FAMILIES, jobs: int = 1
) -> Iterator[SweepRow]:
    """Rows for every (parity, n, k) cell in canonical order.

    With ``jobs > 1`` a pool of that many worker processes, never more
    than there are cells, computes the cells; the rows and their order do
    not depend on ``jobs``.
    """
    want = frozenset(families)
    cells = [
        (parity, n, k, want) for parity in (EVEN, ODD) for n in range(1, n_max + 1) for k in range(1, k_max + 1)
    ]
    jobs = min(jobs, len(cells))
    if jobs <= 1:
        for cell in cells:
            yield from _sweep_cell(*cell)
        return
    from multiprocessing import Pool

    with Pool(processes=jobs) as pool:
        for rows in pool.map(_cell_rows, cells):
            yield from rows


def _cell_rows(cell: tuple) -> list[SweepRow]:
    return list(_sweep_cell(*cell))


def _sweep_cell(parity: str, n: int, k: int, want: frozenset[str]) -> Iterator[SweepRow]:
    base_params = f"n={n} k={k}"
    if parity == EVEN and (n, k) == (1, 1):
        if "merge-all" in want:
            lg = special_labeled()
            ok, detail = _colors_ok(lg, set(SPECIAL_COLOR_SET))
            yield SweepRow("merge-all", parity, base_params + " (bespoke)", tuple(sorted(lg.colors)), ok, detail)
        return

    mx = build_matrix(parity, n, k)
    if "matrix" in want:
        report = check_identities(mx)
        yield SweepRow("matrix", parity, base_params, (), report.ok, "; ".join(report.failures))

    base = from_matrix(mx)
    if "join" in want:
        uc, vc = u_color(parity, n, k), v_color(parity, n, k)
        coloring = base.coloring
        bad = [w for w, c in zip(coloring.names, coloring.sums)
               if (w.role == "u" and c != uc) or (w.role == "v" and c != vc)]
        yield SweepRow(
            "join", parity, base_params, tuple(sorted(base.colors)), not bad,
            f"{len(bad)} vertices off the closed form" if bad else "",
        )

    if "merge-all" in want:
        lg = merge_all_x(base)
        ok, detail = _colors_ok(lg, expected_colors_block(parity, n, k, s=k))
        yield SweepRow("merge-all", parity, base_params, tuple(sorted(lg.colors)), ok, detail)

    factorizations = [(r, k // r) for r in range(2, k + 1) if k % r == 0] if want & {"block", "split"} else []
    merged_by_s: dict[int, LabeledGraph] = {}
    for r, s in factorizations:
        params = f"{base_params} r={r} s={s}"
        lg = block_merge(base, r, s)
        merged_by_s[s] = lg
        if "block" in want:
            ok, detail = _colors_ok(lg, expected_colors_block(parity, n, k, s))
            yield SweepRow("block", parity, params, tuple(sorted(lg.colors)), ok, detail)
        if "split" in want:
            sg = split_x(lg)
            ok, detail = _colors_ok(sg, expected_colors_split(parity, n, k, s))
            if ok:  # "equal-bipartition" implies bipartite with equal parts
                bound, cert = chi_la_lower_bound(sg.graph)
                if (bound, cert) != (3, "equal-bipartition"):
                    ok, detail = False, f"lower bound {bound} via {cert}"
            yield SweepRow("split", parity, params, tuple(sorted(sg.colors)), ok, detail)

    if k < 2 or not (want & {"J1", "J2", "H"}):
        return
    pairs_graph = merged_by_s.get(1) or block_merge(base, k, 1)
    split_graph = split_x(pairs_graph) if want & {"J2", "H"} else None

    j_sizes = [s for s in range(2, k + 1) if (2 * k) % s == 0]
    for s in j_sizes:
        blocks = chunk_blocks(pairs_graph, s)
        if "J1" in want:
            lg = merge_v_blocks(pairs_graph, blocks)
            ok, detail = _colors_ok(lg, expected_colors_j(parity, n, k, s, split=False))
            yield SweepRow("J1", parity, f"{base_params} s={s}", tuple(sorted(lg.colors)), ok, detail)
        if "J2" in want:
            lg = merge_v_blocks(split_graph, blocks)
            ok, detail = _colors_ok(lg, expected_colors_j(parity, n, k, s, split=True))
            cert = theorem_certificate(lg.graph)
            if ok and cert == "unverified by theorem":
                ok, detail = False, "no structural certificate"
            yield SweepRow("J2", parity, f"{base_params} s={s}", tuple(sorted(lg.colors)), ok, f"{cert}{'; ' + detail if detail else ''}")

    if "H" in want:
        for ks in compositions_min2(k):
            params = f"{base_params} ks={'+'.join(map(str, ks))}"
            lg = group_components(pairs_graph, ks)
            ok, detail = _colors_ok(lg, expected_colors_j(parity, n, k, 2, split=False))
            yield SweepRow("H1", parity, params, tuple(sorted(lg.colors)), ok, detail)
            lg = group_components(split_graph, ks)
            ok, detail = _colors_ok(lg, expected_colors_j(parity, n, k, 2, split=True))
            if ok and all(ka % 2 == 0 for ka in ks) and not is_bipartite_equal_parts(lg.graph):
                ok, detail = False, "even groups should be bipartite with equal parts"
            yield SweepRow("H2", parity, params, tuple(sorted(lg.colors)), ok, detail)

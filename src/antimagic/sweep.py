"""Grid verification of every constructed family across a parameter range.

One row per instance: the family, its parameters, the induced colors,
and whether the labeling verified against the closed-form expectation.
The whole grid is pure, so rows can be computed in parallel; output
order is canonical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate, groupby
from typing import Iterable, Iterator

from .errors import UseSpecialCase
from .graph import Edge, U_ROLE, V_ROLE, bipartition, component_of, components
from .labeling import chi_la_lower_bound, is_local_antimagic
from .schemes import EVEN, ODD, build_matrix, check_identities, u_color, v_color
from .transforms import (
    LabeledGraph,
    SPECIAL_COLOR_SET,
    _side_positions,
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
        return f"{self.family},{self.parity},{self.params},{_spaced(self.colors)},{'pass' if self.ok else 'FAIL'},{self.detail}"


def _spaced(values: Iterable[int]) -> str:
    """Integers separated by spaces, as one CSV field holds a color set."""
    return " ".join(map(str, values))


def csv_text(rows: Iterable[SweepRow]) -> str:
    """The CSV ``antimagic sweep`` writes: a header line, then one line per row."""
    return "\n".join(["family,parity,params,colors,status,detail"] + [row.csv() for row in rows]) + "\n"


@cache
def compositions_min2(k: int) -> tuple[tuple[int, ...], ...]:
    """Ordered ways of writing k as parts >= 2 (at least two parts), in
    lexicographic order; built once per k."""
    # after the first part comes either two or more parts or one part: the rest whole
    return tuple((first, *tail) for first in range(2, k - 1)
                 for tail in compositions_min2(k - first) + ((k - first,),))


def group_keys(ks: tuple[int, ...]) -> list[tuple[int, int]]:
    """The groups (start, ka) of the H row for ``ks``: ka components from
    component ``start`` on, numbered from 1."""
    return list(zip(accumulate(ks, initial=1), ks))


def _verdict(bad: Edge | None, colors: frozenset[int], expected: set[int]) -> tuple[bool, str]:
    """The one color rule, given the smallest edge ``bad`` that joins two
    equal colors, if any, and the color set."""
    if bad is not None:
        return False, f"equal colors across {bad[0]}-{bad[1]}"
    if colors != expected:
        return False, f"colors {_spaced(sorted(colors))} != expected {_spaced(sorted(expected))}"
    return True, ""


def _colors_ok(lg: LabeledGraph, expected: set[int]) -> tuple[bool, str]:
    ok, bad = is_local_antimagic(lg.labeling)
    return _verdict(None if ok else bad[0], lg.colors, expected)


class _GroupTable:
    """The H rows of one cell on one input, written from per-group verdicts.

    ``group_components`` merges side vertices only inside a group, so H(ks)
    is the disjoint union of one piece per group (start, ka), the same
    labeled piece in every composition holding it; a verdict read off one
    whole H graph holds for its group in all of them; each build is read once.
    """

    def __init__(self, lg: LabeledGraph, expected: set[int]):
        self.lg, self.expected = lg, expected
        # position in lg's graph -> its component, read once; component c - 1 holds u_c, its smallest position
        self.component = component_of(lg.graph)
        # (start, ka) -> (its smallest violating edge or None, its colors)
        self.verdicts: dict[tuple[int, int], tuple[Edge | None, frozenset[int]]] = {}
        # (start, ka) -> whether its components are bipartite with equal parts
        self.bipartite: dict[tuple[int, int], bool] = {}

    def row(self, groups: list[tuple[int, int]], check_bipartite: bool) -> tuple[tuple[int, ...], bool, str]:
        """Colors, verdict and detail of the H row whose groups are
        ``groups`` (``group_keys(ks)``), as ``group_components`` then
        ``_colors_ok`` (then ``is_bipartite_equal_parts`` if
        ``check_bipartite``) give them."""
        verdicts = self.verdicts
        known = self.bipartite if check_bipartite else verdicts
        if not all(map(known.__contains__, groups)):
            plan = self._plan(groups, known)
            self._read(group_components(self.lg, [ka for _, ka in plan]), plan, check_bipartite)
        entries = [verdicts[key] for key in groups]
        colors = frozenset().union(*[e[1] for e in entries])
        ok, detail = _verdict(min([e[0] for e in entries if e[0]], default=None), colors, self.expected)
        if ok and check_bipartite and not all(map(self.bipartite.__getitem__, groups)):
            ok, detail = False, "even groups should be bipartite with equal parts"
        return tuple(sorted(colors)), ok, detail

    # retiling the gaps reads groups that later rows need: 892 group_components builds on sweep(2, 12), not 1,032
    def _plan(self, groups: list[tuple[int, int]], known) -> list[tuple[int, int]]:
        """The composition to build for a row of ``groups``: the row's
        groups missing from ``known``, with each stretch between them
        retiled from the left by the shortest parts that are missing too."""
        plan: list[tuple[int, int]] = []
        for own, run in groupby(groups, lambda key: key not in known):
            run = list(run)
            if own:
                plan += run
                continue
            s, end = run[0][0], sum(run[-1])
            while s < end:  # a part leaves 0 or at least 2 behind it
                ka = next((ka for ka in range(2, end - s + 1) if end - s - ka != 1 and (s, ka) not in known),
                          3 if end - s == 3 else 2)
                plan.append((s, ka))
                s += ka
        return plan

    def _read(self, built: LabeledGraph, groups: list[tuple[int, int]], bipartite: bool) -> None:
        """Record each group's smallest violating edge and colors in
        ``built``, the H graph of ``groups``, and with ``bipartite`` whether
        its components have equal sides.  ``built`` was merged from the
        table's graph, so one array gives each of its positions the group
        of the positions merged into it, and every check reads that array."""
        owner = [t for t, (_, ka) in enumerate(groups) for _ in range(ka)]  # component index -> the index of its group
        group_at = [0] * built.graph.order  # position in built -> the index of its group
        for at, c in zip(built.graph.merged_from[1], self.component):
            group_at[at] = owner[c]
        colors: list[set[int]] = [set() for _ in groups]
        for t, c in set(zip(group_at, built.coloring.sums)):
            colors[t].add(c)
        bad: list = [None] * len(groups)
        for e in is_local_antimagic(built.labeling)[1]:  # sorted by id, so a group's first is its smallest
            t = group_at[built.graph.index[e[0]]]
            bad[t] = bad[t] or e
        for key, e, cs in zip(groups, bad, colors):
            self.verdicts.setdefault(key, (e, frozenset(cs)))
        if bipartite:
            unequal = {group_at[comp[0]] for comp, p in zip(components(built.graph), bipartition(built.graph))
                       if p is None or len(p[0]) != len(p[1])}
            for t, key in enumerate(groups):
                self.bipartite[key] = t not in unequal


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

    def checked(family: str, params: str, lg: LabeledGraph, expected: set[int]) -> SweepRow:
        return SweepRow(family, parity, params, tuple(sorted(lg.colors)), *_colors_ok(lg, expected))

    try:
        mx = build_matrix(parity, n, k)
    except UseSpecialCase:
        if "merge-all" in want:
            yield checked("merge-all", base_params + " (bespoke)", special_labeled(), set(SPECIAL_COLOR_SET))
        return

    if "matrix" in want:
        report = check_identities(mx)
        yield SweepRow("matrix", parity, base_params, (), report.ok, "; ".join(report.failures))

    base = from_matrix(mx)
    if "join" in want:
        uc, vc, sums = u_color(parity, n, k), v_color(parity, n, k), base.coloring.sums
        off = (sum(sums[p] != uc for p in _side_positions(k, U_ROLE))
               + sum(sums[p] != vc for p in _side_positions(k, V_ROLE)))
        yield SweepRow("join", parity, base_params, tuple(sorted(base.colors)), not off,
                       f"{off} vertices off the closed form" if off else "")

    if "merge-all" in want:
        yield checked("merge-all", base_params, merge_all_x(base), expected_colors_block(parity, n, k, s=k))
    if k < 2:
        return

    # the s = 1 graphs, k(2P_2 ∨ O_m) and its split: each is built once, in the first row that reads it
    pairs_graph = cache(lambda: block_merge(base, k, 1))
    split_graph = cache(lambda: split_x(pairs_graph()))
    factorizations = [(r, k // r) for r in range(2, k + 1) if k % r == 0] if want & {"block", "split"} else []
    for r, s in factorizations:
        params = f"{base_params} r={r} s={s}"
        lg = pairs_graph() if s == 1 else block_merge(base, r, s)
        if "block" in want:
            yield checked("block", params, lg, expected_colors_block(parity, n, k, s))
        if "split" in want:
            sg = split_graph() if s == 1 else split_x(lg)
            row = checked("split", params, sg, expected_colors_split(parity, n, k, s))
            if row.ok:  # "equal-bipartition" implies bipartite with equal parts
                bound, cert = chi_la_lower_bound(sg.graph)
                if (bound, cert) != (3, "equal-bipartition"):
                    row = replace(row, ok=False, detail=f"lower bound {bound} via {cert}")
            yield row

    j_sizes = [s for s in range(2, k + 1) if (2 * k) % s == 0] if want & {"J1", "J2"} else []
    for s in j_sizes:
        blocks = chunk_blocks(pairs_graph(), s)
        if "J1" in want:
            yield checked("J1", f"{base_params} s={s}", merge_v_blocks(pairs_graph(), blocks),
                          expected_colors_j(parity, n, k, s, split=False))
        if "J2" in want:
            lg = merge_v_blocks(split_graph(), blocks)
            ok, detail = _colors_ok(lg, expected_colors_j(parity, n, k, s, split=True))
            cert = theorem_certificate(lg.graph)
            if ok and cert == "unverified by theorem":
                ok, detail = False, "no structural certificate"
            yield SweepRow("J2", parity, f"{base_params} s={s}", tuple(sorted(lg.colors)), ok, f"{cert}{'; ' + detail if detail else ''}")

    if "H" in want:
        h1 = _GroupTable(pairs_graph(), expected_colors_j(parity, n, k, 2, split=False))
        h2 = _GroupTable(split_graph(), expected_colors_j(parity, n, k, 2, split=True))
        for ks in compositions_min2(k):
            params = f"{base_params} ks={'+'.join(map(str, ks))}"
            groups = group_keys(ks)
            yield SweepRow("H1", parity, params, *h1.row(groups, False))
            yield SweepRow("H2", parity, params, *h2.row(groups, all(ka % 2 == 0 for ka in ks)))

"""Grid verification of every constructed family across a parameter range.

One row per instance: the family, its parameters, the induced colors,
and whether the labeling verified against the closed-form expectation.
The whole grid is pure, so rows can be computed in parallel; output
order is canonical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate, chain
from typing import Iterable, Iterator

from .errors import UseSpecialCase
from .graph import Edge, U_ROLE, V_ROLE, bipartition, component_of, components, is_bipartite_equal_parts
from .labeling import chi_la_lower_bound, is_local_antimagic
from .schemes import EVEN, ODD, build_matrix, check_identities, u_color, v_color
from .transforms import (
    LabeledGraph,
    SPECIAL_COLOR_SET,
    _chain_pairs,
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


def _built_row(h: LabeledGraph, expected: set[int], check_bipartite: bool) -> tuple[tuple[int, ...], bool, str]:
    """Colors, verdict and detail of the H row whose graph is ``h``, read
    off the whole graph: ``_colors_ok``, then, if ``check_bipartite``,
    ``is_bipartite_equal_parts``."""
    ok, detail = _colors_ok(h, expected)
    if ok and check_bipartite and not is_bipartite_equal_parts(h.graph):
        ok, detail = False, "even groups should be bipartite with equal parts"
    return tuple(sorted(h.colors)), ok, detail


def _memo(table: dict, compute, key: tuple):
    """``table[key]``, computed as ``compute(*key)`` on first use."""
    if key not in table:
        table[key] = compute(*key)
    return table[key]


class _GroupTable:
    """The H rows of one cell on one input, written from per-group verdicts.

    ``group_components`` merges side vertices only inside a group, so H(ks)
    is the disjoint union of one piece per group (start, ka), the same
    labeled piece in every composition holding it.  Each group's verdict is
    computed once from the input's own sums, edges, components and
    2-colourings, with no graph built: a row builds ``group_components``
    only when one of its groups fails, and the first row asked is checked
    against one build, with each bipartite check in ``audit_checks``.
    """

    def __init__(self, lg: LabeledGraph, expected: set[int], audit_checks: tuple[bool, ...] = (False, True)):
        self.lg, self.expected, self.audit_checks = lg, expected, audit_checks
        g = lg.graph
        self.sums, self.neighbors = lg.coloring.sums, g.neighbors
        # position -> its component; component c - 1 holds u_c, its smallest position
        self.component = component_of(g)
        self.comps, self.parts = components(g), bipartition(g)
        self.odd = set(chain.from_iterable(p[1] for p in self.parts if p))  # the second side of each 2-colouring
        self.violations = [(a, b) for a, b in g.ends if self.sums[a] == self.sums[b]]  # edges joining equal sums
        # the layout the verdicts read: k components, component c - 1 holding columns c and 2k + 1 - c; with it, a
        # group's classes lie in its own components, two members of a class in two of them
        k = lg.k
        self.layout = len(self.comps) == k and all(
            self.component[p] == min(i, 2 * k - 1 - i) for i, p in enumerate(_side_positions(k, lg.side)))
        # (start, ka) -> whether every check passed (else a row holding it builds), its colors
        self.verdicts: dict[tuple[int, int], tuple[bool, frozenset[int]]] = {}
        # (start, ka) -> whether its piece is bipartite with equal parts
        self.bipartite: dict[tuple[int, int], bool] = {}
        self.audited = False

    def row(self, groups: list[tuple[int, int]], check_bipartite: bool) -> tuple[tuple[int, ...], bool, str]:
        """Colors, verdict and detail of the H row whose groups are
        ``groups`` (``group_keys(ks)``), as ``group_components`` then
        ``_built_row`` give them.  The first row asked is also built, and
        fails if the groups' verdicts disagree with the build's, under each
        bipartite check in ``audit_checks``."""
        got = self._row(groups, check_bipartite)
        if not self.audited:
            self.audited = True
            built = group_components(self.lg, [ka for _, ka in groups])
            if any(self._row(groups, check) != _built_row(built, self.expected, check) for check in self.audit_checks):
                return got[0], False, "group verdicts disagree with a group_components build"
        return got

    def _row(self, groups: list[tuple[int, int]], check_bipartite: bool) -> tuple[tuple[int, ...], bool, str]:
        verdicts = [_memo(self.verdicts, self._group, key) for key in groups]
        if not all(clean for clean, _ in verdicts):  # a failing row names its smallest violating edge by id
            return _built_row(group_components(self.lg, [ka for _, ka in groups]), self.expected, check_bipartite)
        colors = frozenset().union(*[cs for _, cs in verdicts])
        ok, detail = _verdict(None, colors, self.expected)
        if ok and check_bipartite and not all(_memo(self.bipartite, self._bipartite, key) for key in groups):
            ok, detail = False, "even groups should be bipartite with equal parts"
        return tuple(sorted(colors)), ok, detail

    def _group(self, start: int, ka: int) -> tuple[bool, frozenset[int]]:
        """The verdict of group (start, ka) from the input's own data.  A
        merge keeps every edge and its label, so an edge with no end in a
        class keeps both of its sums: only the touched edges, those at class
        members, are mapped and compared.  Each class is checked on the far
        ends of its touched edges: they are clean when no two map to one
        vertex (two edges onto one pair, or two adjacent members: a loop)
        and none has the class's sum.  Without the layout every group fails."""
        if not self.layout:
            return False, frozenset()
        sums, nbrs = self.sums, self.neighbors
        pairs = _chain_pairs(self.lg.k, self.lg.side, start, ka)
        vals = list(sums)  # the sums after the merge: each member at its class's sum
        into = {}  # class member -> its class's first member, the vertex it becomes
        for p, q in pairs:
            vals[p] = vals[q] = sums[p] + sums[q]
            into[p] = into[q] = p
        clean = True
        for p, q in pairs:
            around = nbrs[p] + nbrs[q]
            clean = (clean and len(set(map(into.get, around, around))) == len(around)
                     and vals[p] not in map(vals.__getitem__, around))
        mine = range(start - 1, start - 1 + ka)  # the group's components
        # untouched edges keep their sums: the input's own violations among them
        clean = clean and not any(self.component[a] in mine and a not in into and b not in into
                                  for a, b in self.violations)
        return clean, frozenset(map(vals.__getitem__, chain.from_iterable(self.comps[c] for c in mine)))

    def _bipartite(self, start: int, ka: int) -> bool:
        """Whether the piece of group (start, ka) is bipartite with equal
        parts, from the 2-colourings of its components.  A 2-colouring of
        the piece pulls back to one of each component, the input's own up
        to a flip, with a class's members on one side; such flips push
        forward to a 2-colouring of the piece.  A class's two members then
        count as one vertex of their side."""
        comp, odd, parts = self.component, self.odd, self.parts
        if not all(parts[c] for c in range(start - 1, start - 1 + ka)):
            return False
        pairs = _chain_pairs(self.lg.k, self.lg.side, start, ka)
        flip = {comp[pairs[0][0]]: 0}  # component -> whether its sides swap; each class reaches the next component
        for p, q in pairs:
            side = (p in odd) ^ flip[comp[p]]  # the side of p's class
            if flip.setdefault(comp[q], side ^ (q in odd)) != side ^ (q in odd):
                return False
        count = [0, 0]
        for c, f in flip.items():
            count[f] += len(parts[c][0])
            count[1 - f] += len(parts[c][1])
        for p, _ in pairs:
            count[(p in odd) ^ flip[comp[p]]] -= 1
        return count[0] == count[1]


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

    if "H" in want and compositions_min2(k):
        # no H1 row asks the bipartite check, so H1's audit leaves it out: no walk of the built graph
        h1 = _GroupTable(pairs_graph(), expected_colors_j(parity, n, k, 2, split=False), audit_checks=(False,))
        h2 = _GroupTable(split_graph(), expected_colors_j(parity, n, k, 2, split=True))
        for ks in compositions_min2(k):
            params = f"{base_params} ks={'+'.join(map(str, ks))}"
            groups = group_keys(ks)
            yield SweepRow("H1", parity, params, *h1.row(groups, False))
            yield SweepRow("H2", parity, params, *h2.row(groups, all(ka % 2 == 0 for ka in ks)))

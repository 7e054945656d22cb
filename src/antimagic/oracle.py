"""Exact desk-scale search over edge-label bijections.

Ground truth for tiny graphs: the minimum color count over all local
antimagic labelings, labelings hitting a prescribed color set, and
certified impossibility of 2-colorings.  Backtracking assigns labels
edge by edge (one component after another, each walked breadth first
from a highest-degree vertex, so vertices finish early) and prunes on
finished-vertex ties, color budgets, forced last labels and symmetry
(twin and isomorphic-component swaps); the pruning keeps the first
(lex-least) labeling found.  The minimum color count is one
branch-and-bound run that lowers its color cap at each labeling it
finds, trying labels middle-out.  A query builds the graph's tables
once, in one ``_Search``.  Exact-mode results are deterministic.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .errors import AntimagicError
from .graph import Graph, components
from .labeling import EdgeLabeling, chi_la_lower_bound

DEFAULT_EDGE_CAP = 12
HEURISTIC_RESTARTS = 200
HEURISTIC_ITERS = 2000  # label swaps per restart


def _check_cap(g: Graph, cap: int | None) -> None:
    """Refuse graphs with more edges than ``cap``, or than ``DEFAULT_EDGE_CAP`` when it is None."""
    if cap is None:
        cap = DEFAULT_EDGE_CAP
    if g.size > cap:
        raise AntimagicError(f"graph has {g.size} edges, over the cap {cap}")


def _edge_order(g: Graph) -> list[tuple[int, int]]:
    """The search's edge order, as position pairs (on a ``Graph.build`` input, as every
    document read is, positions order as the sorted ids do):
    edges grouped by their earlier-ranked end, each group in pair order.  The vertices
    are ranked one component after another, each breadth first from its first vertex
    in a stable descending-degree order, visiting neighbours in that order too, so a
    component's vertices finish before the next component starts."""
    nbrs = g.neighbors
    by_degree = sorted(range(g.order), key=lambda w: -len(nbrs[w]))  # stable: ties stay in position order
    ordered: list[list[int]] = [[] for _ in nbrs]  # each vertex's neighbours in by_degree order
    for w in by_degree:
        for nb in nbrs[w]:
            ordered[nb].append(w)
    rank = [-1] * g.order
    ranked = 0
    for seed in by_degree:
        if rank[seed] < 0:
            rank[seed] = ranked
            comp = [seed]
            for w in comp:  # breadth first: the loop reaches the vertices it appends
                for nb in ordered[w]:
                    if rank[nb] < 0:
                        rank[nb] = ranked + len(comp)
                        comp.append(nb)
            ranked += len(comp)
    return sorted(g.ends, key=lambda e: (min(rank[e[0]], rank[e[1]]), e))


def _isomorphism(nbrs: list[list[int]], c1: list[int], c2: list[int]) -> dict[int, int] | None:
    """A map of component ``c1`` onto component ``c2`` that keeps adjacency, or None."""
    order = [c1[0]]  # c1 breadth first: every vertex after the first has a neighbour before it
    for w in order:
        order += [nb for nb in nbrs[w] if nb not in order]
    phi: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        w = order[i]
        mapped = {phi[nb] for nb in nbrs[w] if nb in phi}  # the images of w's mapped neighbours
        for img in nbrs[next(iter(mapped))] if mapped else c2:
            if img not in used and len(nbrs[img]) == len(nbrs[w]) and used.intersection(nbrs[img]) == mapped:
                phi[w] = img
                used.add(img)
                if extend(i + 1):
                    return True
                del phi[w]
                used.discard(img)
        return False

    return phi if extend(0) else None


def _symmetries(g: Graph) -> list[dict[int, int]]:
    """Automorphisms of g, each as the vertices it moves mapped to their images:
    a transposition of each pair of consecutive twins, and a swap of each pair of
    consecutive isomorphic components (one-vertex components aside: they move no edge)."""
    nbrs = g.neighbors
    twins: dict[frozenset, list[int]] = {}
    for w, nbs in enumerate(nbrs):  # open twins share N(w), closed twins N[w]; the keys never clash
        if nbs:
            key = frozenset(nbs)
            twins.setdefault(key, []).append(w)
            twins.setdefault(key | {w}, []).append(w)
    sigmas = [{a: b, b: a} for members in twins.values() if len(members) > 1 for a, b in zip(members, members[1:])]
    alike: dict[tuple[int, ...], list[list[int]]] = {}
    for comp in components(g):
        if len(comp) > 1:
            alike.setdefault(tuple(sorted(len(nbrs[w]) for w in comp)), []).append(comp)
    for comps in alike.values():
        for c1, c2 in zip(comps, comps[1:]):
            phi = _isomorphism(nbrs, c1, c2)
            if phi:  # phi on c1 and its inverse on c2
                sigmas.append({**phi, **{img: w for w, img in phi.items()}})
    return sigmas


class _Search:
    """Backtracking over one graph's edge-label bijections; ``run`` is the
    one entry, for any number of runs.  The search is one recursive
    closure inside ``run`` that reads the tables as locals; it restores
    ``sums``, ``free`` and ``color_count`` on every exit, found or not, so
    each run starts from the tables as built.

    ``closes[pos]`` pairs each vertex whose last edge sits at ``pos``
    with its neighbours that finish first (the search finishes an edge's
    smaller end first); ``less[pos]`` lists earlier positions whose label
    must be smaller: for each of ``_symmetries(g)``, the first position p
    whose edge it moves sits in ``less`` of its image's position, so
    label(p) < label(sigma(e_p)), which the lex-least labeling of every
    orbit meets (symmetry breaking, see README).  ``at[t]`` is
    the search position of edge t, ``g.ends[t]``.  ``n_colors`` asks for
    exactly that many colors: it caps the colors while searching and is
    required in full at the leaf.  A first-hit run tries labels in
    ascending order; a minimising run tries them in ``middle_out`` order,
    by distance from (q+1)/2, the lower label first on a tie.
    """

    def __init__(self, g: Graph):
        self.q = g.size
        nbrs = g.neighbors
        self.edge_ends = _edge_order(g)
        rank = [0] * g.order  # finishing order: 2 * the position of a vertex's last edge, + 1 for its larger end
        for pos, (a, b) in enumerate(self.edge_ends):
            rank[a], rank[b] = 2 * pos, 2 * pos + 1
        self.closes: list[list[tuple[int, list[int]]]] = [[] for _ in self.edge_ends]
        self.less: list[list[int]] = [[] for _ in self.edge_ends]
        for w, nbs in enumerate(nbrs):
            if nbs:  # in id order, so an edge's smaller end closes first
                self.closes[rank[w] >> 1].append((w, [nb for nb in nbs if rank[nb] < rank[w]]))
        position = {ends: pos for pos, ends in enumerate(self.edge_ends)}
        self.at = [position[e] for e in g.ends]
        for sigma in _symmetries(g):
            for pos, (x, y) in enumerate(self.edge_ends):
                a, b = sigma.get(x, x), sigma.get(y, y)
                image = (a, b) if a < b else (b, a)
                if image != (x, y):  # the first edge sigma moves: its label is below its image's
                    self.less[position[image]].append(pos)  # once: no two symmetries share this pair
                    break
        self.sums = [0] * g.order
        isolated = nbrs.count([])
        self.color_count: dict[int, int] = {0: isolated} if isolated else {}
        self.free = [True] * (self.q + 1)
        self.assignment: list[int] = [0] * self.q
        self.middle_out = sorted(range(1, self.q + 1), key=lambda lab: abs(2 * lab - self.q - 1))  # stable: ties low first

    def run(
        self, target_colors: frozenset[int] | None, n_colors: int | None, least: int | None = None
    ) -> tuple[tuple[int, ...] | None, int]:
        """(the labels, aligned with ``g.ends``, of the first labeling meeting
        the constraints or None, nodes expanded).  With ``least``, the run
        minimises instead: ``n_colors`` is a cap, each leaf lowers it below
        its own color count, and the last labeling found is returned; the
        run stops once the cap falls below ``least``."""
        q, edge_ends, closes, less, at = self.q, self.edge_ends, self.closes, self.less, self.at
        sums, free, assignment, color_count = self.sums, self.free, self.assignment, self.color_count
        middle_out = self.middle_out
        nodes = 0
        best = None

        def search(pos: int) -> tuple[int, ...] | None:
            nonlocal nodes, n_colors, best
            if pos == q:
                if target_colors is not None and color_count.keys() != target_colors:
                    return None
                if least is not None:  # at most n_colors: record the labeling and ask for fewer colors
                    best = tuple(map(assignment.__getitem__, at))
                    n_colors = len(color_count) - 1
                    return best if n_colors < least else None
                if n_colors is not None and len(color_count) != n_colors:
                    return None
                return tuple(map(assignment.__getitem__, at))
            smaller = less[pos]
            start = max(map(assignment.__getitem__, smaller)) + 1 if smaller else 1
            if least is None:
                labs = itertools.compress(range(start, q + 1), free[start:])
            else:
                labs = [lab for lab in middle_out if lab >= start and free[lab]]
            closing = closes[pos]
            if closing:
                allowed = target_colors
                if allowed is None and n_colors is not None and len(color_count) >= n_colors:
                    allowed = color_count  # the budget is full: closing vertices reuse a color
                if allowed is not None:
                    for w, _ in closing:  # the closing vertex's color fixes the label
                        s = sums[w]
                        labs = [lab for lab in labs if lab + s in allowed]
            a, b = edge_ends[pos]
            for lab in labs:
                nodes += 1
                free[lab] = False
                assignment[pos] = lab
                sums[a] += lab
                sums[b] += lab
                finished = 0  # closing vertices counted in color_count, undone on the way out
                for w, earlier in closing:
                    color = sums[w]
                    for nb in earlier:
                        if sums[nb] == color:
                            break
                    else:  # no tie: w takes its color unless that would overrun the budget
                        count = color_count.get(color, 0)
                        if count or n_colors is None or len(color_count) < n_colors:
                            color_count[color] = count + 1
                            finished += 1
                            continue
                    break
                found = search(pos + 1) if finished == len(closing) else None
                for w, _ in closing[:finished]:
                    color = sums[w]
                    if color_count[color] == 1:
                        del color_count[color]
                    else:
                        color_count[color] -= 1
                sums[a] -= lab
                sums[b] -= lab
                free[lab] = True
                if found is not None:
                    return found
                if least is not None and len(color_count) > n_colors:
                    return None  # a leaf below lowered the cap under the colors placed above
            return None

        found = search(0)
        return (found if least is None else best), nodes


def _budgets(g: Graph) -> range:
    """The color counts a labeling can have: the lower bound up to |V| (one color per vertex)."""
    return range(chi_la_lower_bound(g)[0], g.order + 1)


@dataclass(frozen=True)
class ChiLaResult:
    value: int | None  # None: no local antimagic labeling exists
    nodes: int
    seconds: float


def exact_chi_la(g: Graph, cap: int | None = None) -> ChiLaResult:
    """Minimum c(f) over all local antimagic bijections, by exhaustion.

    One minimising run of ``_Search``: the color cap starts at the top of
    ``_budgets(g)`` and drops below the count of each labeling found; the
    run ends once the cap is under the lower bound or the tree is spent,
    and the value is read off the last labeling found.  None means no
    labeling exists at all; an empty budget range takes no search.  An
    edgeless graph has the empty labeling, with 1 color (every vertex
    gets color 0), or 0 when it has no vertices.
    """
    _check_cap(g, cap)
    t0 = time.perf_counter()
    budgets = _budgets(g)
    found, nodes = _Search(g).run(None, budgets[-1], least=budgets[0]) if budgets else (None, 0)
    return ChiLaResult(None if found is None else EdgeLabeling(g, found).coloring.c, nodes, time.perf_counter() - t0)


@dataclass(frozen=True)
class FindResult:
    labeling: EdgeLabeling | None
    nodes: int
    seconds: float


def find_labeling(
    g: Graph,
    target_colors: set[int] | None = None,
    target_c: int | None = None,
    mode: str = "exact",
    seed: int = 0,
    cap: int | None = None,
) -> FindResult:
    """Search for a local antimagic labeling meeting the constraints:
    the color set ``target_colors``, exactly ``target_c`` colors, or both.

    A color count outside ``_budgets(g)`` gets None at once, with 0 nodes.
    Exact mode exhausts the space (None means none exists); heuristic
    mode runs seeded random restarts with local label swaps and proves
    nothing when it fails.
    """
    if target_colors is not None and target_c is not None and len(target_colors) != target_c:
        raise AntimagicError(f"contradictory constraints: {len(target_colors)} colors vs c={target_c}")
    if mode not in ("exact", "heuristic"):
        raise AntimagicError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    if mode == "exact":
        _check_cap(g, cap)
    n_colors = len(target_colors) if target_c is None and target_colors is not None else target_c
    if n_colors is not None and n_colors not in _budgets(g):
        return FindResult(None, 0, time.perf_counter() - t0)
    if mode == "heuristic":
        return FindResult(_heuristic(g, target_colors, target_c, seed), 0, time.perf_counter() - t0)
    found, nodes = _Search(g).run(None if target_colors is None else frozenset(target_colors), n_colors)
    return FindResult(None if found is None else EdgeLabeling(g, found), nodes, time.perf_counter() - t0)


def _heuristic(g: Graph, target_colors, target_c, seed: int) -> EdgeLabeling | None:
    """Seeded random restarts, each keeping a label swap unless it raises the
    penalty: 1000 per edge whose ends tie, plus the colors on one side only of
    ``target_colors``, plus the distance of the color count from ``target_c``."""
    rng = random.Random(seed)
    q, ends = g.size, g.ends
    order = sorted(range(q), key=ends.__getitem__)  # labels are dealt and swapped in sorted-edge order
    values = [0] * q

    def penalty() -> int:
        sums = [0] * g.order
        for (a, b), lab in zip(ends, values):
            sums[a] += lab
            sums[b] += lab
        pen = 1000 * sum(1 for a, b in ends if sums[a] == sums[b])
        colors = set(sums)
        if target_colors is not None:
            pen += len(colors ^ target_colors)
        if target_c is not None:
            pen += abs(len(colors) - target_c)
        return pen

    for _ in range(HEURISTIC_RESTARTS):
        labels = list(range(1, q + 1))
        rng.shuffle(labels)
        for t, lab in zip(order, labels):
            values[t] = lab
        pen = penalty()
        if q < 2:  # the only labeling: no swap to make
            break
        for _ in range(HEURISTIC_ITERS):
            if pen == 0:
                break
            i, j = rng.sample(order, 2)
            values[i], values[j] = values[j], values[i]
            swapped = penalty()
            if swapped <= pen:
                pen = swapped
            else:
                values[i], values[j] = values[j], values[i]
        if pen == 0:
            break
    return EdgeLabeling(g, tuple(values)) if pen == 0 else None


def certify_no_2_coloring(g: Graph, cap: int | None = None) -> bool:
    """True iff exhaustive search finds no labeling with c(f) = 2."""
    return find_labeling(g, target_c=2, cap=cap).labeling is None

"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  The grid sweep (criteria 3/4/6) is computed once and shared.
"""

import csv
import functools
import hashlib
import itertools
import random
import sys
import time
from collections import Counter

import pytest

from antimagic.errors import AntimagicError, ParallelEdgeError, SumDriftError
from antimagic.graph import Graph, copies_of_p2_join_null, edge, merged, u, v, x
from antimagic.labeling import chi_la_lower_bound, induce
from antimagic.oracle import certify_no_2_coloring, exact_chi_la
from antimagic.schemes import EVEN, ODD, build_matrix
import antimagic.sweep as sweep_module
from antimagic.sweep import ALL_FAMILIES, SweepRow, _verdict, csv_text, sweep
from antimagic.transforms import (
    SwapSpec,
    block_merge,
    delete_add,
    from_matrix,
    group_components,
    merge_all_x,
    merge_v_blocks,
    random_swap_spec,
    special_labeled,
    split_x,
)

from test_schemes import MATRIX_N2_K2, MATRIX_N2_K3, MATRIX_N2_K4, MATRIX_ODD_N2_K3

GRID_N = 12
GRID_K = 12
# sha256 of the CSV `antimagic sweep --n-max 12 --k-max 12` writes
GRID_CSV_SHA256 = "0fe80aa34fdbbf7c62c35bb5f814235bdba75377169d4d36fbde1d04ea9ad4ca"
# sha256 of the CSV `antimagic sweep --n-max 24 --k-max 4` writes: null orders up to 49, past the grid's 25
WIDE_CSV_SHA256 = "5eae0ecfffb6eb0d320884c434e2c9aebc6d3b6b6fbe9c8cefb70daab82f43c3"
# sha256 of the CSV `antimagic sweep --n-max 2 --k-max 18` writes: 1,596 compositions of k = 18 per cell
DEEP_CSV_SHA256 = "6fd1a89e107e2ed8b02a4e23a675815042be38c5e2f7a2f02f784e39bd81c7d0"


@pytest.fixture(scope="module")
def grid():
    t0 = time.perf_counter()
    rows = list(sweep(GRID_N, GRID_K))
    return rows, time.perf_counter() - t0


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {name}: {status}{(' — ' + detail) if detail else ''}")
    assert ok, detail


def test_criterion_1_matrix_fixtures():
    t0 = time.perf_counter()
    fixtures = [
        (build_matrix(EVEN, 2, 4), MATRIX_N2_K4),
        (build_matrix(ODD, 2, 3), MATRIX_ODD_N2_K3),
        (build_matrix(EVEN, 2, 2), MATRIX_N2_K2),
        (build_matrix(EVEN, 2, 3), MATRIX_N2_K3),
    ]
    entries = 0
    for mx, fixture in fixtures:
        assert mx.named_rows() == list(fixture.items())
        entries += sum(map(len, fixture.values()))
    elapsed = time.perf_counter() - t0
    _report("1 (matrix fixtures)", entries == 72 + 66 + 36 + 54 and elapsed < 1.0,
            f"{entries} entries exact in {elapsed:.3f}s")


def test_criterion_2_color_triples():
    t0 = time.perf_counter()
    special = special_labeled().labeling
    cases = [
        ("2P2 v O2 bespoke", special, {14, 19, 22}),
        ("even block n=2 k=2", block_merge(from_matrix(build_matrix(EVEN, 2, 2)), 2, 1).labeling, {108, 77, 74}),
        ("odd block n=2 k=3", block_merge(from_matrix(build_matrix(ODD, 2, 3)), 3, 1).labeling, {261, 111, 146}),
        ("odd split n=2 k=3", split_x(block_merge(from_matrix(build_matrix(ODD, 2, 3)), 3, 1)).labeling, {261, 111, 73}),
    ]
    pairs6 = block_merge(from_matrix(build_matrix(EVEN, 1, 6)), 6, 1)
    cases.append(
        ("J blocks of three", merge_v_blocks(pairs6, [[v(3 * a - 2), v(3 * a - 1), v(3 * a)] for a in range(1, 5)]).labeling, {127, 168, 122})
    )
    cases.append(("H groups 2+4", group_components(pairs6, (2, 4)).labeling, {127, 112, 122}))
    for name, labeling, expected in cases:
        coloring = induce(labeling)
        assert coloring.color_set == frozenset(expected), name
        colors = dict(zip(labeling.graph.names, coloring.sums))
        assert all(colors[a] != colors[b] for a, b in labeling.graph.edge_index), name
    elapsed = time.perf_counter() - t0
    _report("2 (color triples)", elapsed < 1.0, f"{len(cases)} fixtures in {elapsed:.3f}s")


def test_criterion_3_theorem_sweep(grid):
    rows, elapsed = grid
    families = {"join", "merge-all", "block", "split", "J1", "J2", "H1", "H2"}
    relevant = [r for r in rows if r.family in families]
    bad = [r for r in relevant if not r.ok]
    _report(
        "3 (theorem sweep)",
        not bad and elapsed < 120.0,
        f"{len(relevant)} instances, {len(bad)} failures, grid in {elapsed:.1f}s",
    )


def test_grid_csv_bytes_are_pinned(grid):
    rows, _ = grid
    assert hashlib.sha256(csv_text(rows).encode()).hexdigest() == GRID_CSV_SHA256


def test_wide_grid_csv_bytes_are_pinned():
    rows = list(sweep(24, 4))
    assert len(rows) == 1534
    assert [r for r in rows if not r.ok] == []
    assert hashlib.sha256(csv_text(rows).encode()).hexdigest() == WIDE_CSV_SHA256


def test_deep_grid_csv_bytes_are_pinned():
    rows = list(sweep(2, 18))
    assert len(rows) == 34294
    assert [r for r in rows if not r.ok] == []
    assert hashlib.sha256(csv_text(rows).encode()).hexdigest() == DEEP_CSV_SHA256


def test_family_subsets_give_the_full_grids_rows():
    """Every single family and every pair of families yields exactly the
    full grid's rows of those families (H1 and H2 are the rows of H)."""
    full = list(sweep(2, 6))
    for fams in [*itertools.combinations(ALL_FAMILIES, 1), *itertools.combinations(ALL_FAMILIES, 2)]:
        want = [r for r in full if (r.family[0] if r.family in ("H1", "H2") else r.family) in fams]
        assert list(sweep(2, 6, fams)) == want, fams


def test_failing_row_keeps_six_csv_fields():
    """A color-set mismatch writes both sets space-separated, as the
    colors column does, so a failing row parses into the header's six fields."""
    colors = frozenset({14, 19})
    ok, detail = _verdict(None, colors, {14, 19, 22})
    row = SweepRow("H1", EVEN, "n=1 k=4 ks=2+2", tuple(sorted(colors)), ok, detail)
    fields = next(csv.reader([row.csv()]))
    assert fields == ["H1", EVEN, "n=1 k=4 ks=2+2", "14 19", "FAIL", "colors 14 19 != expected 14 19 22"]


def test_planted_lower_bound_fails_every_split_row(monkeypatch):
    """A split row that passes its color check still fails unless its
    lower bound is 3 by an equal bipartition."""
    monkeypatch.setattr(sweep_module, "chi_la_lower_bound", lambda g: (2, "adjacent-pair"))
    rows = list(sweep(2, 4, ("split",)))
    assert rows and all(not r.ok and r.detail == "lower bound 2 via adjacent-pair" for r in rows)


def test_planted_missing_certificate_fails_every_j2_row(monkeypatch):
    monkeypatch.setattr(sweep_module, "theorem_certificate", lambda g: "unverified by theorem")
    rows = list(sweep(2, 4, ("J2",)))
    assert rows and all(not r.ok and r.detail == "unverified by theorem; no structural certificate" for r in rows)


@pytest.mark.parametrize("planted", [("v_color",), ("u_color",), ("u_color", "v_color")])
def test_planted_closed_form_fails_every_join_row_by_its_count(monkeypatch, planted):
    """With a closed form planted one too high, each of the 2k u's (or
    v's) of the matrix graph is off it: every join row fails and counts 2k
    vertices per planted side."""
    for name in planted:
        monkeypatch.setattr(sweep_module, name, lambda *cell, real=getattr(sweep_module, name): real(*cell) + 1)
    rows = list(sweep(2, 4, ("join",)))
    assert len(rows) == 15  # both parities, n <= 2, k <= 4, less even n = k = 1, which has no matrix
    for r in rows:
        k = int(r.params.split("k=")[1])
        assert not r.ok and r.detail == f"{2 * k * len(planted)} vertices off the closed form", r


@pytest.mark.parametrize("n,k,via_index,via_certificate", [(2, 6, 40, 0), (2, 12, 88, 0)])
def test_serial_sweep_mints_ids_where_planned(monkeypatch, n, k, via_index, via_certificate):
    """A merged graph mints its ids on the first read of ``names``.  A
    serial sweep mints them through ``Graph.index``, which
    ``merge_v_blocks`` reads on the pairs and split graphs of each cell
    with k >= 2, and nowhere else: ``theorem_certificate`` reads the roles
    of the J2 graphs that are not bipartite with equal parts through
    ``merged_from``, down to the matrix graph's given names.  A change to
    where the sweep reads ids shows here."""
    prop = Graph.__dict__["names"]
    callers = Counter()

    def counted(g, mint=prop.func):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == functools.__file__:  # cached_property's own frames
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return mint(g)

    monkeypatch.setattr(prop, "func", counted)
    assert all(row.ok for row in sweep(n, k))
    assert callers == Counter(index=via_index, theorem_certificate=via_certificate)  # a missing key counts 0


def test_criterion_4_matrix_identity_suite(grid):
    rows, _ = grid
    matrix_rows = [r for r in rows if r.family == "matrix"]
    bad = [r for r in matrix_rows if not r.ok]
    expected = 2 * GRID_N * GRID_K - 1  # even grid minus the bespoke cell, plus odd grid
    _report(
        "4 (matrix identity suite)",
        len(matrix_rows) == expected and not bad,
        f"{len(matrix_rows)} matrices checked, {len(bad)} failures",
    )


def test_criterion_5_oracle_concordance():
    t0 = time.perf_counter()
    g_special = special_labeled().graph
    checks = [
        exact_chi_la(g_special).value == 3,
        exact_chi_la(Graph.build([u(1), v(1), x(1, 1)], [(u(1), v(1)), (u(1), x(1, 1)), (v(1), x(1, 1))])).value == 3,
        exact_chi_la(Graph.build([u(1), v(1)], [(u(1), v(1))])).value is None,
        exact_chi_la(copies_of_p2_join_null(2, 0)).value is None,
    ]
    c4 = Graph.build(
        [u(1), v(1), u(2), v(2)],
        [(u(1), v(1)), (v(1), u(2)), (u(2), v(2)), (v(2), u(1))],
    )
    checks.append(certify_no_2_coloring(c4))
    elapsed = time.perf_counter() - t0
    _report("5 (oracle concordance)", all(checks) and elapsed < 300.0, f"in {elapsed:.2f}s")


def test_criterion_6_lower_bound_soundness(grid):
    rows, _ = grid
    # split rows embed the bound-equals-3-with-equal-bipartition check
    split_rows = [r for r in rows if r.family == "split"]
    bad = [r for r in split_rows if not r.ok]
    fixture_graphs = [
        special_labeled().graph,
        block_merge(from_matrix(build_matrix(EVEN, 2, 2)), 2, 1).graph,
        group_components(block_merge(from_matrix(build_matrix(EVEN, 1, 6)), 6, 1), (6,)).graph,
    ]
    bounds_ok = all(chi_la_lower_bound(g)[0] <= 3 for g in fixture_graphs)
    _report(
        "6 (lower-bound soundness)",
        not bad and bounds_ok and split_rows,
        f"{len(split_rows)} split instances bound=3 via equal-bipartition",
    )


def test_criterion_7_surgery_conservation():
    rng = random.Random(2024)
    bases = [
        block_merge(from_matrix(build_matrix(EVEN, 2, 4)), 2, 2),
        block_merge(from_matrix(build_matrix(EVEN, 1, 6)), 3, 2),
        block_merge(from_matrix(build_matrix(ODD, 1, 4)), 2, 2),
        split_x(block_merge(from_matrix(build_matrix(EVEN, 2, 4)), 2, 2)),
        split_x(block_merge(from_matrix(build_matrix(ODD, 2, 6)), 3, 2)),
    ]
    count = 0
    for base in bases:
        lg = base
        before = dict(zip(base.graph.names, base.coloring.sums))
        for _ in range(200):
            spec = random_swap_spec(lg, rng)
            lg = delete_add(lg, spec)
            assert dict(zip(lg.graph.names, lg.coloring.sums)) == before  # bit-identical vertex map
            count += 1

    # invalid specs must be rejected
    lg = block_merge(from_matrix(build_matrix(EVEN, 2, 4)), 4, 1)
    a = merged([x(1, 1), x(8, 1)])
    b = merged([x(2, 1), x(7, 1)])
    keep = lg.labeling.labels[edge(v(1), a)]
    other = lg.labeling.labels[edge(v(2), b)]
    rejected = 0
    with pytest.raises(AntimagicError):
        delete_add(lg, SwapSpec((edge(v(1), a),), ((edge(v(1), b), keep + 1),)))
    rejected += 1
    with pytest.raises(SumDriftError):
        delete_add(lg, SwapSpec(
            (edge(v(1), a), edge(v(2), b)),
            ((edge(v(1), b), keep), (edge(v(2), a), other)),
        ))
    rejected += 1
    a2 = merged([x(1, 2), x(8, 2)])
    with pytest.raises(ParallelEdgeError):
        delete_add(lg, SwapSpec((edge(v(1), a),), ((edge(v(1), a2), keep),)))
    rejected += 1
    _report("7 (surgery conservation)", count == 1000, f"{count} valid swaps conserved, {rejected} invalid rejected")


def test_criterion_8_regularity():
    failures = []
    for n in range(1, 6):
        degree = 2 * n + 2
        outputs = []
        if (n + 1) % 2 == 0:
            k = (n + 1) // 2
            outputs.append(("merge-all 2k=n+1", merge_all_x(from_matrix(build_matrix(ODD, n, k)))))
            s = (n + 1) // 2
            for r in (2, 3):
                outputs.append((f"block 2s=n+1 r={r}", block_merge(from_matrix(build_matrix(ODD, n, r * s)), r, s)))
        s_split = n + 1
        for r in (2, 3):
            lg = block_merge(from_matrix(build_matrix(ODD, n, r * s_split)), r, s_split)
            outputs.append((f"split 2s=2n+2 r={r}", split_x(lg)))
        for name, lg in outputs:
            degs = {len(nbs) for nbs in lg.graph.neighbors}
            if degs != {degree}:
                failures.append(f"n={n} {name}: degrees {sorted(degs)}")
    _report("8 (regularity)", not failures, "; ".join(failures) or "all (2n+2)-regular")

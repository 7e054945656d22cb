import ast
import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from antimagic.errors import AntimagicError, UseSpecialCase
from antimagic.labeling import induce
from antimagic.schemes import (
    EVEN,
    LabelMatrix,
    ODD,
    build_matrix,
    check_identities,
)
from antimagic.serialize import matrix_csv
from antimagic.transforms import SPECIAL_COLOR_SET, special_labeled

# Worked 9x8 matrix for n=2, k=4 (frozen fixture).
MATRIX_N2_K4 = {
    "ux1": (65, 66, 67, 68, 69, 70, 71, 72),
    "ux2": (16, 15, 14, 13, 12, 11, 10, 9),
    "ux3": (49, 53, 54, 55, 50, 51, 52, 56),
    "ux4": (40, 41, 42, 43, 45, 46, 47, 48),
    "uv": (44, 39, 37, 35, 38, 36, 34, 29),
    "vx1": (1, 2, 3, 4, 5, 6, 7, 8),
    "vx2": (64, 63, 62, 61, 60, 59, 58, 57),
    "vx3": (17, 21, 22, 23, 18, 19, 20, 24),
    "vx4": (25, 26, 27, 28, 30, 31, 32, 33),
}

# Worked 9x4 matrix for n=2, k=2.
MATRIX_N2_K2 = {
    "ux1": (33, 34, 35, 36),
    "ux2": (8, 7, 6, 5),
    "ux3": (25, 27, 26, 28),
    "ux4": (20, 21, 23, 24),
    "uv": (22, 19, 18, 15),
    "vx1": (1, 2, 3, 4),
    "vx2": (32, 31, 30, 29),
    "vx3": (9, 11, 10, 12),
    "vx4": (13, 14, 16, 17),
}

# Worked 9x6 matrix for n=2, k=3.
MATRIX_N2_K3 = {
    "ux1": (49, 50, 51, 52, 53, 54),
    "ux2": (12, 11, 10, 9, 8, 7),
    "ux3": (37, 40, 41, 38, 39, 42),
    "ux4": (30, 31, 32, 34, 35, 36),
    "uv": (33, 29, 27, 28, 26, 22),
    "vx1": (1, 2, 3, 4, 5, 6),
    "vx2": (48, 47, 46, 45, 44, 43),
    "vx3": (13, 16, 17, 14, 15, 18),
    "vx4": (19, 20, 21, 23, 24, 25),
}

# Worked 11x6 matrix for the odd case n=2, k=3.
MATRIX_ODD_N2_K3 = {
    "ux1": (66, 65, 64, 63, 62, 61),
    "ux2": (55, 56, 57, 58, 59, 60),
    "ux3": (54, 53, 52, 51, 50, 49),
    "ux4": (43, 44, 45, 46, 47, 48),
    "ux5": (42, 41, 40, 39, 38, 37),
    "uv": (1, 2, 3, 4, 5, 6),
    "vx1": (12, 11, 10, 9, 8, 7),
    "vx2": (13, 14, 15, 16, 17, 18),
    "vx3": (24, 23, 22, 21, 20, 19),
    "vx4": (25, 26, 27, 28, 29, 30),
    "vx5": (36, 35, 34, 33, 32, 31),
}


def assert_matrix_equals(mx: LabelMatrix, fixture: dict):
    assert mx.named_rows() == list(fixture.items())


def entries(mx: LabelMatrix) -> list[int]:
    return sorted(val for _, row in mx.named_rows() for val in row)


class TestEvenMatrix:
    def test_worked_9x8(self):
        assert_matrix_equals(build_matrix(EVEN, 2, 4), MATRIX_N2_K4)

    def test_worked_9x4(self):
        assert_matrix_equals(build_matrix(EVEN, 2, 2), MATRIX_N2_K2)

    def test_worked_9x6(self):
        assert_matrix_equals(build_matrix(EVEN, 2, 3), MATRIX_N2_K3)

    def test_tail_column_sum(self):
        mx = build_matrix(EVEN, 2, 4)
        total = mx.ux[2][0] + mx.ux[3][0] + mx.uv[0]
        assert total == 49 + 40 + 44 == 133 == 12 * 4 * 2 + 9 * 4 + 1

    def test_single_component_pair_columns(self):
        # k = 1, n = 2: column 1 top to bottom, then the two columns
        # jointly exhaust [1..18]
        mx = build_matrix(EVEN, 2, 1)
        col1 = tuple(row[0] for _, row in mx.named_rows())
        col2 = tuple(row[1] for _, row in mx.named_rows())
        assert col1 == (17, 4, 13, 10, 11, 1, 16, 5, 7)
        assert sorted(col1 + col2) == list(range(1, 19))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_two_column_closed_forms(self, n):
        # the k = 1 matrix must match the dedicated two-column forms; row j is at index j - 1
        mx = build_matrix(EVEN, n, 1)
        for jj in range(1, n):
            assert mx.ux[2 * jj - 2] == (8 * n + 5 - 4 * jj, 8 * n + 6 - 4 * jj)
            assert mx.ux[2 * jj - 1] == (4 * jj, 4 * jj - 1)
            assert mx.vx[2 * jj - 2] == (4 * jj - 3, 4 * jj - 2)
            assert mx.vx[2 * jj - 1] == (8 * n + 4 - 4 * jj, 8 * n + 3 - 4 * jj)
        assert mx.ux[2 * n - 2] == (4 * n + 5, 4 * n + 6)
        assert mx.ux[2 * n - 1] == (4 * n + 2, 4 * n + 4)
        assert mx.uv == (4 * n + 3, 4 * n)
        assert mx.vx[2 * n - 2] == (4 * n - 3, 4 * n - 2)
        assert mx.vx[2 * n - 1] == (4 * n - 1, 4 * n + 1)

    def test_n1_has_only_tail_rows(self):
        mx = build_matrix(EVEN, 1, 3)
        assert len(mx.named_rows()) == 5  # 4n+1
        assert entries(mx) == list(range(1, 31))

    @pytest.mark.parametrize("parity,n,k", [(EVEN, 0, 2), (EVEN, 2, 0), (ODD, 0, 1), (ODD, 1, -1)])
    def test_n_or_k_below_one_raises(self, parity, n, k):
        with pytest.raises(AntimagicError, match="n and k must be >= 1"):
            build_matrix(parity, n, k)

    def test_smallest_case_is_special(self):
        with pytest.raises(UseSpecialCase, match="special_labeled"):
            build_matrix(EVEN, 1, 1)

    @pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (3, 4), (5, 1), (4, 7)])
    def test_bijection_range(self, n, k):
        mx = build_matrix(EVEN, n, k)
        assert entries(mx) == list(range(1, mx.q + 1))


class TestOddMatrix:
    def test_worked_11x6(self):
        assert_matrix_equals(build_matrix(ODD, 2, 3), MATRIX_ODD_N2_K3)

    def test_u_block_column_sum(self):
        mx = build_matrix(ODD, 2, 3)
        u_block = sum(row[0] for row in (*mx.ux, mx.uv))
        assert u_block == 66 + 55 + 54 + 43 + 42 + 1 == 261
        assert u_block == (2 + 1) * (12 * 2 * 3 + 4 * 3 + 1) + 2 * 3

    def test_v_block_column_sum(self):
        mx = build_matrix(ODD, 2, 3)
        v_block = sum(row[0] for row in (mx.uv, *mx.vx))
        assert v_block == (2 + 1) * (4 * 2 * 3 + 4 * 3 + 1) == 111

    def test_uv_row_is_identity(self):
        mx = build_matrix(ODD, 3, 2)
        assert mx.uv == tuple(range(1, 5))

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2), (4, 5)])
    def test_bijection_range(self, n, k):
        mx = build_matrix(ODD, n, k)
        assert entries(mx) == list(range(1, mx.q + 1))

    def test_smallest_case_allowed(self):
        mx = build_matrix(ODD, 1, 1)
        assert mx.q == 14


# sha256 of matrix_csv over both parities, then n, then k, each in 1..12,
# (even, 1, 1) skipped: pins every entry of all 287 matrices.
ALL_MATRICES_SHA256 = "bec2b7a7c3c0784e546feeb50371cb930bc0140a6ede5dbecd6b12cc1a6d3755"


def test_every_matrix_pinned():
    digest = hashlib.sha256()
    cells = [(p, n, k) for p in (EVEN, ODD) for n in range(1, 13) for k in range(1, 13) if (p, n, k) != (EVEN, 1, 1)]
    for cell in cells:
        digest.update(matrix_csv(build_matrix(*cell)).encode())
    assert len(cells) == 287
    assert digest.hexdigest() == ALL_MATRICES_SHA256


def test_schemes_imports_only_errors_from_the_package():
    # the matrices are plain arithmetic: graphs and labelings are built from them downstream
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "antimagic" / "schemes.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported if name.startswith((".", "antimagic"))} == {".errors"}


class TestSpecialFixture:
    def test_color_set(self):
        labeling = special_labeled().labeling
        coloring = induce(labeling)
        assert coloring.color_set == SPECIAL_COLOR_SET

    def test_color_total_is_twice_label_sum(self):
        labeling = special_labeled().labeling
        assert sum(induce(labeling).colors.values()) == 110  # q(q+1) at q = 10

    def test_degree_four_vertices_get_22(self):
        lg = special_labeled()
        g, labeling = lg.graph, lg.labeling
        colors = induce(labeling).colors
        for w, nbs in zip(g.names, g.neighbors):
            expected = {1: None, 3: 19 if w.role == "u" else 14, 4: 22}[len(nbs)]
            assert colors[w] == expected


def failed_identities(report) -> set[str]:
    """Names of the violated identities: each failure leads with one."""
    return {failure.split(":")[0] for failure in report.failures}


class TestCheckIdentities:
    @pytest.mark.parametrize("parity,n,k", [(EVEN, 1, 2), (EVEN, 2, 1), (EVEN, 3, 6), (ODD, 1, 1), (ODD, 2, 3), (ODD, 3, 4)])
    def test_clean_matrices_pass(self, parity, n, k):
        report = check_identities(build_matrix(parity, n, k))
        assert report.ok, report.failures

    def test_cross_pair_constants(self):
        even = check_identities(build_matrix(EVEN, 2, 4))
        assert not failed_identities(even)  # cross pairs 8kn+2k+1 = 73; e.g. 65 + 8
        odd = check_identities(build_matrix(ODD, 2, 3))
        assert not failed_identities(odd)  # cross pairs 8kn+8k+1 = 73; e.g. 66 + 7
        mx = build_matrix(EVEN, 2, 4)
        assert mx.ux[0][0] + mx.vx[0][7] == 73
        mo = build_matrix(ODD, 2, 3)
        assert mo.ux[0][0] + mo.vx[0][5] == 73

    def test_swapped_entries_fail_column_sums_only(self):
        mx = build_matrix(EVEN, 2, 4)
        ux1, vx1 = list(mx.ux[0]), list(mx.vx[0])
        ux1[0], vx1[0] = vx1[0], ux1[0]  # swap two entries within column 1
        report = check_identities(replace(mx, ux=(tuple(ux1), *mx.ux[1:]), vx=(tuple(vx1), *mx.vx[1:])))
        assert "bijection" not in failed_identities(report)
        assert {"u-block", "v-block"} <= failed_identities(report)
        assert not report.ok

    def test_failure_named_after_its_identity(self):
        mx = build_matrix(EVEN, 2, 2)
        row = list(mx.uv)
        row[0], row[1] = row[1], row[0]
        report = check_identities(replace(mx, uv=tuple(row)))
        assert "u-block" in failed_identities(report)


def tampered(parity, n, k, swaps=(), copies=()):
    """The (parity, n, k) matrix with each pair of cells ((row name, column),
    (row name, column)) in ``swaps`` swapped, and each first cell in
    ``copies`` overwritten with the second.  Column -1 is column 2k."""
    mx = build_matrix(parity, n, k)
    data = {name: list(row) for name, row in mx.named_rows()}

    def at(i):
        return i - 1 if i > 0 else i

    for (ka, ia), (kb, ib) in swaps:
        data[ka][at(ia)], data[kb][at(ib)] = data[kb][at(ib)], data[ka][at(ia)]
    for (ka, ia), (kb, ib) in copies:
        data[ka][at(ia)] = data[kb][at(ib)]
    rows = [tuple(row) for row in data.values()]  # named_rows order: ux1 .. uxm, uv, vx1 .. vxm
    return replace(mx, ux=tuple(rows[:mx.m]), uv=rows[mx.m], vx=tuple(rows[mx.m + 1:]))


# Every failure message check_identities can give, for the two tampered shapes.
REPORT_LINES = {
    (EVEN, 2, 4): {
        "bijection": "bijection: entries are not a permutation of [1..72]",
        "u-block": "u-block: some column sum != 214",
        "v-block": "v-block: some column sum != 151",
        "pair-sums": "pair-sums: complementary column pair sum off for some row",
        "row-totals": "row-totals: some u+v row pair total != 584",
        "block-pairing": "block-pairing: some 2r-block pair sum off",
        "cross-pairs": "cross-pairs: some u/v complementary pair != 73",
    },
    (ODD, 2, 3): {
        "bijection": "bijection: entries are not a permutation of [1..66]",
        "u-block": "u-block: some column sum != 261",
        "v-block": "v-block: some column sum != 111",
        "pair-sums": "pair-sums: complementary column pair sum off for some row",
        "row-totals": "row-totals: some u+v row pair total != 438",
        "block-pairing": "block-pairing: some 2r-block pair sum off",
        "cross-pairs": "cross-pairs: some u/v complementary pair != 73",
    },
}

UX1, UX2, VX1 = "ux1", "ux2", "vx1"


class TestIdentityReport:
    """One tamper per identity; the whole failures tuple is pinned."""

    @pytest.mark.parametrize("parity,n,k", [(EVEN, 2, 4), (ODD, 2, 3)])
    @pytest.mark.parametrize(
        "tamper,names",
        [
            # a repeated entry breaks every sum that reads it
            (
                {"copies": [((UX1, 1), (UX1, 2))]},
                ("bijection", "u-block", "pair-sums", "row-totals", "block-pairing", "cross-pairs"),
            ),
            # two columns swapped inside one row keep the row total
            (
                {"swaps": [((UX1, 1), (UX1, 2))]},
                ("u-block", "pair-sums", "block-pairing", "cross-pairs"),
            ),
            # two u-rows swapped inside one column keep the column sums
            (
                {"swaps": [((UX1, 1), (UX2, 1))]},
                ("pair-sums", "row-totals", "block-pairing", "cross-pairs"),
            ),
            # the same column swap in a u-row and its v-row
            (
                {"swaps": [((UX1, 1), (UX1, 2)), ((VX1, 1), (VX1, 2))]},
                ("u-block", "v-block", "pair-sums", "block-pairing", "cross-pairs"),
            ),
            # mirror columns swapped inside one row keep every pair sum
            (
                {"swaps": [((UX1, 1), (UX1, -1))]},
                ("u-block", "cross-pairs"),
            ),
        ],
        ids=["bijection", "pair-sums", "row-totals", "block-pairing", "cross-pairs"],
    )
    def test_tamper_report(self, parity, n, k, tamper, names):
        report = check_identities(tampered(parity, n, k, **tamper))
        assert report.failures == tuple(REPORT_LINES[parity, n, k][name] for name in names)

    @pytest.mark.parametrize(
        "parity,n,k,names",
        [
            (EVEN, 2, 4, ("u-block", "v-block", "pair-sums", "cross-pairs")),
            (ODD, 2, 3, ("u-block", "v-block", "pair-sums", "cross-pairs")),
        ],
    )
    def test_u_v_swap_trips_the_row_pair_constants(self, parity, n, k, names):
        # moving one entry's worth between ux1 and vx1 keeps every four-term
        # sum; each x-row's own pair constant catches it, at either parity
        report = check_identities(tampered(parity, n, k, swaps=[((UX1, 1), (VX1, 1))]))
        assert report.failures == tuple(REPORT_LINES[parity, n, k][name] for name in names)

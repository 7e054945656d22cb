"""Explicit edge-label matrices for 2k(P_2 ∨ O_m) and their identities.

The even scheme (m = 2n) fills a (4n+1) x 2k matrix, the odd scheme
(m = 2n+1) a (4n+3) x 2k matrix.  ``build_matrix`` writes each row as a
few arithmetic runs (count, first entry, step), read left to right: one
run for every odd row and every leading even row, at most four for an
even tail row, split at columns 1, k and 2k - 1 (for k = 1 the middle
runs are empty).  A run sums in closed form to c*a + d*c(c-1)/2.  Both
parities share one type: the u_i x_{i,j} rows, the u_i v_i row and the
v_i x_{i,j} rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import AntimagicError, UseSpecialCase

EVEN = "even"
ODD = "odd"

def u_color(parity: str, n: int, k: int) -> int:
    """Induced label of every u_i under the scheme."""
    if parity == EVEN:
        return 8 * k * n * n + 8 * k * n + 5 * k + n
    return (n + 1) * (12 * n * k + 4 * k + 1) + 2 * k


def v_color(parity: str, n: int, k: int) -> int:
    """Induced label of every v_i under the scheme."""
    if parity == EVEN:
        return 8 * k * n * n + 4 * k * n - 3 * k + n + 1
    return (n + 1) * (4 * n * k + 4 * k + 1)


def x_pair_constant(parity: str, n: int, k: int) -> int:
    """Column-pair contribution to a merged x-vertex: s complementary
    column pairs sum to s times this constant."""
    if parity == EVEN:
        return 16 * k * n + 4 * k + 2
    return 16 * k * n + 16 * k + 2


def cross_pair_constant(parity: str, n: int, k: int) -> int:
    """f(u_i x_{i,j}) + f(v_{2k+1-i} x_{2k+1-i,j}), constant over i, j."""
    if parity == EVEN:
        return 8 * k * n + 2 * k + 1
    return 8 * k * n + 8 * k + 1


def block_columns(k: int, s: int, b: int) -> tuple[list[int], list[int]]:
    """Columns of block b (width s) and their mirrors 2k+1-i, the
    complementary block, both ascending."""
    lo = list(range((b - 1) * s + 1, b * s + 1))
    return lo, [2 * k + 1 - i for i in reversed(lo)]


@dataclass(frozen=True)
class LabelMatrix:
    """The matrix as its rows, each over columns i = 1..2k: ``ux[j-1]``
    labels the edges u_i x_{i,j}, ``uv`` the edges u_i v_i and
    ``vx[j-1]`` the edges v_i x_{i,j}."""

    n: int
    k: int
    parity: str
    ux: tuple[tuple[int, ...], ...]
    uv: tuple[int, ...]
    vx: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.ux)

    @property
    def cols(self) -> int:
        return 2 * self.k

    @property
    def q(self) -> int:
        return self.cols * (2 * self.m + 1)

    def named_rows(self) -> list[tuple[str, tuple[int, ...]]]:
        """Each row with its name in CSV and JSON, in canonical order:
        ``ux1`` … ``uxm``, ``uv``, ``vx1`` … ``vxm``."""
        return ([(f"ux{j}", row) for j, row in enumerate(self.ux, 1)] + [("uv", self.uv)]
                + [(f"vx{j}", row) for j, row in enumerate(self.vx, 1)])


def scheme_m(parity: str, n: int, k: int) -> int:
    """The null order m of the scheme with these parameters.

    Raises :class:`AntimagicError` when no scheme has them, and
    :class:`UseSpecialCase` for 2P_2 ∨ O_2, which has no matrix.
    """
    if parity not in (EVEN, ODD):
        raise AntimagicError(f"unknown parity {parity!r}")
    if n < 1 or k < 1:
        raise AntimagicError("n and k must be >= 1")
    if (parity, n, k) == (EVEN, 1, 1):
        raise UseSpecialCase("2P_2 ∨ O_2 uses the bespoke labeling; see special_labeled()")
    return 2 * n if parity == EVEN else 2 * n + 1


def _runs(runs: list[tuple[int, int, int]]) -> tuple[int, ...]:
    """The row spelled by arithmetic runs (count, first entry, step), left to right."""
    return tuple(first + step * t for count, first, step in runs for t in range(count))


def build_matrix(parity: str, n: int, k: int) -> LabelMatrix:
    """Label matrix for 2k(P_2 ∨ O_m), m = 2n (even, (n, k) != (1, 1)) or
    m = 2n + 1 (odd)."""
    m = scheme_m(parity, n, k)
    c = 2 * k
    ux: dict[int, list[tuple[int, int, int]]] = {}  # j -> the runs of row ux_j; vx likewise
    vx: dict[int, list[tuple[int, int, int]]] = {}
    if parity == EVEN:
        o = 4 * k * (n - 1)
        for jj in range(1, n):  # leading rows, none when n = 1
            ux[2 * jj - 1] = [(c, 4 * k * (2 * n + 1 - jj) + 1, 1)]
            ux[2 * jj] = [(c, 4 * k * jj, -1)]
            vx[2 * jj - 1] = [(c, 4 * k * (jj - 1) + 1, 1)]
            vx[2 * jj] = [(c, 4 * k * (2 * n + 1 - jj), -1)]
        ux[m - 1] = [(1, o + 8 * k + 1, 0), (k - 1, o + 9 * k + 1, 1), (k - 1, o + 8 * k + 2, 1), (1, o + 10 * k, 0)]
        ux[m] = [(k, o + 6 * k, 1), (k, o + 7 * k + 1, 1)]
        uv = [(1, o + 7 * k, 0), (k - 1, o + 6 * k - 1, -2), (k - 1, o + 6 * k - 2, -2), (1, o + 3 * k + 1, 0)]
        vx[m - 1] = [(1, o + 1, 0), (k - 1, o + k + 1, 1), (k - 1, o + 2, 1), (1, o + 2 * k, 0)]
        vx[m] = [(k, o + 2 * k + 1, 1), (k, o + 3 * k + 2, 1)]
    else:
        for jj in range(1, n + 1):
            ux[2 * jj - 1] = [(c, 4 * k * (2 * n - jj) + 10 * k, -1)]
            ux[2 * jj] = [(c, 4 * k * (2 * n - jj) + 6 * k + 1, 1)]
            vx[2 * jj] = [(c, 4 * k * jj + 1, 1)]
            vx[2 * jj + 1] = [(c, 4 * k * (jj + 1), -1)]
        ux[m] = [(c, 4 * k * n + 6 * k, -1)]
        uv = [(c, 1, 1)]
        vx[1] = [(c, 4 * k, -1)]
    return LabelMatrix(n=n, k=k, parity=parity, ux=tuple(_runs(ux[j]) for j in range(1, m + 1)),
                       uv=_runs(uv), vx=tuple(_runs(vx[j]) for j in range(1, m + 1)))


# --- identity checks --------------------------------------------------------


@dataclass(frozen=True)
class MatrixReport:
    """Violated identities, each message led by the identity's name
    (``bijection:``, ``u-block:``, ``cross-pairs:`` ...)."""

    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _even_pair_constants(j: int, n: int, k: int) -> tuple[int, int]:
    """Sums entry(i) + entry(2k+1-i) of the even rows ux_j and vx_j, each
    constant over i."""
    if j == 2 * n - 1:
        return 8 * k * n + 10 * k + 1, 8 * k * n - 6 * k + 1
    if j == 2 * n:
        return 8 * k * n + 6 * k, 8 * k * n - 2 * k + 2
    jj = (j + 1) // 2
    if j % 2 == 1:
        return 4 * k * (4 * n + 3 - 2 * jj) - 2 * k + 1, 8 * k * (jj - 1) + 2 * k + 1
    return 4 * k * (2 * jj - 1) + 2 * k + 1, 4 * k * (4 * n + 2 - 2 * jj) - 2 * k + 1


def check_identities(mx: LabelMatrix) -> MatrixReport:
    """Verify every arithmetic identity the constructions rely on.

    Covers: the bijection onto [1..q]; the per-column u-block and
    v-block sums; complementary-column pair sums per row; per-row
    totals; the block pairing constant for every factorization k = rs
    with r >= 2, both read off the four-term pair sums; and the cross
    pair constant.  Returns every violated identity; nothing is raised.
    """
    n, k, parity = mx.n, mx.k, mx.parity
    ux, uv, vx = mx.ux, mx.uv, mx.vx
    failures: list[str] = []

    if sorted(chain(uv, *ux, *vx)) != list(range(1, mx.q + 1)):
        failures.append(f"bijection: entries are not a permutation of [1..{mx.q}]")

    # column i of the u-rows plus the uv row sums to f+(u_i); of the v-rows plus uv, to f+(v_i)
    uc, vc = u_color(parity, n, k), v_color(parity, n, k)
    if any(sum(col) != uc for col in zip(uv, *ux)):
        failures.append(f"u-block: some column sum != {uc}")
    if any(sum(col) != vc for col in zip(uv, *vx)):
        failures.append(f"v-block: some column sum != {vc}")

    # quads of x-row j: (ux[i], vx[i], ux[2k+1-i], vx[2k+1-i]) for i = 1..k
    pair_const, cross = x_pair_constant(parity, n, k), cross_pair_constant(parity, n, k)
    four_terms: list[list[int]] = []
    pair_sums_ok = cross_pairs_ok = True
    for j, (ux_row, vx_row) in enumerate(zip(ux, vx), 1):
        quads = list(zip(ux_row[:k], vx_row[:k], reversed(ux_row[k:]), reversed(vx_row[k:])))
        sums = [a + b + c + d for a, b, c, d in quads]
        four_terms.append(sums)
        pair_sums_ok &= all(t == pair_const for t in sums)
        if parity == EVEN:
            cu, cv = _even_pair_constants(j, n, k)
        else:  # an odd x-row is one run with step ±1, so every mirror pair sums as the first does
            cu, cv = quads[0][0] + quads[0][2], quads[0][1] + quads[0][3]
        pair_sums_ok &= all(a + c == cu and b + d == cv for a, b, c, d in quads)
        cross_pairs_ok &= all(a + d == cross == b + c for a, b, c, d in quads)
    if not pair_sums_ok:
        failures.append("pair-sums: complementary column pair sum off for some row")

    if not all(sum(sums) == k * pair_const for sums in four_terms):
        failures.append(f"row-totals: some u+v row pair total != {k * pair_const}")

    blocks = [block_columns(k, k // r, b)[0] for r in range(2, k + 1) if k % r == 0 for b in range(1, r + 1)]
    if not all(sum(sums[i - 1] for i in lo) == len(lo) * pair_const for lo in blocks for sums in four_terms):
        failures.append("block-pairing: some 2r-block pair sum off")

    if not cross_pairs_ok:
        failures.append(f"cross-pairs: some u/v complementary pair != {cross}")

    return MatrixReport(tuple(failures))

"""Bilinear forms in Weyl sums for modular square roots, and their bound sweeps.

The main object is
    W = sum_{m ~ M} sum_{n ~ N} alpha_m beta_n sum_{x^2 = a m n} e_q(h x),
evaluated against a precomputed root-phase table, never by per-term root
extraction.  The kernel depends on (m, n) only through amn, and the twist
folds into the row multiplier, since T_h(amn) = T(h^2 amn) for the one
root-phase table T of the modulus; so the M x N kernel is T read on the
products c m n, c = a h^2, from the cached buffer of T.  In discrete logs
every cell of a (q, M, N) group reads the same grid lg m + lg n, shifted by
lg c: ``weyl_group_sums`` walks blocks of columns, builds that grid once per
block (``modular.log_grid``), and reads each cell's block with one shifted
take, contracted by the zgemv a lone kernel gets, so W keeps its bits.  The
read runs on one BLAS thread (``_one_blas_thread``): each zgemv sits between
single-threaded takes, so a second OpenBLAS thread woke for every zgemv and
cost CPU without saving wall time.  A large kernel is streamed in column
blocks of 3 MiB with their grid, never held whole.  A cell costs O(M*N)
time.  ``bilinear_weyl_sum`` is the one-cell case, and ``weyl_sweep`` runs
the seeded grid one group at a time: seed states hashed once per modulus,
then the whole group's twists and weight stacks read off one raw PCG64
block per cell (``weights.seeded_cell_draws``) and their norms, then one
group read.  It returns an iterator that computes a group's rows only when
they are reached, so its readers hold one group of rows, not the grid's.

Around W sit the pieces the bound analysis decomposes it into: the
character-restricted sums R_j, the root correlation sums A_{h,lambda,a},
one-sided (Type-I) sums, completed kernel fourth-moment sums along curves, and
correlations of Salie sums.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .expsums import sqrt_phase_buffer, sqrt_phase_table
from .modular import (
    TABLE_LIMIT,
    eps_q,
    inv_mod,
    legendre_table,
    log_grid,
    log_tables,
    residue_roots,
)
from .primes import is_prime
from .weights import (
    WeightVector,
    dyadic_starts,
    entropy_words,
    seed_states,
    seeded_cell_draws,
    slack_factor,
    weight_norms,
)

_CURVE_SUM_LIMIT = 2048
# Bytes of one column block of a Weyl kernel and its log grid, _ENTRY_BYTES per
# entry (the complex128 entry and its int64 index): 64 columns at M = 2048, so the
# largest cell holds 2 MiB of kernel and 1 MiB of grid instead of its 64 MiB
# kernel.  On the large-cell sweep (q = 4001, 8009, one process, ru_maxrss) the
# peak RSS read 47.2 MiB with blocks twice as wide, 44.3 MiB with these and
# 42.9 MiB with half as wide, at about the same time (the per-cell read it
# replaced held a 4 MiB kernel block and read 44.8 MiB).  Blocks of 512 KiB of
# kernel ran slower than the unblocked kernel, with more short reads and
# contractions per cell.
_KERNEL_BLOCK_BYTES = 3 << 20
_ENTRY_BYTES = 24
# Bytes of the selected kernel that ``rj_sum`` reads whole, _ENTRY_BYTES per entry
# (the complex128 entry and its int64 index): 96 MiB, the whole kernel of a
# 2048 x 2048 cell, so every cell with M * N <= 2^22 is read.
_RJ_KERNEL_BYTES = 24 << 22


@dataclass(frozen=True)
class BilinearInstance:
    """One (q, a, h, M, N, alpha, beta) cell of the bilinear form."""

    q: int
    a: int
    h: int
    alpha: WeightVector
    beta: WeightVector

    def __post_init__(self):
        if self.a % self.q == 0 or self.h % self.q == 0:
            raise ValueError("need gcd(a, q) = gcd(h, q) = 1")
        if self.alpha.q != self.q or self.beta.q != self.q:
            raise ValueError("weight moduli must match the instance modulus")

    @property
    def m_start(self) -> int:
        return self.alpha.start

    @property
    def n_start(self) -> int:
        return self.beta.start


def _column_width(rows: int, cols: int) -> int:
    """Columns per block of a rows x cols kernel and its log grid: all of them if
    they fit in _KERNEL_BLOCK_BYTES or cols is no power of two, else the largest
    power-of-two width >= 4 whose block fits (or 4)."""
    if _ENTRY_BYTES * rows * cols <= _KERNEL_BLOCK_BYTES or cols & (cols - 1):
        return cols
    fit = _KERNEL_BLOCK_BYTES // (_ENTRY_BYTES * rows)
    return min(cols, max(4, 1 << (max(fit, 1).bit_length() - 1)))


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None
    where no such library is found.  Looked up on first use, not at import."""
    import ctypes
    import glob

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        dll = ctypes.CDLL(lib)
        get = getattr(dll, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(dll, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the count found, also on error.

    Does nothing where ``_openblas_threads`` finds no library.  OpenBLAS gives
    the same bits at 1 and 2 threads for the group read's zgemv and dot.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def bilinear_weyl_sum(inst: BilinearInstance) -> complex:
    """W evaluated against the root-phase table: the one-cell case of ``weyl_group_sums``."""
    c = inst.a * inst.h % inst.q * inst.h % inst.q
    alpha, beta = inst.alpha.coeffs[None], inst.beta.coeffs[None]
    return complex(weyl_group_sums(inst.q, [c], inst.m_start, inst.n_start, alpha, beta)[0])


def weyl_group_sums(
    q: int, c: list[int] | np.ndarray, m_start: int, n_start: int, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """W for a group of cells sharing (q, M, N): cell i has the row multiplier
    c[i] = a h^2 and the weights alpha[i] (on [M, 2M)) and beta[i] (on [N, 2N)).

    Each W is (alpha[i] @ K_i) @ beta[i] for the M x N kernel K_i, O(M*N) time.
    K_i depends on i only through the log of c[i], so one loop walks blocks of
    columns, in the width of ``_column_width``, and builds the group's
    ``log_grid`` of the block once; each cell's block of K_i is then one take
    of the buffer shifted by lg[c[i]], into one workspace, contracted with
    alpha[i] by the zgemv a lone kernel gets (an einsum takes another path and
    other bits; a batched (C, 1, M) @ (C, M, N) matmul gives the same bits but
    holds a workspace per cell, which raised the peak RSS of ``verify``).
    After the last block the dot with beta[i] runs once.  A kernel above
    _KERNEL_BLOCK_BYTES is never held whole: it is read in column blocks
    whose widths are powers of two >= 4 dividing N, a power of two.  Every
    entry of alpha @ K is then the same
    float as the unblocked product (OpenBLAS's zgemv sums each column alike
    for those widths, but not for widths 1 or 2, nor for other N, which stay
    one block), so W is bit for bit the one-block W.

    Every zgemv and dot runs on one BLAS thread (``_one_blas_thread``).  Each
    zgemv sits between single-threaded takes, so a second thread only wakes
    for it: on the large-cell sweep (q = 4001, 8009) the zgemvs took 1.05 s at
    2 threads and 0.18 s at 1, on a 2-core host.  The bits are the same.
    """
    m = np.arange(m_start, 2 * m_start, dtype=np.int64)
    n = np.arange(n_start, 2 * n_start, dtype=np.int64)
    buf = sqrt_phase_buffer(q)
    _, lg = log_tables(q)
    shifts = lg[np.asarray(c, dtype=np.int64) % q].tolist()
    width = _column_width(m_start, n_start)
    work = np.empty((m_start, width), dtype=np.complex128)
    v = np.empty((len(shifts), n_start), dtype=np.complex128)
    sums = np.empty(len(shifts), dtype=np.complex128)
    with _one_blas_thread():
        for start in range(0, n_start, width):
            grid = log_grid(m, n[start : start + width], q)
            for i, shift in enumerate(shifts):
                buf[shift:].take(grid, out=work, mode="clip")
                np.matmul(alpha[i], work, out=v[i, start : start + width])
            del grid  # the next block's grid is not built beside this one
        for i, row in enumerate(v):
            sums[i] = row @ beta[i]
    return sums


def rj_sum(j: int, inst: BilinearInstance) -> float:
    """R_j: the part of sum_m |sum_n beta_n K(amn)|^2 with all characters equal to j.

    Equals sum over m ~ M with (am/q) = j of |sum over n ~ N with (n/q) = j of
    beta_n T_h(amn)|^2, hence real and nonnegative; R_1 + R_{-1} recovers the
    full Cauchy-Schwarz right side exactly.  Refuses a kernel above _RJ_KERNEL_BYTES.
    """
    if j not in (1, -1):
        raise ValueError("j must be +1 or -1")
    q = inst.q
    leg = legendre_table(q)
    m = np.arange(inst.m_start, 2 * inst.m_start, dtype=np.int64)
    n = np.arange(inst.n_start, 2 * inst.n_start, dtype=np.int64)
    m_sel = m[leg[(inst.a % q) * (m % q) % q] == j]
    n_mask = leg[n % q] == j
    n_sel = n[n_mask]
    if m_sel.size == 0 or n_sel.size == 0:
        return 0.0
    if _ENTRY_BYTES * m_sel.size * n_sel.size > _RJ_KERNEL_BYTES:
        raise SizeGuardError(f"R_j kernel of {m_sel.size} x {n_sel.size} entries refused")
    rows = inst.a * inst.h % q * inst.h % q * (m_sel % q)
    inner = sqrt_phase_buffer(q).take(log_grid(rows, n_sel, q), mode="clip") @ inst.beta.coeffs[n_mask]
    return float(np.sum(np.abs(inner) ** 2))


def a_sum(h: int, lam: int, a: int, m_start: int, q: int) -> complex:
    """A_{h,lambda,a} = sum_{m ~ M} sum_{t^2 = a m} e_q(h t lambda) = sum_m T[a (h lambda)^2 m]."""
    if a % q == 0:
        raise ValueError("need gcd(a, q) = 1")
    twist = h * lam % q
    if twist == 0:  # T_0(c) = 1 + (c/q) is not a read of T
        return complex(root_pair_count(a, m_start, q))
    m = np.arange(m_start, 2 * m_start, dtype=np.int64)
    return complex(np.sum(sqrt_phase_table(q)[a * twist % q * twist % q * (m % q) % q]))


def a_sum_all(h: int, a: int, m_start: int, q: int) -> np.ndarray:
    """A_{h,lambda,a} for every lambda at once, via one FFT of the root counts.

    Write A(lambda) = sum_t c_t e_q(h lambda t) with c_t = #{m ~ M : t^2 = am};
    the FFT gives the transform at all frequencies, reindexed by h*lambda.
    """
    if a % q == 0:
        raise ValueError("need gcd(a, q) = 1")
    m = np.arange(m_start, 2 * m_start, dtype=np.int64)
    roots = residue_roots((a % q) * (m % q) % q, q)
    counts = np.bincount(roots, minlength=q).astype(np.float64)
    spectrum = np.conj(np.fft.fft(counts))  # spectrum[k] = sum_t c_t e_q(k t)
    lam = np.arange(q, dtype=np.int64)
    return spectrum[(h % q) * lam % q]


def root_pair_count(a: int, m_start: int, q: int) -> int:
    """sum over m ~ M of the number of square roots of a*m (mod q)."""
    leg = legendre_table(q)
    m = np.arange(m_start, 2 * m_start, dtype=np.int64)
    residues = (a % q) * (m % q) % q
    return int(np.sum(1 + leg[residues].astype(np.int64)))


# ---------------------------------------------------------------------------
# Envelopes.
# ---------------------------------------------------------------------------


def weyl_envelopes(
    norm2_alpha: float,
    norm_inf_beta: float,
    norm1_beta: float,
    m_start: int,
    n_start: int,
    q: int,
) -> tuple[float, float]:
    """The two bilinear-form envelopes (env1, env2), each times slack_factor(q)
    for the paper's q^{o(1)}.  Both require M, N <= q/2.
    """
    if 2 * m_start > q or 2 * n_start > q:
        raise ValueError("envelopes need M, N <= q/2")
    slack = slack_factor(q)
    body1 = (
        norm2_alpha
        * norm_inf_beta ** (1.0 / 3.0)
        * norm1_beta ** (2.0 / 3.0)
        * q**0.125
        * m_start ** (7.0 / 24.0)
        * n_start**0.125
        * (m_start ** (7.0 / 48.0) / q ** (1.0 / 16.0) + 1.0)
        * (n_start ** (7.0 / 48.0) / q ** (1.0 / 16.0) + 1.0)
    )
    body2 = (
        norm2_alpha
        * norm1_beta**0.75
        * norm_inf_beta**0.25
        * q**0.125
        * m_start ** (5.0 / 16.0)
        * n_start ** (1.0 / 16.0)
        * (m_start ** (3.0 / 16.0) / q**0.125 + 1.0)
        * (n_start ** (3.0 / 16.0) / q**0.125 + 1.0)
    )
    return body1 * slack, body2 * slack


def type1_envelope(
    norm1_alpha: float,
    norm2_alpha: float,
    m_start: int,
    n_start: int,
    q: int,
) -> float:
    """One-sided envelope sqrt(||a||_1 ||a||_2) M^{1/12} N^{7/12} q^{1/4} q^{o(1)}.

    Valid under M*N <= q^{3/2} and M <= N^2.
    """
    if m_start * n_start > q**1.5 or m_start > n_start**2:
        raise ValueError("envelope conditions need MN <= q^{3/2} and M <= N^2")
    body = (
        math.sqrt(norm1_alpha * norm2_alpha)
        * m_start ** (1.0 / 12.0)
        * n_start ** (7.0 / 12.0)
        * q**0.25
    )
    return body * slack_factor(q)


def salie_correlation_envelopes(m_start: int, n_start: int, q: int) -> tuple[float, float]:
    """The two envelopes (env1, env2) for the summed Salie correlations, each
    times slack_factor(q) for the paper's q^{o(1)}."""
    slack = slack_factor(q)
    body1 = (
        q**1.25
        * n_start
        * (m_start**0.875 / q**0.125 + m_start ** (7.0 / 12.0))
        * (n_start**0.875 / q**0.125 + n_start ** (7.0 / 12.0))
    )
    body2 = (
        q**1.25
        * n_start
        * (m_start / q**0.25 + m_start**0.625)
        * (n_start / q**0.25 + n_start**0.625)
    )
    return body1 * slack, body2 * slack


# ---------------------------------------------------------------------------
# Type-I sums and the completed kernel sums along curves.
# ---------------------------------------------------------------------------


def type1_sum(alpha: WeightVector, a: int, h: int, n_start: int, q: int) -> complex:
    """V = W with the n-side weight identically 1 on [N, 2N)."""
    inst = BilinearInstance(q, a, h, alpha, WeightVector.indicator(q, n_start))
    return bilinear_weyl_sum(inst)


def _curve_rows(b: tuple[int, int, int, int], h: int, a: int, s: np.ndarray, q: int) -> np.ndarray:
    """For each s in ``s``: the sum over r in F_q of the four kernel factors
    K(s(r + b_1)) K(s(r + b_2)) conj(K(s(r + b_3)) K(s(r + b_4))),
    where K(x) = sum_{u^2 = a x} e_q(h u) = T[a h^2 x]."""
    if q > _CURVE_SUM_LIMIT:
        raise SizeGuardError(f"curve sum refused for q={q} > {_CURVE_SUM_LIMIT}")
    if a % q == 0 or h % q == 0:
        raise ValueError("need gcd(ah, q) = 1")
    buf = sqrt_phase_buffer(q)
    scale = (a * h % q * h % q) * (s % q)
    r = np.arange(q, dtype=np.int64)
    prod = np.ones((len(s), q), dtype=np.complex128)
    for b_i, conjugate in zip(b, (False, False, True, True)):
        vals = buf.take(log_grid(scale, r + b_i, q), mode="clip")
        prod *= np.conj(vals, out=vals) if conjugate else vals
        del vals  # the next block is not read beside this one
    return prod.sum(axis=1)


def curve_sum_sigma_t(b: tuple[int, int, int, int], t: int, h: int, a: int, q: int) -> complex:
    """Completed fourth-moment kernel sum over (r, s) in F_q^2 with phase e_q(s t).

    O(q^2) by construction; moduli above the guard are refused rather than
    ground through.
    """
    return complex(curve_sum_sigma_all_t(b, h, a, q)[t % q])


def curve_sum_sigma_all_t(b: tuple[int, int, int, int], h: int, a: int, q: int) -> np.ndarray:
    """Sigma(K, b, t) for every t at once: one O(q^2) pass plus a transform."""
    row = _curve_rows(b, h, a, np.arange(q, dtype=np.int64), q)
    # Sigma(t) = sum_s row[s] e_q(s t) = conj(FFT(conj(row)))[t]
    return np.conj(np.fft.fft(np.conj(row)))


def curve_sum_sigma_incomplete(
    b: tuple[int, int, int, int], h: int, a: int, a_param: float, m_start: int, q: int
) -> complex:
    """The incomplete-s version: s runs over 1 <= s <= 2*A*M (needs 2AM < q)."""
    s_max = int(2 * a_param * m_start)
    if s_max >= q:
        raise ValueError("the incomplete range needs 2AM < q")
    return complex(_curve_rows(b, h, a, np.arange(1, s_max + 1, dtype=np.int64), q).sum())


def balanced_curve_parameters(m_start: int, n_start: int) -> tuple[float, float]:
    """The balancing choice A = M^{-1/3} N^{2/3} / 2, B = (MN)^{1/3}."""
    return (
        0.5 * m_start ** (-1.0 / 3.0) * n_start ** (2.0 / 3.0),
        (m_start * n_start) ** (1.0 / 3.0),
    )


def is_diagonal_quadruple(b: tuple[int, int, int, int]) -> bool:
    """True when two entries match the complementary two (the degenerate set)."""
    b1, b2, b3, b4 = b
    return (
        (b1 == b2 and b3 == b4)
        or (b1 == b3 and b2 == b4)
        or (b1 == b4 and b2 == b3)
    )


def variety_count(b: tuple[int, int, int, int], t: int, q: int) -> tuple[int, int]:
    """Exact point counts of the two auxiliary systems behind the curve-sum bound.

    countU: solutions (u, x, y, z) of x^2 = 1 + c1 u, y^2 = 1 + c2 u,
    z^2 = 1 + c3 u over F_q with c_i = b_{i+1} - b_1 (u = 0 included).
    countW: same shape with u replaced by inv(4t) w^2; needs t != 0.
    """
    c = [(b_i - b[0]) % q for b_i in b[1:]]
    if any(ci == 0 for ci in c):
        raise ValueError("need b_1 distinct from the other entries (c_i != 0)")
    leg = legendre_table(q).astype(np.int64)

    def branch_product(base: np.ndarray) -> np.ndarray:
        prod = np.ones(len(base), dtype=np.int64)
        for ci in c:
            vals = (1 + ci * base) % q
            prod *= 1 + leg[vals]
        return prod

    u = np.arange(q, dtype=np.int64)
    count_u = int(np.sum(branch_product(u)))
    if t % q == 0:
        raise ValueError("the twisted count needs t != 0")
    e = inv_mod(4 * t % q, q)
    w = np.arange(q, dtype=np.int64)
    count_w = int(np.sum(branch_product(e * (w * w % q) % q)))
    return count_u, count_w


def variety_multiplicity(b: tuple[int, int, int, int], q: int) -> int:
    """The leading coefficient A(c): 1, 2 or 4 by how many c_i coincide."""
    c = [(b_i - b[0]) % q for b_i in b[1:]]
    distinct = len(set(c))
    if distinct == 3:
        return 1
    if distinct == 2:
        return 2
    return 4


# ---------------------------------------------------------------------------
# Salie-sum correlations.
# ---------------------------------------------------------------------------


def _index_matrix(an: np.ndarray, m: np.ndarray, q: int) -> np.ndarray:
    """The residues an * m mod q as an N x M int64 matrix.

    For the Salie correlation only.  A ``log_grid`` take would serve it too (a
    factor 0 mod q reads table[0]); it stays while ``perfbench`` names it.
    """
    return an[:, None] * (m[None, :] % q) % q


def salie_correlation(a: int, m_start: int, n_start: int, q: int) -> float:
    """sum over n1, n2 ~ N of |sum over m ~ M of S(m, a n1; q) S(m, a n2; q)|.

    Salie values come from the closed form through one cached root-phase
    table, so each term costs a lookup and a symbol.
    """
    if a % q == 0:
        raise ValueError("need gcd(a, q) = 1")
    if m_start * n_start * n_start > 1 << 28:
        raise SizeGuardError("correlation grid too large")
    table = sqrt_phase_table(q)
    leg = legendre_table(q)
    eps = eps_q(q)
    m = np.arange(m_start, 2 * m_start, dtype=np.int64)
    n = np.arange(n_start, 2 * n_start, dtype=np.int64)
    an = (a % q) * (n % q) % q
    smat = (
        table[_index_matrix(4 * an % q, m, q)]  # T_2(a n m) = T(4 a n m)
        * leg[an][:, None].astype(np.float64)
        * (eps * math.sqrt(q))
    )
    gram = smat @ smat.T  # no conjugation: the inner product uses S * S
    return float(np.sum(np.abs(gram)))


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


def weyl_sweep(
    q_values: tuple[int, ...] = (101, 211, 499, 1009, 1999),
    kinds: tuple[str, ...] = ("indicator", "pm1", "phase"),
    instances: int = 20,
    seed: int = 42,
    only_m: int | None = None,
    only_n: int | None = None,
) -> Iterator[dict]:
    """|W| against both envelopes over dyadic (M, N) grids and seeded weights.

    The arguments are checked at the call: a non-positive ``instances``, a
    negative seed, a modulus above TABLE_LIMIT or one that is not an odd prime
    raises here.  The rows then come from an iterator that computes each
    (q, M, N) group only when it is reached, so a reader holds one group's
    rows at a time.

    ``only_m``/``only_n`` restrict the grid to one dyadic start, so only the
    selected cells are computed; each cell's seed stream depends on the cell
    alone, so its rows are those of the full sweep.
    """
    if instances < 1:
        raise ValueError(f"instances must be positive, not {instances}")
    entropy_words((seed,))  # a negative seed raises ValueError here
    grids = []
    for q in q_values:
        if q > TABLE_LIMIT:
            raise SizeGuardError(f"Weyl sweep refused for q={q} > {TABLE_LIMIT}")
        if q % 2 == 0 or not is_prime(q):
            raise ValueError(f"modulus must be an odd prime, got {q}")
        starts = dyadic_starts(q)
        groups = [(m, n) for m in starts if only_m in (None, m) for n in starts if only_n in (None, n)]
        if groups:  # a restriction to a start past q // 2 selects none
            grids.append((q, groups))
    return (row for q, groups in grids for row in _weyl_modulus(q, groups, kinds, instances, seed))


def _weyl_modulus(
    q: int, groups: list[tuple[int, int]], kinds: tuple[str, ...], instances: int, seed: int
) -> Iterator[dict]:
    """The rows of one modulus's (M, N) groups, in order, each group computed when reached.

    Cell (kind_idx, k) of group (M, N) is seeded as default_rng([seed, q, M, N,
    kind_idx, k]) would be; ``seed_states`` hashes the entropy of every cell of
    the modulus in one call, when its first group is reached.
    """
    cells = len(kinds) * instances
    # every word of (q, M, N, kind_idx, k) is below 2^32, so each row of the modulus has one length
    prefix = entropy_words((seed, q))
    words = np.empty((len(groups), cells, len(prefix) + 4), dtype=np.uint32)
    words[:, :, : len(prefix)] = prefix
    words[:, :, len(prefix) : len(prefix) + 2] = np.array(groups, dtype=np.uint32)[:, None, :]
    words[:, :, -2] = np.repeat(np.arange(len(kinds)), instances)
    words[:, :, -1] = np.tile(np.arange(instances), len(kinds))
    states = seed_states(words.reshape(-1, words.shape[-1])).reshape(len(groups), cells, -1)
    for (m_start, n_start), group_states in zip(groups, states):
        yield from _weyl_group(q, m_start, n_start, kinds, instances, group_states)


def _weyl_group(
    q: int, m_start: int, n_start: int, kinds: tuple[str, ...], instances: int, states: np.ndarray
) -> list[dict]:
    """The sweep's rows of one (q, M, N): ``instances`` cells of each weight class.

    Cell (kind_idx, k) draws a, h, alpha and beta, in that order, from the
    seed of its row of ``states`` (``seed_states``, hashed per modulus), as
    default_rng would; ``seeded_cell_draws`` derives the whole group's draws
    from one raw PCG64 block per cell and fills one stack per side, which
    ``weight_norms`` and ``weyl_group_sums`` read per group.  The envelopes
    are computed once per distinct norm triple: every indicator cell of the
    group has the same norms, and so has every pm1 cell.
    """
    cells = [(kind, k) for kind in kinds for k in range(instances)]
    twists, alpha, beta = seeded_cell_draws(q, m_start, n_start, kinds, instances, states)
    norm2_alpha = weight_norms(alpha)[2].tolist()
    norm_inf_beta, norm1_beta, _ = (norm.tolist() for norm in weight_norms(beta))
    c = [a * h % q * h % q for a, h in twists]
    sums = weyl_group_sums(q, c, m_start, n_start, alpha, beta).tolist()
    envelopes = {}
    rows = []
    for (kind, k), (a, h), w, norms in zip(
        cells, twists, sums, zip(norm2_alpha, norm_inf_beta, norm1_beta)
    ):
        if norms not in envelopes:
            envelopes[norms] = weyl_envelopes(*norms, m_start, n_start, q)
        env1, env2 = envelopes[norms]
        measured = abs(w)
        rows.append(
            {
                "q": q,
                "M": m_start,
                "N": n_start,
                "kind": kind,
                "seed": k,
                "a": a,
                "h": h,
                "measured": measured,
                "envelope1": env1,
                "envelope2": env2,
                "ratio1": measured / env1,
                "ratio2": measured / env2,
            }
        )
    return rows


def curve_sweep(
    q_values: tuple[int, ...] = (31, 61, 101),
    quadruples: int = 20,
    seed: int = 9,
) -> list[dict]:
    """max over t of |Sigma(K, b, t)| / q for seeded off-diagonal quadruples b,
    together with the variety point-count deviations |count - A(c) q| / sqrt(q)."""
    rows = []
    for q in q_values:
        rng = np.random.default_rng([seed, q])
        b_cap = max(4, q // 3)
        drawn = 0
        while drawn < quadruples:
            b = tuple(int(v) for v in rng.integers(1, b_cap + 1, size=4))
            if is_diagonal_quadruple(b) or any((bi - b[0]) % q == 0 for bi in b[1:]):
                continue
            drawn += 1
            a = int(rng.integers(1, q))
            h = int(rng.integers(1, q))
            best = float(np.max(np.abs(curve_sum_sigma_all_t(b, h, a, q))))
            mult = variety_multiplicity(b, q)
            count_u, count_w = variety_count(b, 1 + int(rng.integers(0, q - 1)), q)
            rows.append(
                {
                    "q": q,
                    "b": b,
                    "a": a,
                    "h": h,
                    "max_sigma_over_q": best / q,
                    "count_u": count_u,
                    "count_w": count_w,
                    "multiplicity": mult,
                    "dev_u": abs(count_u - mult * q) / math.sqrt(q),
                    "dev_w": abs(count_w - mult * q) / math.sqrt(q),
                }
            )
    return rows


def salie_correlation_sweep(
    q_values: tuple[int, ...] = (101, 211, 499),
    cells_per_q: int = 4,
    seed: int = 3,
) -> list[dict]:
    """Correlation sums against both envelopes for M, N <= q^{2/3}."""
    rows = []
    for q in q_values:
        cap = int(q ** (2.0 / 3.0))
        starts = [s for s in dyadic_starts(q) if 2 * s <= cap]
        if not starts:
            continue
        rng = np.random.default_rng([seed, q])
        for _ in range(cells_per_q):
            m_start = starts[int(rng.integers(0, len(starts)))]
            n_start = starts[int(rng.integers(0, len(starts)))]
            a = int(rng.integers(1, q))
            measured = salie_correlation(a, m_start, n_start, q)
            env1, env2 = salie_correlation_envelopes(m_start, n_start, q)
            rows.append(
                {
                    "q": q,
                    "M": m_start,
                    "N": n_start,
                    "a": a,
                    "measured": measured,
                    "envelope1": env1,
                    "envelope2": env2,
                    "ratio1": measured / env1,
                    "ratio2": measured / env2,
                    "trivial": 16.0 * q * m_start * n_start**2,
                }
            )
    return rows


def type1_sweep(
    q_values: tuple[int, ...] = (101, 211, 499),
    cells_per_q: int = 6,
    seed: int = 13,
) -> list[dict]:
    """Type-I sums against their envelope wherever the side conditions hold."""
    rows = []
    for q in q_values:
        starts = dyadic_starts(q)
        rng = np.random.default_rng([seed, q])
        drawn = 0
        while drawn < cells_per_q:
            m_start = starts[int(rng.integers(0, len(starts)))]
            n_start = starts[int(rng.integers(0, len(starts)))]
            if m_start * n_start > q**1.5 or m_start > n_start**2:
                continue
            drawn += 1
            a = int(rng.integers(1, q))
            h = int(rng.integers(1, q))
            alpha = WeightVector.random_pm1(q, m_start, rng)
            measured = abs(type1_sum(alpha, a, h, n_start, q))
            envelope = type1_envelope(alpha.norm1, alpha.norm2, m_start, n_start, q)
            rows.append(
                {
                    "q": q,
                    "M": m_start,
                    "N": n_start,
                    "a": a,
                    "h": h,
                    "measured": measured,
                    "envelope": envelope,
                    "ratio": measured / envelope,
                }
            )
    return rows

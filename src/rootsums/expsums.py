"""Gauss sums, Salie sums and incomplete square-root sums.

Every closed-form evaluation here is paired with a direct-summation oracle.
``gauss_rows`` and ``salie_rows`` build the direct and closed-form matrices
for any set of rows.  Each row of a direct matrix is a length-q discrete
Fourier transform, so one batched FFT sums a row in O(q log q) instead of
O(q^2).  The exhaustive ``*_all`` sweeps return the maxima that the identity
checks read: they walk every row of a modulus in blocks of about 512 KiB
per matrix, so no q x q matrix is held, and moduli up to a few thousand are
swept in seconds.  Each table read is ``modular.read_products``; no q x q
index is formed.

A sweep keeps its block working set resident: one workspace per modulus (a
complex and a float block in one allocation, next to the modulus's constant
columns, Legendre symbols and the log-ordered buffers of the tables it reads,
the unit roots and, for Salie sums, the root phases; uncached, so they go
with the modulus), refilled for every block through
``read_products(..., out=)`` and in-place ufuncs, so the FFT output is the
only fresh block-sized array.  With a block's worth of fresh arrays,
glibc gave the freed heap back to the OS after every block and faulted it in
again for the next (its dynamic trim threshold is twice the largest freed
block): ``sums --qmax 1000`` took about 967k minor page faults, a third of
its time, against about 86k with the workspace.

Floating-point policy: scalar direct sums accumulate with numpy's pairwise
summation, the exhaustive helpers with pocketfft (neither depends on the
thread count), and identity checks budget IDENTITY_BUDGET * sqrt(q) of error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SizeGuardError
from .modular import (
    TABLE_LIMIT,
    e_q,
    eps_q,
    inv_mod,
    inverse_table,
    kronecker,
    legendre_table,
    log_ordered,
    read_products,
    sqrt_mod,
    table_cache,
)

# Direct summation is O(q) per call, and an all-pairs sweep O(q^2 log q)
# time; refuse instead of silently grinding.  The sweeps' memory is per row
# block (_BLOCK_BYTES per matrix), so ALL_PAIRS_LIMIT guards time only.
DIRECT_SUM_LIMIT = 1 << 24
ALL_PAIRS_LIMIT = 4096
# Bytes of one complex128 block.  The sweeps' complex and float workspaces
# stay resident across blocks, and the one fresh array per block (the FFT
# output, since np.fft has no out= before numpy 2.0) stays under glibc's
# trim threshold, so no block is returned to the OS and faulted in again.
# 512 KiB keeps the peak RSS of ``sums`` at or below that of 1 MiB blocks
# of fresh arrays.
_BLOCK_BYTES = 1 << 19
# Largest error / sqrt(q) that an exact identity evaluated in floats may show.
IDENTITY_BUDGET = 1e-9


def _check_direct(q: int, limit: int = DIRECT_SUM_LIMIT) -> None:
    if q > limit:
        raise SizeGuardError(f"direct summation refused for q={q} > {limit}")


@table_cache(TABLE_LIMIT)
def exp_table(q: int) -> np.ndarray:
    """Unit roots e_q(0..q-1) as a read-only complex array."""
    return np.exp(2j * np.pi * np.arange(q) / q)


@table_cache(TABLE_LIMIT)
def sqrt_phase_table(q: int) -> np.ndarray:
    """T[c] = sum over x with x^2 = c (mod q) of e_q(x), for every residue c.

    The one root-phase table per modulus.  Every twist reads it: substituting
    y = h*x gives T_h(c) = sum_{x^2 = c} e_q(h*x) = T[h^2 * c] for h != 0
    (mod q).  The read is bit for bit the table built for h directly, since
    each entry is 0 plus at most two unit roots from ``exp_table`` and IEEE
    addition commutes, so the order of the two roots does not matter.
    """
    x = np.arange(q, dtype=np.int64)
    table = np.zeros(q, dtype=np.complex128)
    np.add.at(table, x * x % q, exp_table(q))
    return table


@table_cache(TABLE_LIMIT)
def sqrt_phase_buffer(q: int) -> np.ndarray:
    """log_ordered(sqrt_phase_table(q)), which every Weyl cell reads."""
    return log_ordered(sqrt_phase_table(q))


def gauss_sum(a: int, b: int, q: int) -> complex:
    """Direct evaluation of sum over x in F_q of e_q(a*x^2 + b*x); a != 0 (mod q)."""
    a %= q
    b %= q
    if a == 0:
        raise ValueError("quadratic coefficient must be nonzero mod q")
    _check_direct(q)
    x = np.arange(q, dtype=np.int64)
    sq = x * x % q
    return complex(np.sum(exp_table(q)[(a * sq + b * x) % q]))


def gauss_closed_form(a: int, b: int, q: int) -> complex:
    """Closed form e_q(-(4a)^{-1} b^2) * eps_q * sqrt(q) * (a/q), no summation."""
    a %= q
    b %= q
    if a == 0:
        raise ValueError("quadratic coefficient must be nonzero mod q")
    phase = e_q(-inv_mod(4 * a, q) * b * b, q)
    return phase * eps_q(q) * math.sqrt(q) * kronecker(a, q)


def salie_sum(m: int, n: int, q: int) -> complex:
    """Direct evaluation of sum over x in F_q^x of (x/q) e_q(m*x + n*xbar)."""
    _check_direct(q, 1 << 22)
    m %= q
    n %= q
    chi = legendre_table(q)[1:].astype(np.float64)
    x = np.arange(1, q, dtype=np.int64)
    xbar = inverse_table(q)[1:]
    return complex(np.sum(chi * exp_table(q)[(m * x + n * xbar) % q]))


def salie_closed_form(m: int, n: int, q: int) -> complex:
    """sqrt(q) * eps_q * (n/q) * sum over x^2 = m*n of e_q(2x).

    Vanishes exactly when m*n is a quadratic non-residue.  Requires
    gcd(m*n, q) = 1; raises ValueError unless q is an odd prime.
    """
    m %= q
    n %= q
    if m == 0 or n == 0:
        raise ValueError("closed form needs gcd(mn, q) = 1")
    total = sum(e_q(2 * x, q) for x in sqrt_mod(m * n % q, q))
    return math.sqrt(q) * eps_q(q) * kronecker(n, q) * total


def incomplete_sqrt_sum(a: int, h: int, w_limit: int, q: int) -> complex:
    """sum_{w=1..W} sum_{x^2 = a*w} e_q(h*x) for 1 <= W <= q; gcd(ah, q) = 1."""
    a %= q
    h %= q
    if a == 0 or h == 0:
        raise ValueError("incomplete square-root sum needs gcd(ah, q) = 1")
    if not 1 <= w_limit <= q:
        raise ValueError("need 1 <= W <= q")
    w = np.arange(1, w_limit + 1, dtype=np.int64)
    return complex(np.sum(sqrt_phase_table(q)[a * h % q * h % q * w % q]))


def incomplete_sqrt_max(a: int, h: int, q: int) -> float:
    """max over 1 <= W <= q of |incomplete_sqrt_sum(a, h, W, q)|."""
    a %= q
    h %= q
    if a == 0 or h == 0:
        raise ValueError("incomplete square-root sum needs gcd(ah, q) = 1")
    w = np.arange(1, q + 1, dtype=np.int64)
    partial = np.cumsum(sqrt_phase_table(q)[a * h % q * h % q * w % q])
    return float(np.max(np.abs(partial)))


# ---------------------------------------------------------------------------
# Exhaustive per-modulus evaluations (row-wise DFTs of the direct sums).
# ---------------------------------------------------------------------------


def check_all_pairs(q: int) -> None:
    """Raise SizeGuardError if an all-pairs sweep of q is above ALL_PAIRS_LIMIT."""
    if q > ALL_PAIRS_LIMIT:
        raise SizeGuardError(f"all-pairs evaluation refused for q={q} > {ALL_PAIRS_LIMIT}")


def _block_rows(width: int) -> int:
    """Rows per block: a complex128 block of ``width`` columns holds about
    ``_BLOCK_BYTES`` (at least one row)."""
    return max(1, _BLOCK_BYTES // (16 * width))


def _row_blocks(rows: np.ndarray, width: int):
    """Consecutive slices of ``rows`` of ``_block_rows(width)`` rows each."""
    step = _block_rows(width)
    for start in range(0, len(rows), step):
        yield rows[start : start + step]


def _grid(work: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The first rows*width entries of a flat workspace as a C-contiguous matrix."""
    return work[: rows * width].reshape(rows, width)


class _Workspace(NamedTuple):
    """One modulus's constants and buffers, and the block arrays refilled for every read."""

    squares: np.ndarray  # x * x for every x in [0, q)
    units: np.ndarray  # every n in [1, q)
    chi: np.ndarray  # the Legendre symbols (x/q) as float64
    exp_buf: np.ndarray  # log_ordered(exp_table(q))
    phase_buf: np.ndarray | None  # log_ordered(sqrt_phase_table(q)); Salie sweeps only
    grid: np.ndarray  # flat complex128: the FFT input, then the closed form
    modulus: np.ndarray  # flat float64: the moduli of a block


# The complex and float parts are one allocation, sized for reads of ``rows``
# rows.  It is larger than what a block adds on top (the FFT output and the
# read's small chunks), so glibc's trim threshold, twice the largest block it
# has freed, covers the lot and the heap is not given back to the OS after
# each modulus.  Only the Salie closed form reads the root-phase table, so a
# Gauss workspace builds neither it nor its buffer.
def _workspace(q: int, rows: int, phase: bool = False) -> _Workspace:
    x = np.arange(q, dtype=np.int64)
    buffers = (log_ordered(exp_table(q)), log_ordered(sqrt_phase_table(q)) if phase else None)
    floats = np.empty(3 * rows * q)
    grid, modulus = floats[: 2 * rows * q].view(np.complex128), floats[2 * rows * q :]
    return _Workspace(x * x, x[1:], legendre_table(q).astype(np.float64), *buffers, grid, modulus)


def gauss_rows(q: int, a: np.ndarray, work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Direct and closed-form Gauss sums for the rows a (each in [1, q)) and every b in [0, q).

    Returns (direct, closed), each of shape (len(a), q) indexed by [i, b].
    Row a of ``direct`` is the DFT of x -> e_q(a*x^2) read at every b, all
    rows from one inverse FFT with norm="forward", which returns
    sum_x f(x) e_q(b*x) unscaled: O(q log q) per row.  Each row is
    transformed on its own, so a row is bit for bit the same in any row set.
    A sweep passes its ``_workspace``, built once per modulus (without one,
    one for these rows is built); the FFT input and then, once the FFT has
    consumed it, ``closed`` are written at the start of its grid.
    """
    work = _workspace(q, len(a)) if work is None else work
    grid = _grid(work.grid, len(a), q)
    direct = np.fft.ifft(read_products(work.exp_buf, a, work.squares, grid), axis=1, norm="forward")

    closed = read_products(work.exp_buf, -inverse_table(q)[4 * a % q], work.squares, grid)
    closed *= eps_q(q) * math.sqrt(q)
    closed *= work.chi[a][:, None]
    return direct, closed


def salie_rows(q: int, m: np.ndarray, work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Direct and closed-form Salie sums for the rows m (each in [1, q)) and every n in [1, q).

    Returns (direct, closed), each of shape (len(m), q-1) indexed by [i, n-1].
    Substituting y = xbar, row m of ``direct`` is the DFT of
    y -> (y/q) e_q(m*ybar) read at n = 1..q-1; y = 0 contributes 0 because
    the inverse and Legendre tables both hold 0 there.  As in gauss_rows, one
    inverse FFT with norm="forward" sums every row, and the workspace holds
    the FFT input and then ``closed``.  The closed form reads T_2(mn) = T[4mn].
    """
    work = _workspace(q, len(m), phase=True) if work is None else work
    direct = read_products(work.exp_buf, m, inverse_table(q), _grid(work.grid, len(m), q))
    direct *= work.chi
    direct = np.fft.ifft(direct, axis=1, norm="forward")[:, 1:]

    closed = read_products(work.phase_buf, 4 * m, work.units, _grid(work.grid, len(m), q - 1))
    closed *= work.chi[1:]
    closed *= eps_q(q) * math.sqrt(q)
    return direct, closed


def gauss_all(q: int) -> tuple[float, float]:
    """(max |direct - closed|, max ||direct| - sqrt(q)|) over all a in [1, q), b in [0, q).

    The rows of ``gauss_rows`` are swept in blocks, so no (q-1) x q matrix is held.
    """
    check_all_pairs(q)
    work = _workspace(q, min(q - 1, _block_rows(q)))
    err = modulus_err = 0.0
    for a in _row_blocks(work.units, q):
        block_modulus = _grid(work.modulus, len(a), q)
        direct, closed = gauss_rows(q, a, work)
        closed -= direct
        err = max(err, float(np.max(np.abs(closed, out=block_modulus))))
        np.abs(direct, out=block_modulus)
        block_modulus -= math.sqrt(q)
        modulus_err = max(modulus_err, float(np.max(np.abs(block_modulus, out=block_modulus))))
    return err, modulus_err


def salie_all(q: int) -> tuple[float, float]:
    """(max |direct - closed|, max |direct| where (mn/q) = -1) over all m, n in [1, q).

    The rows of ``salie_rows`` are swept in blocks, the m with (m/q) = +1
    first, then those with (m/q) = -1.  A block's non-residue pairs mn are
    then whole columns, those n with (n/q) = -(m/q), where the closed form is
    exactly 0, so one column max of |closed - direct| gives both maxima.
    """
    check_all_pairs(q)
    chi = legendre_table(q)[1:]
    work = _workspace(q, min((q - 1) // 2, _block_rows(q)), phase=True)  # m of one Legendre class
    err = vanish = 0.0
    for sign in (1, -1):
        column_max = np.zeros(q - 1)
        for rows in _row_blocks(work.units[chi == sign], q):
            direct, closed = salie_rows(q, rows, work)
            closed -= direct
            block_modulus = np.abs(closed, out=_grid(work.modulus, len(rows), q - 1))
            np.maximum(column_max, np.max(block_modulus, axis=0), out=column_max)
        err = max(err, float(np.max(column_max)))
        vanish = max(vanish, float(np.max(column_max[chi == -sign])))
    return err, vanish


def incomplete_sqrt_sweep(q_max: int = 2003, pairs_per_q: int = 3, seed: int = 1) -> list[dict]:
    """Measure max_W |incomplete sum| against sqrt(q) * log(q) over a grid.

    One row per (q, a, h) cell with the measured/envelope ratio; the maximum
    ratio over the grid is what the calibration fixture freezes.
    """
    from .primes import primes_between

    rows = []
    for q in primes_between(5, q_max).tolist():
        rng = np.random.default_rng([seed, q])
        for _ in range(pairs_per_q):
            a = int(rng.integers(1, q))
            h = int(rng.integers(1, q))
            measured = incomplete_sqrt_max(a, h, q)
            envelope = math.sqrt(q) * math.log(q)
            rows.append(
                {
                    "q": q,
                    "a": a,
                    "h": h,
                    "measured": measured,
                    "envelope": envelope,
                    "ratio": measured / envelope,
                }
            )
    return rows

"""Gauss sums, Salie sums and incomplete square-root sums.

Every closed-form evaluation here is paired with a direct-summation oracle.
``gauss_rows`` and ``salie_rows`` build the direct and closed-form matrices
for any set of rows.  Each row of a direct matrix is a length-q discrete
Fourier transform, so one batched FFT sums a row in O(q log q) instead of
O(q^2).  The exhaustive ``*_all`` checks return the maxima over every pair of
coefficients that the identity checks read, from the rows they reduce to by
an exact change of variables: rows 1 and nu (the least non-residue) for
Gauss sums, row 1 for Salie sums.  So a modulus costs three FFT rows and
O(q) memory.  Each row reads its table directly at the int64 index products
rows[i] * cols[j] mod q: 2q entries for the two Gauss rows, q - 1 for the
Salie row.

Floating-point policy: scalar direct sums accumulate with numpy's pairwise
summation, the exhaustive helpers with pocketfft (neither depends on the
thread count), and identity checks budget IDENTITY_BUDGET * sqrt(q) of error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeGuardError
from .modular import (
    TABLE_LIMIT,
    e_q,
    eps_q,
    inv_mod,
    inverse_table,
    kronecker,
    least_nonresidue,
    legendre_table,
    log_ordered,
    sqrt_mod,
    table_cache,
)

# Direct summation is O(q) per call; refuse instead of silently grinding.
DIRECT_SUM_LIMIT = 1 << 24
# Bytes per unit of q that one modulus's all-pairs checks hold at their peak:
# the unit-root, root-phase, inverse, Legendre and log tables, the int64 index
# of each table read and the rows.  Under tracemalloc with cold caches,
# gauss_all and salie_all peaked at 137-151 q bytes for q from 10^4 to 10^5;
# 224 is kept as the bound.  ALL_PAIRS_LIMIT keeps a modulus under 64 MiB.
_PAIR_BYTES_PER_Q = 224
ALL_PAIRS_LIMIT = (1 << 26) // _PAIR_BYTES_PER_Q
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
    """log_ordered(sqrt_phase_table(q)), which every kernel read takes (Weyl cells, R_j, curve rows)."""
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
    """Raise SizeGuardError if an all-pairs check of q is above ALL_PAIRS_LIMIT."""
    if q > ALL_PAIRS_LIMIT:
        raise SizeGuardError(f"all-pairs evaluation refused for q={q} > {ALL_PAIRS_LIMIT}")


def gauss_rows(q: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct and closed-form Gauss sums for the rows a (each in [1, q)) and every b in [0, q).

    Returns (direct, closed), each of shape (len(a), q) indexed by [i, b].
    Row a of ``direct`` is the DFT of x -> e_q(a*x^2) read at every b, all
    rows from one inverse FFT with norm="forward", which returns
    sum_x f(x) e_q(b*x) unscaled: O(q log q) per row.  Each row is
    transformed on its own, so a row is bit for bit the same in any row set.
    Both matrices read the unit roots at the int64 index products mod q.
    """
    x = np.arange(q, dtype=np.int64)
    squares, roots = x * x % q, exp_table(q)
    direct = np.fft.ifft(roots[np.multiply.outer(a % q, squares) % q], axis=1, norm="forward")

    closed = roots[np.multiply.outer(-inverse_table(q)[4 * a % q] % q, squares) % q]
    closed *= eps_q(q) * math.sqrt(q)
    closed *= legendre_table(q)[a][:, None]
    return direct, closed


def salie_rows(q: int, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct and closed-form Salie sums for the rows m (each in [1, q)) and every n in [1, q).

    Returns (direct, closed), each of shape (len(m), q-1) indexed by [i, n-1].
    Substituting y = xbar, row m of ``direct`` is the DFT of
    y -> (y/q) e_q(m*ybar) read at n = 1..q-1; y = 0 contributes 0 because
    the inverse and Legendre tables both hold 0 there.  As in gauss_rows, one
    inverse FFT with norm="forward" sums every row, and each table is read at
    the int64 index products mod q.  The closed form reads T_2(mn) = T[4mn].
    """
    chi = legendre_table(q)
    direct = exp_table(q)[np.multiply.outer(m % q, inverse_table(q)) % q]
    direct *= chi
    direct = np.fft.ifft(direct, axis=1, norm="forward")[:, 1:]

    closed = sqrt_phase_table(q)[np.multiply.outer(4 * m % q, np.arange(1, q)) % q]
    closed *= chi[1:]
    closed *= eps_q(q) * math.sqrt(q)
    return direct, closed


def gauss_all(q: int) -> tuple[float, float]:
    """(max |direct - closed|, max ||direct| - sqrt(q)|) over all a in [1, q), b in [0, q).

    Exhaustive by exact substitution: x -> t*x gives G(a, b) = G(a t^2, b t),
    and t with a t^2 = r in {1, nu} (nu the least non-residue) maps row a onto
    a permutation of row r.  The closed form maps the same way: (a/q) = (r/q)
    and (4r)^{-1} (bt)^2 = (4a)^{-1} b^2, so it reads the same unit root with
    the same sign.  The maxima over every pair are those of rows 1 and nu.
    """
    check_all_pairs(q)
    direct, closed = gauss_rows(q, np.array([1, least_nonresidue(q)]))
    closed -= direct
    return float(np.max(np.abs(closed))), float(np.max(np.abs(np.abs(direct) - math.sqrt(q))))


def salie_all(q: int) -> tuple[float, float]:
    """(max |direct - closed|, max |direct| where (mn/q) = -1) over all m, n in [1, q).

    Exhaustive by exact substitution: x -> x/m gives S(m, n) = (m/q) S(1, mn),
    and the closed form is (m/q) times its value at (1, mn) too, a sign flip
    that is exact in floats.  So every pair is a signed pair of row 1, and
    (mn/q) = -1 are its non-residue columns n, where the closed form is
    exactly 0.
    """
    check_all_pairs(q)
    direct, closed = salie_rows(q, np.array([1]))
    err = np.abs(closed[0] - direct[0])
    return float(np.max(err)), float(np.max(err[legendre_table(q)[1:] == -1]))


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

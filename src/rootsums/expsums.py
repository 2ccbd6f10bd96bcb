"""Gauss sums, Salie sums and incomplete square-root sums.

Every closed-form evaluation here is paired with a direct-summation oracle;
the exhaustive ``*_all`` helpers evaluate the direct sums for a whole modulus
at once.  Each row of their direct matrices is a length-q discrete Fourier
transform, so one batched FFT per modulus sums every row in O(q^2 log q)
instead of O(q^3), and moduli up to a few thousand can be swept in seconds.
Each of their table reads is ``modular.read_products``; no q x q index is formed.

Floating-point policy: scalar direct sums accumulate with numpy's pairwise
summation, the exhaustive helpers with pocketfft (neither depends on the
thread count), and identity checks budget 1e-9 * sqrt(q) of error.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import SizeGuardError
from .modular import (
    e_q,
    eps_q,
    inv_mod,
    inverse_table,
    kronecker,
    legendre_table,
    read_products,
    sqrt_mod,
)

# Direct summation is O(q) per call and O(q^2) memory for the all-pairs
# helpers; refuse instead of silently grinding.
DIRECT_SUM_LIMIT = 1 << 24
ALL_PAIRS_LIMIT = 4096


def _check_direct(q: int, limit: int = DIRECT_SUM_LIMIT) -> None:
    if q > limit:
        raise SizeGuardError(f"direct summation refused for q={q} > {limit}")


@lru_cache(maxsize=32)
def exp_table(q: int) -> np.ndarray:
    """Unit roots e_q(0..q-1) as a read-only complex array."""
    w = np.exp(2j * np.pi * np.arange(q) / q)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=32)
def sqrt_phase_table(q: int) -> np.ndarray:
    """T[c] = sum over x with x^2 = c (mod q) of e_q(x), for every residue c.

    The one root-phase table per modulus.  Every twist reads it: substituting
    y = h*x gives T_h(c) = sum_{x^2 = c} e_q(h*x) = T[h^2 * c] for h != 0
    (mod q).  The read is bit for bit the table built for h directly, since
    each entry is 0 plus at most two unit roots from ``exp_table`` and IEEE
    addition commutes, so the order of the two roots does not matter.
    """
    _check_direct(q)
    x = np.arange(q, dtype=np.int64)
    table = np.zeros(q, dtype=np.complex128)
    np.add.at(table, x * x % q, exp_table(q))
    table.flags.writeable = False
    return table


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


def _check_all_pairs(q: int) -> None:
    if q > ALL_PAIRS_LIMIT:
        raise SizeGuardError(f"all-pairs evaluation refused for q={q} > {ALL_PAIRS_LIMIT}")


def gauss_all(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Direct and closed-form Gauss sums for all a in [1,q), b in [0,q).

    Returns (direct, closed), each of shape (q-1, q) indexed by [a-1, b].
    Row a of ``direct`` is the DFT of x -> e_q(a*x^2) read at every b, all
    rows from one inverse FFT with norm="forward", which returns
    sum_x f(x) e_q(b*x) unscaled: O(q^2 log q) per modulus.
    """
    _check_all_pairs(q)
    w = exp_table(q)
    a = np.arange(1, q, dtype=np.int64)
    x = np.arange(q, dtype=np.int64)  # also every b
    direct = np.fft.ifft(read_products(w, a, x * x), axis=1, norm="forward")

    closed = read_products(w, -inverse_table(q)[4 * a % q], x * x)
    closed *= eps_q(q) * math.sqrt(q)
    closed *= legendre_table(q)[a][:, None].astype(np.float64)
    return direct, closed


def salie_all(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Direct and closed-form Salie sums for all m, n in [1, q).

    Returns (direct, closed), each of shape (q-1, q-1) indexed by [m-1, n-1].
    Substituting y = xbar, row m of ``direct`` is the DFT of
    y -> (y/q) e_q(m*ybar) read at n = 1..q-1; y = 0 contributes 0 because
    the inverse and Legendre tables both hold 0 there.  As in gauss_all, one
    inverse FFT with norm="forward" sums every row in O(q^2 log q).  The
    closed form reads T_2(mn) = T[4mn].
    """
    _check_all_pairs(q)
    # read before the q x q temporaries, which sets the peak heap of `sums`
    table = sqrt_phase_table(q)
    w = exp_table(q)
    chi = legendre_table(q)
    m = np.arange(1, q, dtype=np.int64)  # also every n
    rows = read_products(w, m, inverse_table(q))
    rows *= chi.astype(np.float64)
    direct = np.fft.ifft(rows, axis=1, norm="forward")[:, 1:]

    closed = read_products(table, 4 * m, m)
    closed *= chi[m].astype(np.float64)
    closed *= eps_q(q) * math.sqrt(q)
    return direct, closed


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

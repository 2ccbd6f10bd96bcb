"""Prime generation, deterministic primality testing and trial-division factoring."""

from __future__ import annotations

import bisect
import math
from typing import Iterator

import numpy as np

from .errors import SizeGuardError

# psi_k, the least odd composite that is a strong pseudoprime to each of the
# first k primes (Jaeschke, Math. Comp. 61 (1993); psi_12 and psi_13 by
# Sorenson and Webster, Math. Comp. 86 (2017)): Miller-Rabin with those k
# witnesses is deterministic below psi_k, and psi_k itself passes all of them.
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_BLOCK = 1 << 20  # integers per segment of iter_prime_blocks
_WINDOW_LIMIT = 1 << 24  # integers per primes_between window: a 16 MiB mask


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < psi_13 ~ 3.3e24, with the
    first k primes as witnesses for the least k with n < psi_k: at most 4 below
    3,215,031,751, 12 below psi_12 ~ 3.2e23.  Raises ValueError at n >= psi_13."""
    if n < 2:
        return False
    if n >= _PSI[-1]:
        raise ValueError(f"no proven witness set for n >= {_PSI[-1]}")
    witnesses = _MR_WITNESSES[: bisect.bisect_right(_PSI, n) + 1]
    for p in witnesses:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2): primes_between(2, limit),
    so a limit past _WINDOW_LIMIT raises SizeGuardError."""
    return primes_between(2, limit)


def iter_prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """Yield primes <= limit in consecutive ``primes_between`` windows of
    ``_BLOCK`` integers, so memory stays O(_BLOCK) regardless of limit."""
    lo = 2
    while lo <= limit:
        hi = min(lo + _BLOCK - 1, limit)
        yield primes_between(lo, hi)
        lo = hi + 1


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi] via one sieved segment.  A window of more than _WINDOW_LIMIT
    integers raises SizeGuardError before its mask is allocated, and so does the window
    [2, isqrt(hi)] of its base primes, which are sieved the same way."""
    if hi < 2 or hi < lo:
        return np.empty(0, dtype=np.int64)
    lo = max(lo, 2)
    if hi - lo + 1 > _WINDOW_LIMIT:
        raise SizeGuardError(f"prime window [{lo}, {hi}] of more than {_WINDOW_LIMIT} integers refused")
    base = primes_between(2, math.isqrt(hi))
    mask = np.ones(hi - lo + 1, dtype=bool)
    for p in base:
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start <= hi:
            mask[start - lo :: p] = False
    return (np.nonzero(mask)[0] + lo).astype(np.int64)


def factorize(n: int, base_primes: np.ndarray | None = None) -> dict[int, int]:
    """Factor n by trial division; returns {prime: exponent}.

    ``base_primes`` may carry a precomputed prime list covering sqrt(n);
    anything left after dividing out those primes is prime itself.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    factors: dict[int, int] = {}
    if n == 1:
        return factors
    if base_primes is None:
        base_primes = sieve_primes(math.isqrt(n))
    for p in base_primes:
        p = int(p)
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    """Sorted list of the positive divisors of n."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v

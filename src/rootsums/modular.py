"""Exact arithmetic in the prime field F_q for an odd prime q.

Scalar routines (kronecker, inv_mod, sqrt_mod, ...) use Python integers and
stay exact for any odd prime modulus below 2**62.  Four cached tables
(Legendre values, inverses, smallest square roots, and the powers and
discrete logarithms of the least primitive root) cover q < 2**31 and are the
one place where residue structure is computed in bulk; the tests
cross-check them against the scalar routines.

Everything here is pure; the cached tables are read-only and safe to share
between threads.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .primes import factorize, is_prime

TWO_PI = 2.0 * math.pi


def kronecker(a: int, n: int) -> int:
    """Full Kronecker symbol (a/n); n must be nonzero.

    Agrees with the Jacobi symbol for odd n > 0 and with the Legendre symbol
    when n is an odd prime not dividing a.  The extension to even n is what
    lets the quadratic character of -q decide p = 2.
    """
    if n == 0:
        raise ValueError("Kronecker symbol (a/0) is not defined here")
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 == 1 and a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def inv_mod(a: int, q: int) -> int:
    """Inverse of a modulo q, in [1, q-1].  Raises for a == 0 (mod q)."""
    a %= q
    if a == 0:
        raise ValueError("0 is not invertible")
    return pow(a, -1, q)


def eps_q(q: int) -> complex:
    """The quadratic-Gauss-sum normaliser: 1 for q = 1 (mod 4), i for q = 3 (mod 4)."""
    return 1.0 + 0.0j if q % 4 == 1 else 1.0j


def e_q(x: int, q: int) -> complex:
    """exp(2*pi*i*x/q), reducing x mod q first so large x never costs accuracy."""
    return cmath.exp(2j * math.pi * ((x % q) / q))


def reduced_residue(x: int, q: int) -> int:
    """Representative of x mod q in [1, q] (so 0 is represented by q)."""
    r = x % q
    return q if r == 0 else r


def tonelli_shanks(a: int, q: int) -> int | None:
    """One square root of a mod q, or None when a is a non-residue.

    Deterministic: the auxiliary non-residue is found by scanning 2, 3, 5, ...
    Raises ValueError unless q is an odd prime.
    """
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"modulus must be an odd prime, got {q}")
    a %= q
    if a == 0:
        return 0
    if kronecker(a, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    # q = 1 (mod 4): write q-1 = d * 2^s and walk the 2-Sylow subgroup.
    d = q - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while kronecker(z, q) != -1:
        z += 1
    c = pow(z, d, q)
    x = pow(a, (d + 1) // 2, q)
    t = pow(a, d, q)
    m = s
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        c = b * b % q
        t = t * c % q
        m = i
    return x


def sqrt_mod(a: int, q: int) -> tuple[int, ...]:
    """All x in F_q with x^2 = a (mod q), sorted.

    Returns (0,) for a = 0, a pair (r, q-r) for residues, () for non-residues.
    Raises ValueError unless q is an odd prime.
    """
    r = tonelli_shanks(a, q)
    if r is None:
        return ()
    if r == 0:
        return (0,)
    return (r, q - r) if r < q - r else (q - r, r)


@lru_cache(maxsize=32)
def inverse_table(q: int) -> np.ndarray:
    """int64 array inv with inv[a]*a = 1 (mod q) for a in [1, q-1]; inv[0] = 0.

    Uses the batched square-and-multiply a^(q-2); all intermediate products
    stay below 2**62 because q < 2**31 is enforced.
    """
    if q >= 1 << 31:
        raise ValueError("inverse_table supports q < 2**31")
    result = np.ones(q, dtype=np.int64)
    base = np.arange(q, dtype=np.int64)
    e = q - 2
    while e:
        if e & 1:
            result = result * base % q
        base = base * base % q
        e >>= 1
    result[0] = 0
    result.flags.writeable = False
    return result


@lru_cache(maxsize=32)
def legendre_table(q: int) -> np.ndarray:
    """int8 array of Legendre symbols (a/q) for a in [0, q)."""
    if q >= 1 << 31:
        raise ValueError("legendre_table supports q < 2**31")
    table = np.full(q, -1, dtype=np.int8)
    x = np.arange((q + 1) // 2, dtype=np.int64)
    table[x * x % q] = 1
    table[0] = 0
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def root_table(q: int) -> np.ndarray:
    """int64 array mapping residue -> smallest square root, -1 for non-residues."""
    if q >= 1 << 31:
        raise ValueError("root_table supports q < 2**31")
    table = np.full(q, -1, dtype=np.int64)
    x = np.arange((q + 1) // 2, dtype=np.int64)[::-1]
    table[x * x % q] = x
    table.flags.writeable = False
    return table


def primitive_root(q: int) -> int:
    """The least primitive root g of the odd prime q: g^((q-1)/p) != 1 for every p | q-1."""
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"modulus must be an odd prime, got {q}")
    cofactors = [(q - 1) // p for p in factorize(q - 1)]
    g = 2
    while any(pow(g, e, q) == 1 for e in cofactors):
        g += 1
    return g


@lru_cache(maxsize=32)
def log_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(pw, lg): pw[k] = g^k mod q for k in [0, q-1) and its inverse lg[pw[k]] = k.

    g is ``primitive_root(q)``, so pw is a permutation of [1, q-1] and every
    nonzero residue has a discrete logarithm; lg[0] = -1 marks that 0 has
    none.  pw is built in O(log q) doubling steps, pw[k:2k] = pw[:k] * g^k.
    """
    if q >= 1 << 31:
        raise ValueError("log_tables supports q < 2**31")
    g = primitive_root(q)
    pw = np.empty(q - 1, dtype=np.int64)
    pw[0] = 1
    k, step = 1, g  # step = g^k mod q
    while k < q - 1:
        n = min(k, q - 1 - k)
        pw[k : k + n] = pw[:n] * step % q
        k, step = 2 * k, step * step % q
    lg = np.full(q, -1, dtype=np.int64)
    lg[pw] = np.arange(q - 1, dtype=np.int64)
    pw.flags.writeable = False
    lg.flags.writeable = False
    return pw, lg


def residue_roots(residues: np.ndarray, q: int) -> np.ndarray:
    """Every square root mod q of every residue, with multiplicity, from root_table.

    A nonzero quadratic residue contributes r and q - r, 0 contributes 0, and
    a non-residue contributes nothing.  The roots come back unsorted.
    """
    roots = root_table(q)[np.asarray(residues, dtype=np.int64) % q]
    roots = roots[roots >= 0]
    return np.concatenate([roots, q - roots[roots > 0]])

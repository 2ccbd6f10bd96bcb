"""Exact arithmetic in the prime field F_q for an odd prime q.

Scalar routines (kronecker, inv_mod, sqrt_mod, ...) use Python integers and
stay exact for any odd prime modulus below 2**62.  Four cached tables
(Legendre values, inverses, smallest square roots, and the powers and
discrete logarithms of the least primitive root) cover q <= TABLE_LIMIT and
are the one place where residue structure is computed in bulk; the tests
cross-check them against the scalar routines.  ``log_grid`` is the one index
of a product grid: the logs of rows[i] * cols[j], reduced mod q - 1, which a
take from a table's ``log_ordered`` buffer, shifted by the log of a row
multiplier, reads with no bounds check, because ``log_tables`` checks the
range of its logs once, when it builds them.  So one grid serves every row
multiplier.

Every memoised table of the package is declared with ``table_cache``, the
one cache policy: TABLE_CACHE_SIZE entries, read-only results and a size
limit checked before anything is built.  Everything here is pure; the cached
tables are safe to share between threads.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, wraps

import numpy as np

from .errors import SizeGuardError
from .primes import factorize, is_prime

# Every sweep loops over moduli outermost, so a table is read again only
# while its modulus is current; a few entries cover that reuse.
TABLE_CACHE_SIZE = 8
# Largest modulus of a per-modulus table: one int64 table of 2**24 entries is 128 MiB.
TABLE_LIMIT = 1 << 24


def table_cache(limit: int):
    """Memoise a one-key table builder under the package's one cache policy.

    The result is an ``lru_cache`` of TABLE_CACHE_SIZE entries (so
    ``cache_info`` reports it).  A key above ``limit`` raises SizeGuardError
    before the builder runs, and every ndarray returned, alone or in a
    tuple, is marked read-only, so a shared table cannot be edited in place.
    """

    def decorate(build):
        @wraps(build)
        def guarded(key: int):
            if key > limit:
                raise SizeGuardError(f"{build.__name__} refused for {key} > {limit}")
            result = build(key)
            for part in result if isinstance(result, tuple) else (result,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            return result

        return lru_cache(maxsize=TABLE_CACHE_SIZE)(guarded)

    return decorate


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


@table_cache(TABLE_LIMIT)
def inverse_table(q: int) -> np.ndarray:
    """int64 array inv with inv[a]*a = 1 (mod q) for a in [1, q-1]; inv[0] = 0.

    Read off ``log_tables``: the inverse of g^k is g^(-k), so inv[pw[k]] is
    pw[-k mod (q-1)], which is pw reversed and rotated by one.
    """
    pw, _ = log_tables(q)
    result = np.zeros(q, dtype=np.int64)
    result[pw] = np.roll(pw[::-1], 1)
    return result


@table_cache(TABLE_LIMIT)
def legendre_table(q: int) -> np.ndarray:
    """int8 array of Legendre symbols (a/q) for a in [0, q)."""
    table = np.full(q, -1, dtype=np.int8)
    x = np.arange((q + 1) // 2, dtype=np.int64)
    table[x * x % q] = 1
    table[0] = 0
    return table


def least_nonresidue(q: int) -> int:
    """The least quadratic non-residue modulo the odd prime q, read off ``legendre_table``.

    It is prime (a product of residues is a residue) and below q.
    """
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"need an odd prime q, got {q}")
    return int(np.argmax(legendre_table(q) == -1))


@table_cache(TABLE_LIMIT)
def root_table(q: int) -> np.ndarray:
    """int64 array mapping residue -> smallest square root, -1 for non-residues."""
    table = np.full(q, -1, dtype=np.int64)
    x = np.arange((q + 1) // 2, dtype=np.int64)[::-1]
    table[x * x % q] = x
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


@table_cache(TABLE_LIMIT)
def log_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(pw, lg): pw[k] = g^k mod q for k in [0, q-1) and its inverse lg[pw[k]] = k.

    g is ``primitive_root(q)``, so pw is a permutation of [1, q-1] and every
    nonzero residue has a discrete logarithm.  0 has none: lg[0] = 2(q-1)
    points past the two periods of a ``log_ordered`` buffer, into its run of
    table[0].  pw is built in O(log q) doubling steps, pw[k:2k] = pw[:k] * g^k.
    lg passes ``_check_log_range`` once, when it is built, and so every
    shifted take at a ``log_grid`` is in range.
    """
    g = primitive_root(q)
    pw = np.empty(q - 1, dtype=np.int64)
    pw[0] = 1
    k, step = 1, g  # step = g^k mod q
    while k < q - 1:
        n = min(k, q - 1 - k)
        pw[k : k + n] = pw[:n] * step % q
        k, step = 2 * k, step * step % q
    lg = np.full(q, 2 * (q - 1), dtype=np.int64)
    lg[pw] = np.arange(q - 1, dtype=np.int64)
    _check_log_range(lg)
    return pw, lg


def _check_log_range(lg: np.ndarray) -> None:
    """Raise unless lg[0] = 2(q - 1) and every other entry lies in [0, q - 2], q = len(lg).

    Then every sum lg[c] + L of a shift and a ``log_grid`` entry lies in
    [0, 4(q - 1)], the index range of a ``log_ordered`` buffer of 4q - 3 entries.
    """
    q = len(lg)
    if lg[0] != 2 * (q - 1) or lg[1:].min() < 0 or lg[1:].max() > q - 2:
        raise ValueError(f"discrete logs of modulus {q} out of range")


def log_ordered(table: np.ndarray) -> np.ndarray:
    """The read-only buffer of ``log_grid`` takes for a table of prime length q: table[g^k]
    for two periods of k, then 2q - 1 copies of table[0] (4q - 3 entries), so a shift of
    lg[0] = 2(q - 1) at a grid entry of 2(q - 1) still reads table[0].  Its readers are the
    complex phase tables; residue counts take the log order pw alone (``log_tables``)."""
    pw, _ = log_tables(len(table))
    buf = np.concatenate([table[pw], table[pw], np.full(2 * len(table) - 1, table[0])])
    buf.flags.writeable = False
    return buf


# Entries per chunk of log_grid, which bounds the uint64 temporaries of a Weyl column block.
_READ_CHUNK = 1 << 13


def log_grid(rows: np.ndarray, cols: np.ndarray, q: int) -> np.ndarray:
    """The int64 grid L of the logs of rows[i] * cols[j], reduced mod q - 1, with
    L = 2(q - 1) where rows[i] or cols[j] is 0 (mod q).

    The package's one product-grid index, shifted by the log of a multiplier c:
    for buf = ``log_ordered(table)``, buf[lg[c]:].take(L) is
    table[c * rows[i] * cols[j] mod q] for every (i, j), bit for bit, since
    lg[c] + L is the log of that product within the first two periods, or a
    point in the run of table[0] when the product is 0.  So cells that differ
    only in c share one L, and c = 1 (lg[1] = 0) is the plain read.  lg[c] and
    L both lie in [0, q - 2] or at 2(q - 1), so every index lies in
    [0, 4(q - 1)] = [0, len(buf) - 1] and a take(mode="clip") clips nothing.

    L is built about _READ_CHUNK entries at a time: each chunk is the sum of
    two logs in [0, 2q - 4], reduced as min(s, s - (q - 1)) in uint64, where
    s - (q - 1) wraps past every log for s < q - 1.
    """
    _, lg = log_tables(q)
    logs = lg.view(np.uint64)
    row_logs, col_logs = logs[rows % q], logs[cols % q]
    grid = np.empty((len(row_logs), len(col_logs)), dtype=np.uint64)
    step = max(1, _READ_CHUNK // max(1, len(col_logs)))
    for start in range(0, len(row_logs), step):
        part = grid[start : start + step]
        np.add.outer(row_logs[start : start + step], col_logs, out=part)
        np.minimum(part, part - np.uint64(q - 1), out=part)
    grid[row_logs == 2 * (q - 1)] = 2 * (q - 1)
    grid[:, col_logs == 2 * (q - 1)] = 2 * (q - 1)
    return grid.view(np.int64)


def residue_roots(residues: np.ndarray, q: int) -> np.ndarray:
    """Every square root mod q of every residue, with multiplicity, from root_table.

    A nonzero quadratic residue contributes r and q - r, 0 contributes 0, and
    a non-residue contributes nothing.  The roots come back unsorted.
    """
    roots = root_table(q)[np.asarray(residues, dtype=np.int64) % q]
    roots = roots[roots >= 0]
    return np.concatenate([roots, q - roots[roots > 0]])

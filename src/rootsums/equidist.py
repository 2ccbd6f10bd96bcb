"""Exact extreme discrepancy, the Erdos-Turan bound, and root-of-prime sequences.

Discrepancy here is the unnormalised supremum over half-open intervals
[alpha, beta) of |count - (beta - alpha) * N| for a multiset of points in
[0, 1).  The production algorithm is the sorted sweep
D = N * (D_plus + D_minus); its ground truth is an O(C^2) oracle that
evaluates the count deviation on every pair of critical endpoints (point
values and their left limits, realised with strict/non-strict counting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SizeGuardError
from .expsums import sqrt_phase_table
from .modular import legendre_table, log_ordered, read_products, residue_roots, root_table
from .primes import sieve_primes
from .weights import slack_factor

# Prime pairs (p, r) that ``product_root_points`` reads: ``delta_q`` peaks at
# about 40 B per pair, so 2^22 pairs hold about 160 MiB.
PRODUCT_PAIR_LIMIT = 1 << 22


@dataclass(frozen=True)
class PointMultiset:
    """Sorted points in [0, 1), duplicates allowed."""

    points: np.ndarray

    @classmethod
    def from_values(cls, values) -> "PointMultiset":
        arr = np.sort(np.asarray(values, dtype=np.float64))
        if arr.size and (arr[0] < 0.0 or arr[-1] >= 1.0):
            raise ValueError("points must lie in [0, 1)")
        arr.flags.writeable = False
        return cls(arr)

    @property
    def size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Exact discrepancy with a witnessing interval and optional envelope data."""

    n_points: int
    value: float
    witness: tuple[float, float]
    envelope: float | None = None

    @property
    def ratio(self) -> float | None:
        if self.envelope is None:
            return None
        return self.value / self.envelope if self.envelope else math.inf


def _as_sorted(points) -> np.ndarray:
    if isinstance(points, PointMultiset):
        return points.points
    return np.sort(np.asarray(points, dtype=np.float64))


def discrepancy(points) -> DiscrepancyReport:
    """Extreme discrepancy via the sorted sweep D = N * (D_plus + D_minus).

    The witness endpoints are the argmax locations of the two one-sided
    deviations; the right endpoint is approached as a left limit when the
    supremum is not attained.
    """
    xs = _as_sorted(points)
    n = xs.size
    if n == 0:
        return DiscrepancyReport(0, 0.0, (0.0, 0.0))
    i = np.arange(1, n + 1, dtype=np.float64)
    plus = i / n - xs
    minus = xs - (i - 1) / n
    d_plus = max(float(plus.max()), 0.0)
    d_minus = max(float(minus.max()), 0.0)
    beta = float(xs[int(np.argmax(plus))]) if d_plus > 0 else 1.0
    alpha = float(xs[int(np.argmax(minus))]) if d_minus > 0 else 0.0
    lo, hi = (alpha, beta) if alpha <= beta else (beta, alpha)
    return DiscrepancyReport(n, n * (d_plus + d_minus), (lo, hi))


def discrepancy_oracle(points) -> float:
    """Ground-truth discrepancy from all pairs of critical endpoints.

    Candidates are (t, count strictly below t) and (t, count up to t) for
    every point value t, plus the interval ends; the second kind realises the
    left-limit endpoints exactly.  O(C^2) in the number of candidates.
    """
    xs = _as_sorted(points)
    n = xs.size
    if n == 0:
        return 0.0
    if n > 5000:
        raise SizeGuardError("oracle restricted to modest multisets")
    values = np.unique(xs)
    below = np.searchsorted(xs, values, side="left").astype(np.float64)
    upto = np.searchsorted(xs, values, side="right").astype(np.float64)
    t = np.concatenate(([0.0, 1.0], values, values))
    c = np.concatenate(([0.0, float(n)], below, upto))
    dev = c - n * t
    return float(np.max(dev) - np.min(dev))


def erdos_turan_bound(abs_sums, n_points: int) -> np.ndarray:
    """3 * (N/(H+1) + sum_{h<=H} |S_h| / h) at every H = 1..len(abs_sums).

    ``abs_sums[h - 1]`` is |S_h| = |sum_n e(h x_n)|; entry H - 1 of the result
    is the bound at H, all from one cumulative sum.
    """
    sums = np.asarray(abs_sums, dtype=np.float64)
    if sums.size < 1:
        raise ValueError("need H >= 1")
    h = np.arange(1, sums.size + 1, dtype=np.float64)
    return 3.0 * (n_points / (h + 1.0) + np.cumsum(sums / h))


def point_exponential_sums(points, h_max: int) -> np.ndarray:
    """|S_h| for h = 1..H, S_h = sum_n e(h x_n), one exponential per h.

    The direct path for an arbitrary multiset of floats, and the oracle of
    ``grid_exponential_sums``, which reads the same sums for points t/q off
    one FFT.
    """
    xs = _as_sorted(points)
    out = np.empty(h_max, dtype=np.float64)
    for h in range(1, h_max + 1):
        out[h - 1] = abs(np.sum(np.exp(2j * np.pi * h * xs)))
    return out


def grid_exponential_sums(counts, h_max: int) -> np.ndarray:
    """|S_h| for h = 1..H of the points t/q taken counts[t] times, q = len(counts).

    S_h = sum_t counts[t] e(h t/q) is the conjugate of entry h mod q of the
    FFT of the real counts, so one FFT gives every |S_h|; h wraps mod q when
    H >= q.
    """
    counts = np.asarray(counts, dtype=np.float64)
    mags = np.abs(np.fft.fft(counts))
    return mags[np.arange(1, h_max + 1) % counts.size]


# ---------------------------------------------------------------------------
# Root sequences.
# ---------------------------------------------------------------------------


def prime_root_counts(p_limit: float, q: int) -> np.ndarray:
    """c[t] = number of primes p <= P, p a nonzero residue mod q, with t^2 = p (mod q), as int64."""
    residues = sieve_primes(int(p_limit)) % q
    roots = residue_roots(residues[residues != 0], q)
    return np.bincount(roots, minlength=q)


def prime_root_points(p_limit: float, q: int) -> PointMultiset:
    """Multiset {x/q : x^2 = p (mod q), p prime <= P, p a residue mod q}."""
    counts = prime_root_counts(p_limit, q)
    return PointMultiset.from_values(np.repeat(np.arange(q), counts) / q)


def product_root_points(p_limit: float, r_limit: float, q: int) -> PointMultiset:
    """Multiset {x/q : x^2 = p*r (mod q)} over ordered prime pairs p <= P, r <= R.

    Multiplicity is preserved: distinct pairs with the same product residue
    contribute separate copies of both roots.  Refuses over PRODUCT_PAIR_LIMIT pairs.
    """
    p_primes, r_primes = sieve_primes(int(p_limit)), sieve_primes(int(r_limit))
    if p_primes.size * r_primes.size > PRODUCT_PAIR_LIMIT:
        raise SizeGuardError(f"product roots of {p_primes.size} x {r_primes.size} prime pairs refused")
    roots = read_products(log_ordered(root_table(q)), p_primes, r_primes)
    roots = roots[roots > 0]  # drops the non-residues (-1) and the products 0 mod q
    return PointMultiset.from_values(np.concatenate([roots, q - roots]) / q)


def root_discrepancy_envelope(p_limit: float, q: int) -> float:
    """Envelope (q^{61/1760} P^{61/66} + q^{13/110} P^{9/11}) q^{o(1)} for the
    prime-root discrepancy."""
    body = q ** (61.0 / 1760.0) * p_limit ** (61.0 / 66.0) + q ** (13.0 / 110.0) * p_limit ** (
        9.0 / 11.0
    )
    return body * slack_factor(q)


def product_discrepancy_envelope(p_limit: float, r_limit: float, q: int) -> float:
    """Envelope q^{1/8} (PR)^{19/24} (P^{7/48}/q^{1/16} + 1)(R^{7/48}/q^{1/16} + 1) q^{o(1)}."""
    body = (
        q**0.125
        * (p_limit * r_limit) ** (19.0 / 24.0)
        * (p_limit ** (7.0 / 48.0) / q ** (1.0 / 16.0) + 1.0)
        * (r_limit ** (7.0 / 48.0) / q ** (1.0 / 16.0) + 1.0)
    )
    return body * slack_factor(q)


def gamma_q(p_limit: float, q: int) -> DiscrepancyReport:
    """Exact discrepancy of the prime-root multiset together with its envelope."""
    report = discrepancy(prime_root_points(p_limit, q))
    return replace(report, envelope=root_discrepancy_envelope(p_limit, q))


def delta_q(p_limit: float, r_limit: float, q: int) -> DiscrepancyReport:
    """Exact discrepancy of the product-root multiset together with its envelope."""
    report = discrepancy(product_root_points(p_limit, r_limit, q))
    return replace(report, envelope=product_discrepancy_envelope(p_limit, r_limit, q))


# ---------------------------------------------------------------------------
# Exponential sums over roots of primes and the coverage check.
# ---------------------------------------------------------------------------


def s_q_sum(h: int, p_limit: float, q: int) -> complex:
    """S_q(h, P) = sum over residue primes p <= P of sum_{x^2 = p} e_q(h x) = T[h^2 p]."""
    if h % q == 0:
        raise ValueError("need gcd(h, q) = 1")
    primes = sieve_primes(int(p_limit))
    if primes.size == 0:
        return 0.0 + 0.0j
    leg = legendre_table(q)
    residues = primes[leg[primes % q] == 1] % q
    return complex(np.sum(sqrt_phase_table(q)[h * h % q * residues % q]))


def _lambda_terms(h: int, n: int, q: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Lambda(k) T[h^2 k] at every k <= n, and the prime powers (p^j, j) with j >= 2."""
    if h % q == 0:
        raise ValueError("need gcd(h, q) = 1")
    table = sqrt_phase_table(q)
    twist = h * h % q
    terms = np.zeros(max(n, 0) + 1, dtype=np.complex128)
    prime_powers: list[tuple[int, int]] = []
    for p in sieve_primes(n):
        p = int(p)
        logp = math.log(p)
        pk, j = p, 1
        while pk <= n:
            terms[pk] = logp * table[twist * pk % q]
            if j >= 2:
                prime_powers.append((pk, j))
            pk *= p
            j += 1
    return terms, prime_powers


def lambda_weighted_sum(h: int, p_limit: float, q: int) -> complex:
    """The von Mangoldt weighted version: sum_{k <= P} Lambda(k) sum_{x^2 = k} e_q(h x)."""
    terms, _ = _lambda_terms(h, int(p_limit), q)
    return complex(np.sum(terms))


def prime_sum_from_weighted(h: int, p_limit: float, q: int) -> complex:
    """Recover S_q(h, P) from the Lambda-weighted partial sums by partial summation.

    Abel summation converts sum Lambda(k) g(k) / log k into an integral of the
    weighted partial sums; the remaining prime-power terms (weight 1/j at p^j)
    are subtracted explicitly.
    """
    n = int(p_limit)
    terms, prime_powers = _lambda_terms(h, n, q)
    if n < 2:
        return 0.0 + 0.0j
    table = sqrt_phase_table(q)
    twist = h * h % q
    partial = np.cumsum(terms)  # partial[k] = weighted sum up to k
    k = np.arange(2, n, dtype=np.float64)
    weights = 1.0 / np.log(k) - 1.0 / np.log(k + 1.0)
    total = partial[n] / math.log(n) + np.sum(partial[2:n] * weights)
    for pk, j in prime_powers:
        total -= table[twist * pk % q] / j
    if q <= n:
        total -= table[0]  # p = q is ramified and not part of S_q
    return complex(total)


@dataclass(frozen=True)
class CoverageReport:
    q: int
    covered: int
    fraction: float
    missing: tuple[int, ...]
    threshold_ratio: float


def eos_coverage(q: int, p_limit: float, r_limit: float, s_limit: int) -> CoverageReport:
    """Mark residues representable as p*r*s^2 with primes p <= P, r <= R and s <= S.

    The threshold ratio (PR)^{3/16} S / q^{9/8} is reported, not asserted; the
    covering claim's constant is inexplicit.
    """
    if q > 5000:
        raise SizeGuardError("coverage scan restricted to q <= 5000")
    ps = sieve_primes(int(p_limit)) % q
    rs = sieve_primes(int(r_limit)) % q
    marked = np.zeros(q, dtype=bool)
    for p in np.unique(ps):
        marked[(int(p) * np.unique(rs)) % q] = True
    marked[0] = False
    squares = np.unique(np.arange(1, min(int(s_limit), q) + 1, dtype=np.int64) ** 2 % q)
    squares = squares[squares != 0]
    covered = np.zeros(q, dtype=bool)
    base = np.nonzero(marked)[0]
    for t in squares:
        covered[base * int(t) % q] = True
    covered[0] = False
    hit = int(np.count_nonzero(covered))
    missing = tuple(int(v) for v in np.nonzero(~covered)[0][1:])
    threshold = (p_limit * r_limit) ** (3.0 / 16.0) * s_limit / q ** (9.0 / 8.0)
    return CoverageReport(
        q=q,
        covered=hit,
        fraction=hit / (q - 1),
        missing=missing,
        threshold_ratio=threshold,
    )


def gamma_sweep(
    q_values: tuple[int, ...] = (503, 1009, 2003, 5003),
    exponents: tuple[float, ...] = (0.7, 0.85, 1.0),
) -> list[dict]:
    """Discrepancy of prime-root sequences against the envelope and the trivial bound."""
    rows = []
    for q in q_values:
        for expo in exponents:
            p_limit = int(round(q**expo))
            report = gamma_q(p_limit, q)
            trivial = 2.0 * len(sieve_primes(p_limit))
            rows.append(
                {
                    "q": q,
                    "P": p_limit,
                    "exponent": expo,
                    "n_points": report.n_points,
                    "discrepancy": report.value,
                    "envelope": report.envelope,
                    "ratio": report.ratio,
                    "trivial_bound": trivial,
                }
            )
    return rows


def product_discrepancy_sweep(
    q_values: tuple[int, ...] = (211, 499, 1009),
    exponents: tuple[float, ...] = (0.5, 0.7),
) -> list[dict]:
    """Discrepancy of product-root sequences with P = R = q^e against the envelope."""
    rows = []
    for q in q_values:
        for expo in exponents:
            limit = int(round(q**expo))
            report = delta_q(limit, limit, q)
            rows.append(
                {
                    "q": q,
                    "P": limit,
                    "R": limit,
                    "exponent": expo,
                    "n_points": report.n_points,
                    "discrepancy": report.value,
                    "envelope": report.envelope,
                    "ratio": report.ratio,
                }
            )
    return rows

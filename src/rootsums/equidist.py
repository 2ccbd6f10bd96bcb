"""Exact extreme discrepancy, the Erdos-Turan bound, and root-of-prime sequences.

Discrepancy here is the unnormalised supremum over half-open intervals
[alpha, beta) of |count - (beta - alpha) * N| for a multiset of points in
[0, 1).  A root sequence is an int64 count vector c, the point t/q taken c[t]
times, read off residue histograms of the primes (``residue_counts``, one walk
per cutoff), and ``count_discrepancy`` gives its q * D exactly.  Float
multisets take the sorted sweep D = N * (D_plus + D_minus), checked by an
O(C^2) oracle over all pairs of critical endpoints (point values and their
left limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .expsums import sqrt_phase_table
from .modular import log_tables
from .primes import iter_prime_blocks, sieve_primes
from .weights import slack_factor


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


def discrepancy(points) -> DiscrepancyReport:
    """Extreme discrepancy via the sorted sweep D = N * (D_plus + D_minus).

    The witness endpoints are the argmax locations of the two one-sided
    deviations; the right endpoint is approached as a left limit when the
    supremum is not attained.
    """
    xs = np.sort(np.asarray(points, dtype=np.float64))
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
    xs = np.sort(np.asarray(points, dtype=np.float64))
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
    xs = np.sort(np.asarray(points, dtype=np.float64))
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


def residue_counts(limit: float, moduli) -> list[np.ndarray]:
    """h[s] = #{primes p <= limit, p = s (mod q)} as int64 for each q of ``moduli``, h[0] = 0.

    The one step from a prime cutoff to counts: a single walk of ``iter_prime_blocks``, one
    ``np.bincount`` per block and modulus, so memory is O(sum of moduli + one block).  pi(limit)
    is h.sum() + (q <= limit) for any of the moduli.
    """
    hists = [np.zeros(q, dtype=np.int64) for q in moduli]
    for block in iter_prime_blocks(int(limit)):
        for hist in hists:
            hist += np.bincount(block % hist.size, minlength=hist.size)
    for hist in hists:
        hist[0] = 0
    return hists


def _root_counts(hist: np.ndarray) -> np.ndarray:
    """c[t] = hist[t^2 mod q], the root counts of a residue histogram (hist[0] = 0, so c[0] = 0)."""
    return hist[np.arange(hist.size) ** 2 % hist.size]


def prime_root_counts(p_limit: float, q: int) -> np.ndarray:
    """c[t] = number of primes p <= P, p a nonzero residue mod q, with t^2 = p (mod q), as int64."""
    return _root_counts(residue_counts(p_limit, (q,))[0])


def prime_root_points(p_limit: float, q: int) -> np.ndarray:
    """Sorted points x/q, x^2 = p (mod q), over primes p <= P nonzero mod q: the float oracle of the counts."""
    return np.repeat(np.arange(q), prime_root_counts(p_limit, q)) / q


def product_root_counts(hist_p: np.ndarray, hist_r: np.ndarray) -> np.ndarray:
    """c[t] = number of ordered pairs (p, r) of the two residue histograms with t^2 = p r != 0 (mod q).

    In discrete logs the histogram of p r is the cyclic convolution over Z/(q - 1) of those of
    p and r: one FFT product of length 2^k >= 2(q - 1), rounded.  Percival, Math. Comp. 72
    (2003), Thm 5.1 bounds its error by |a| |b| ((1 + eps)^3k (1 + eps sqrt 5)^(3k + 1)
    (1 + beta)^3k - 1), with eps = 2^-53 and beta = 2^-50 bounding the error of numpy's roots
    of unity (the tests check it); a bound >= 1/2 is refused (SizeGuardError).
    """
    q = hist_p.size
    pw, _ = log_tables(q)
    a, b = hist_p[pw], hist_r[pw]
    k, eps, beta = (2 * q - 3).bit_length(), 2.0**-53, 2.0**-50
    growth = 3 * k * (math.log1p(eps) + math.log1p(beta)) + (3 * k + 1) * math.log1p(eps * 5**0.5)
    bound = float(np.linalg.norm(a) * np.linalg.norm(b)) * math.expm1(growth)
    if bound >= 0.5:
        raise SizeGuardError(f"product counts mod {q}: FFT rounding bound {bound:.3g} >= 1/2")
    linear = np.fft.ifft(np.fft.fft(a, 1 << k) * np.fft.fft(b, 1 << k)).real[: 2 * (q - 1)]
    hist = np.zeros(q, dtype=np.int64)
    hist[pw] = np.rint(linear).astype(np.int64).reshape(2, q - 1).sum(axis=0)
    return _root_counts(hist)


def count_discrepancy(counts) -> tuple[int, tuple[int, int]]:
    """q * D, exactly, of the points t/q taken counts[t] times (q = len(counts)), and a witness.

    With n = sum(counts), U(t) = counts[:t + 1].sum() and B(t) = U(t) - counts[t], q * D is
    max - min over the candidates 0, q B(t) - n t (number 2t) and q U(t) - n t (2t + 1).  The
    witness lo <= hi is their argmin and argmax, in order, and it realises q * D:
    |q * counts[(lo + 1) // 2 : (hi + 1) // 2].sum() - n * (hi // 2 - lo // 2)| = q * D."""
    counts = np.asarray(counts, dtype=np.int64)
    q, n = counts.size, int(counts.sum())
    if q * n >= 1 << 63:
        raise SizeGuardError(f"q n = {q * n} overflows the exact discrepancy")
    upto, nt = np.cumsum(counts), n * np.arange(q, dtype=np.int64)
    dev = np.stack([q * (upto - counts) - nt, q * upto - nt], axis=1).ravel()  # dev[0] = 0: candidate 0
    lo, hi = int(np.argmin(dev)), int(np.argmax(dev))
    return int(dev[hi]) - int(dev[lo]), (min(lo, hi), max(lo, hi))


def _count_report(counts: np.ndarray, envelope: float) -> DiscrepancyReport:
    q, (qd, (lo, hi)) = counts.size, count_discrepancy(counts)
    return DiscrepancyReport(int(counts.sum()), qd / q, (lo // 2 / q, hi // 2 / q), envelope)


def root_discrepancy_envelope(p_limit: float, q: int) -> float:
    """Envelope (q^{61/1760} P^{61/66} + q^{13/110} P^{9/11}) q^{o(1)} for the
    prime-root discrepancy."""
    body = q ** (61.0 / 1760.0) * p_limit ** (61.0 / 66.0) + q ** (13.0 / 110.0) * p_limit ** (9.0 / 11.0)
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


def gamma_q(hist: np.ndarray, p_limit: float) -> DiscrepancyReport:
    """Exact discrepancy of the prime-root counts of a residue histogram (primes <= P) and its envelope."""
    return _count_report(_root_counts(hist), root_discrepancy_envelope(p_limit, hist.size))


def delta_q(hist_p: np.ndarray, hist_r: np.ndarray, p_limit: float, r_limit: float) -> DiscrepancyReport:
    """Exact discrepancy of the product-root counts of two residue histograms and its envelope."""
    counts = product_root_counts(hist_p, hist_r)
    return _count_report(counts, product_discrepancy_envelope(p_limit, r_limit, hist_p.size))


# ---------------------------------------------------------------------------
# Exponential sums over roots of primes and the coverage check.
# ---------------------------------------------------------------------------


def s_q_sum(h: int, p_limit: float, q: int) -> complex:
    """S_q(h, P) = sum over residue primes p <= P of sum_{x^2 = p} e_q(h x) = sum_s hist[s] T[h^2 s].

    T vanishes at non-residues and hist[0] = 0, so the residue histogram of the primes is all it reads.
    The products are summed by numpy's pairwise reduction, not a BLAS dot, so the value does not
    depend on the BLAS thread count.
    """
    if h % q == 0:
        raise ValueError("need gcd(h, q) = 1")
    (hist,) = residue_counts(p_limit, (q,))
    return complex(np.sum(hist * sqrt_phase_table(q)[h * h % q * np.arange(q) % q]))


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
    hists = {limit: residue_counts(limit, (q,))[0] for limit in {int(p_limit), int(r_limit)}}
    rs = np.flatnonzero(hists[int(r_limit)])
    marked = np.zeros(q, dtype=bool)
    for p in np.flatnonzero(hists[int(p_limit)]):
        marked[int(p) * rs % q] = True
    squares = np.unique(np.arange(1, min(int(s_limit), q) + 1, dtype=np.int64) ** 2 % q)
    covered = np.zeros(q, dtype=bool)
    base = np.nonzero(marked)[0]
    for t in squares:
        covered[base * int(t) % q] = True
    covered[0] = False
    hit = int(np.count_nonzero(covered))
    missing = tuple(int(v) for v in np.nonzero(~covered)[0][1:])
    threshold = (p_limit * r_limit) ** (3.0 / 16.0) * s_limit / q ** (9.0 / 8.0)
    return CoverageReport(q, hit, hit / (q - 1), missing, threshold)


def gamma_sweep(
    q_values: tuple[int, ...] = (503, 1009, 2003, 5003),
    exponents: tuple[float, ...] = (0.7, 0.85, 1.0),
) -> list[dict]:
    """Discrepancy of prime-root sequences against the envelope and the trivial bound."""
    rows = []
    for q in q_values:
        for expo in exponents:
            p_limit = int(round(q**expo))
            (hist,) = residue_counts(p_limit, (q,))
            report = gamma_q(hist, p_limit)
            trivial = 2.0 * (int(hist.sum()) + (q <= p_limit))  # 2 pi(P)
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
            (hist,) = residue_counts(limit, (q,))
            report = delta_q(hist, hist, limit, limit)
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

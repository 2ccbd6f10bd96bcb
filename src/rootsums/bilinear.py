"""Bilinear forms in Weyl sums for modular square roots, and their bound sweeps.

The main object is
    W = sum_{m ~ M} sum_{n ~ N} alpha_m beta_n sum_{x^2 = a m n} e_q(h x),
evaluated against a precomputed root-phase table, never by per-term root
extraction.  The kernel depends on (m, n) only through amn, and the twist
folds into the row multiplier, since T_h(amn) = T(h^2 amn) for the one
root-phase table T of the modulus; so the M x N kernel is
``read_products(T, a h^2 m, n)``, the product-grid read of ``modular``.

Around W sit the pieces the bound analysis decomposes it into: the
character-restricted sums R_j, the root correlation sums A_{h,lambda,a},
one-sided (Type-I) sums, completed kernel fourth-moment sums along curves, and
correlations of Salie sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .expsums import sqrt_phase_table
from .modular import eps_q, inv_mod, legendre_table, read_products, residue_roots
from .weights import WeightVector, dyadic_starts, slack_factor

_CURVE_SUM_LIMIT = 2048


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


def bilinear_weyl_sum(inst: BilinearInstance) -> complex:
    """W evaluated against the root-phase table; O(M*N) after an O(q) setup."""
    q = inst.q
    m = np.arange(inst.m_start, 2 * inst.m_start, dtype=np.int64)
    n = np.arange(inst.n_start, 2 * inst.n_start, dtype=np.int64)
    kernel = read_products(sqrt_phase_table(q), inst.a * inst.h % q * inst.h % q * (m % q), n)
    return complex(inst.alpha.coeffs @ kernel @ inst.beta.coeffs)


def rj_sum(j: int, inst: BilinearInstance) -> float:
    """R_j: the part of sum_m |sum_n beta_n K(amn)|^2 with all characters equal to j.

    Equals sum over m ~ M with (am/q) = j of |sum over n ~ N with (n/q) = j of
    beta_n T_h(amn)|^2, hence real and nonnegative; R_1 + R_{-1} recovers the
    full Cauchy-Schwarz right side exactly.
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
    rows = inst.a * inst.h % q * inst.h % q * (m_sel % q)
    inner = read_products(sqrt_phase_table(q), rows, n_sel) @ inst.beta.coeffs[n_mask]
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
    table = sqrt_phase_table(q)
    scale = (a * h % q * h % q) * (s % q)
    r = np.arange(q, dtype=np.int64)
    prod = np.ones((len(s), q), dtype=np.complex128)
    for b_i, conjugate in zip(b, (False, False, True, True)):
        vals = read_products(table, scale, r + b_i)
        prod *= np.conj(vals) if conjugate else vals
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

    For the Salie correlation only.  ``read_products`` would serve it too (a
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
) -> list[dict]:
    """|W| against both envelopes over dyadic (M, N) grids and seeded weights."""
    rows = []
    for q in q_values:
        starts = dyadic_starts(q)
        for m_start in starts:
            for n_start in starts:
                for kind_idx, kind in enumerate(kinds):
                    for k in range(instances):
                        rng = np.random.default_rng(
                            [seed, q, m_start, n_start, kind_idx, k]
                        )
                        a = int(rng.integers(1, q))
                        h = int(rng.integers(1, q))
                        alpha = WeightVector.make(kind, q, m_start, rng)
                        beta = WeightVector.make(kind, q, n_start, rng)
                        inst = BilinearInstance(q, a, h, alpha, beta)
                        measured = abs(bilinear_weyl_sum(inst))
                        env1, env2 = weyl_envelopes(
                            alpha.norm2, beta.norm_inf, beta.norm1, m_start, n_start, q
                        )
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

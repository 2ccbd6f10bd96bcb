"""Weight vectors on dyadic residue intervals and the additive energy of squares.

The central objects: complex weights beta supported on [N, 2N), the
correlation counts Q_{lambda} of pairs (u, v) with u - v = lambda whose
squares land in the weighted window, the energy sum over quadruples with
u + y = x + v, and the polynomial envelopes those quantities are measured
against.

Dyadic intervals are half-open [N, 2N) throughout, and j*u^2 is always
reduced to the representative in [1, q].
"""

from __future__ import annotations

import math

import numpy as np

from .calibration import SLACK_EXPONENT
from .errors import SizeGuardError

_PAIR_LIMIT = 1 << 26  # largest support^2 handled by exact pair accumulation


class WeightVector:
    """Complex weights on the residue window [start, 2*start) inside [1, q).

    ``coeffs[i]`` is the weight of residue ``start + i``.  Norms are computed
    once and cached; construction verifies the Cauchy-Schwarz consistency
    ||b||_2^2 <= ||b||_inf * ||b||_1.
    """

    __slots__ = ("q", "start", "coeffs", "norm_inf", "norm1", "norm2")

    def __init__(self, q: int, start: int, coeffs: np.ndarray):
        if start < 1:
            raise ValueError("interval start must be >= 1")
        # 2N <= q keeps q, the representative of 0, out of [N, 2N): every
        # support residue is then nonzero mod q and has a discrete log
        if 2 * start > q:
            raise ValueError("need 2N <= q")
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (start,):
            raise ValueError(f"expected {start} coefficients for [N, 2N)")
        self.q = q
        self.start = start
        self.coeffs = coeffs
        mags = np.abs(coeffs)
        self.norm_inf = float(mags.max()) if start else 0.0
        self.norm1 = float(mags.sum())
        self.norm2 = float(math.sqrt(float((mags * mags).sum())))
        if self.norm2**2 > self.norm_inf * self.norm1 * (1 + 1e-9) + 1e-12:
            raise ValueError("norm inconsistency: ||b||_2^2 > ||b||_inf * ||b||_1")

    @classmethod
    def indicator(cls, q: int, start: int) -> "WeightVector":
        return cls(q, start, np.ones(start))

    @classmethod
    def random_pm1(cls, q: int, start: int, rng: np.random.Generator) -> "WeightVector":
        return cls(q, start, rng.choice([-1.0, 1.0], size=start))

    @classmethod
    def random_phase(cls, q: int, start: int, rng: np.random.Generator) -> "WeightVector":
        return cls(q, start, np.exp(2j * np.pi * rng.random(start)))

    @classmethod
    def make(cls, kind: str, q: int, start: int, rng: np.random.Generator) -> "WeightVector":
        if kind == "indicator":
            return cls.indicator(q, start)
        if kind == "pm1":
            return cls.random_pm1(q, start, rng)
        if kind == "phase":
            return cls.random_phase(q, start, rng)
        raise ValueError(f"unknown weight class {kind!r}")

    def value_at(self, residue: int) -> complex:
        """Weight of a residue in [1, q]; zero off the support window."""
        if self.start <= residue < 2 * self.start:
            return complex(self.coeffs[residue - self.start])
        return 0.0 + 0.0j


def square_residues(q: int, j: int) -> np.ndarray:
    """Array s with s[u] = representative of j*u^2 (mod q) in [1, q]."""
    u = np.arange(q, dtype=np.int64)
    s = (j % q) * (u * u % q) % q
    s[s == 0] = q
    return s


def dyadic_starts(q: int) -> list[int]:
    """The starts N = 1, 2, 4, ... of the dyadic windows [N, 2N) with 2N <= q."""
    return [1 << k for k in range((q // 2).bit_length())]


def weights_on_squares(beta: WeightVector, j: int) -> np.ndarray:
    """Complex array w with w[u] = beta_{j*u^2} for u in [0, q)."""
    s = square_residues(beta.q, j)
    idx = s - beta.start
    mask = (idx >= 0) & (idx < beta.start)
    w = np.zeros(beta.q, dtype=np.complex128)
    w[mask] = beta.coeffs[idx[mask]]
    return w


def admissible_square_members(q: int, start: int, j: int = 1) -> np.ndarray:
    """All u in [0, q) whose reduced j*u^2 lies in [start, 2*start).

    The window must satisfy 2N <= q: a wider one contains q, the
    representative of 0, and would let u = 0 join the set.
    """
    if 2 * start > q:
        raise ValueError("need 2N <= q")
    s = square_residues(q, j)
    return np.nonzero((s >= start) & (s < 2 * start))[0].astype(np.int64)


def _pair_histogram(
    members: np.ndarray, q: int, sign: int, vals: np.ndarray | None = None
) -> np.ndarray:
    """Histogram of the pair keys (u_i + sign * u_j) mod q over all ordered pairs of members.

    With ``vals`` None each pair counts 1, exactly in int64; otherwise pair
    (i, j) carries vals_i * conj(vals_j) and the histogram is complex.  This is
    the one place pairs are formed, so the size guard lives here.
    """
    if len(members) ** 2 > _PAIR_LIMIT:
        raise SizeGuardError("support too large for exact pair accumulation")
    keys = ((members[:, None] + sign * members) % q).ravel()
    if vals is None:
        return np.bincount(keys, minlength=q)
    prods = (vals[:, None] * np.conj(vals)).ravel()
    out = np.bincount(keys, weights=prods.real, minlength=q).astype(np.complex128)
    if np.any(prods.imag):
        out += 1j * np.bincount(keys, weights=prods.imag, minlength=q)
    return out


def q_table(beta: WeightVector, j: int) -> np.ndarray:
    """Q_lambda for every lambda in F_q: sum over u - v = lambda of b_{ju^2} conj(b_{jv^2})."""
    if j % beta.q == 0:
        raise ValueError("j must be invertible mod q")
    w = weights_on_squares(beta, j)
    members = np.nonzero(w)[0]
    return _pair_histogram(members, beta.q, -1, w[members])


def q_lambda(beta: WeightVector, lam: int, j: int, q: int | None = None) -> complex:
    """Single correlation count Q_{lambda, j}(beta); O(q) direct evaluation."""
    if q is not None and q != beta.q:
        raise ValueError("modulus mismatch")
    q = beta.q
    if j % q == 0:
        raise ValueError("j must be invertible mod q")
    w = weights_on_squares(beta, j)
    return complex(np.sum(w * np.conj(np.roll(w, lam % q))))


def q_table_indicator(q: int, start: int, j: int = 1) -> np.ndarray:
    """Exact integer Q_lambda table for the indicator weight on [start, 2*start)."""
    if j % q == 0:
        raise ValueError("j must be invertible mod q")
    return _pair_histogram(admissible_square_members(q, start, j), q, -1)


def energy(beta: WeightVector, j: int = 1) -> complex:
    """Weighted additive energy: sum over u + y = x + v of the four-fold weight product.

    Computed as sum over lambda of Q_lambda^2 (difference histogram); the
    sum-histogram oracle below takes the other grouping of the same quadruple
    sum, so agreement between the two is a real consistency check.
    """
    return table_energy(q_table(beta, j))


def table_energy(table: np.ndarray) -> complex:
    """Energy read off a Q table: the sum over lambda of Q_lambda^2."""
    return complex(np.sum(table * table))


def energy_pair_histogram(beta: WeightVector, j: int = 1) -> complex:
    """Oracle energy via the pair-sum histogram A(w) = sum_{u+y=w} b_{ju^2} conj(b_{jy^2})."""
    w = weights_on_squares(beta, j)
    members = np.nonzero(w)[0]
    hist = _pair_histogram(members, beta.q, 1, w[members])
    return complex(np.sum(hist * hist))


def energy_quadruple_loop(beta: WeightVector, j: int = 1) -> complex:
    """Literal quadruple loop over F_q^4; only sane for tiny q."""
    q = beta.q
    if q > 23:
        raise SizeGuardError("quadruple loop oracle restricted to q <= 23")
    w = weights_on_squares(beta, j)
    total = 0.0 + 0.0j
    for u in range(q):
        for v in range(q):
            for x in range(q):
                y = (x + v - u) % q
                total += w[u] * np.conj(w[v]) * w[x] * np.conj(w[y])
    return complex(total)


def unweighted_energy(start: int, q: int, j: int = 1) -> int:
    """Exact count of quadruples u + v = x + y with all four reduced squares in [N, 2N).

    Production path: histogram of pair sums over the admissible set S.  The
    int64 sum is exact: each (u, v, x) fixes y, so E <= |S|^3, and the pair
    guard |S|^2 <= 2^26 gives E <= 2^39.
    """
    hist = _pair_histogram(admissible_square_members(q, start, j), q, 1)
    return int(hist @ hist)


def window_energies(q: int, j: int, sign: int) -> np.ndarray:
    """Exact unweighted energies of every window [N, 2N), N = 1..q//2, of one (q, j).

    Entry N - 1 is the sum over w of hist_N(w)^2, where hist_N counts the
    ordered pairs (u, v) with both reduced squares s_u, s_v in [N, 2N) by the
    key u + sign * v (mod q): sign +1 is the pair-sum grouping of
    ``unweighted_energy``, sign -1 the difference grouping of
    ``unweighted_energy_oracle``.  A pair lies in the window exactly when
    max(s_u, s_v)/2 < N <= min(s_u, s_v), a contiguous range of N, so every
    pair of F_q is formed once: it is added at the first N of its range and
    subtracted one past the last, and one cumulative sum over N yields every
    window's histogram.  The int64 sums are exact (each is at most q^3).

    Guarded by ``_PAIR_LIMIT`` on q^2.  The peak heap is about 32 q^2 bytes,
    four q x q int64 arrays at once (tracemalloc reads 32.0 q^2 at q = 2003),
    so 2 GiB at the guard's q = 8192.
    """
    if q * q > _PAIR_LIMIT:
        raise SizeGuardError("modulus too large for exact pair accumulation")
    if j % q == 0:
        raise ValueError("j must be invertible mod q")
    half = q // 2
    s = square_residues(q, j)
    # flat histogram indices N * q + key of each pair's first and stop N;
    # an empty range gets stop = first, so its two entries cancel
    first = (s // 2 + 1) * q
    stop = (np.minimum(s, half) + 1) * q
    lo = np.maximum.outer(first, first)
    hi = np.maximum(np.minimum.outer(stop, stop), lo)
    u = np.arange(q, dtype=np.int64)
    keys = np.add.outer(u, sign * u) % q
    lo += keys
    hi += keys
    size = (half + 2) * q
    diff = np.bincount(lo.ravel(), minlength=size) - np.bincount(hi.ravel(), minlength=size)
    hist = np.cumsum(diff.reshape(half + 2, q), axis=0)[1 : half + 1]
    return np.einsum("ij,ij->i", hist, hist)


def unweighted_energy_oracle(start: int, q: int, j: int = 1) -> int:
    """Independent recount via the difference histogram (sum of Q_lambda^2), exact in int64."""
    table = q_table_indicator(q, start, j)
    return int(table @ table)


def q_fourth_moment(beta: WeightVector, j: int = 1) -> float:
    """sum over lambda != 0 of |Q_lambda|^4 (for real weights, bit for bit Q_lambda^4)."""
    return table_fourth_moment(q_table(beta, j))


def table_fourth_moment(table: np.ndarray) -> float:
    """Fourth moment read off a Q table: the sum over lambda != 0 of |Q_lambda|^4."""
    vals = np.abs(table)
    vals[0] = 0.0
    return float(np.sum(vals**4))


def q_fourth_moment_indicator(q: int, start: int, j: int = 1) -> int:
    """Exact integer fourth moment of the indicator Q table over lambda != 0.

    Python ints, since the sum reaches |S|^5 <= 2^65, past int64.
    """
    table = q_table_indicator(q, start, j)
    return int(np.sum(table[1:].astype(object) ** 4))


# ---------------------------------------------------------------------------
# Envelopes.  A bound the paper states up to q^{o(1)} multiplies its
# polynomial by slack_factor(q); the small-window energy bound has no such
# factor, so its envelope is the bare polynomial.
# ---------------------------------------------------------------------------


def slack_factor(q: float) -> float:
    """The (log q)^SLACK_EXPONENT factor standing in for q^{o(1)} in envelopes."""
    return math.log(q) ** SLACK_EXPONENT


def small_interval_energy_envelope(start: int, q: int) -> float:
    """Envelope N^6/q + N^2 for the unweighted energy with N <= sqrt(q)."""
    return start**6 / q + start**2


def fourth_moment_envelope(start: int, q: int) -> float:
    """Envelope (N^{13/2}/q^{3/2} + N^3) q^{o(1)} for the fourth moment over lambda != 0."""
    return (start**6.5 / q**1.5 + start**3) * slack_factor(q)


def energy_envelope_short(norm_inf: float, norm1: float, start: int, q: int) -> float:
    """Energy envelope ||b||_inf^{8/3} ||b||_1^{4/3} (N^{13/6}/sqrt(q) + N) q^{o(1)}."""
    body = norm_inf ** (8.0 / 3.0) * norm1 ** (4.0 / 3.0)
    return body * (start ** (13.0 / 6.0) / math.sqrt(q) + start) * slack_factor(q)


def energy_envelope_long(norm_inf: float, norm1: float, start: int, q: int) -> float:
    """Energy envelope ||b||_inf^2 ||b||_1^2 (N^2/q + sqrt(N)) q^{o(1)}, better for
    long windows."""
    body = norm_inf**2 * norm1**2
    return body * (start**2 / q + math.sqrt(start)) * slack_factor(q)


# ---------------------------------------------------------------------------
# Sweeps (shared by the CLI, the calibration fixture and the tests).
# ---------------------------------------------------------------------------


def _window_sweep(q_max: int, measure, envelope) -> list[dict]:
    """measure(q, N) against envelope(N, q) for primes 5 <= q <= q_max and every N <= sqrt(q)."""
    from .primes import primes_between

    rows = []
    for q in primes_between(5, q_max).tolist():
        for start in range(1, math.isqrt(q) + 1):
            measured = measure(q, start)
            env = envelope(start, q)
            rows.append(
                {
                    "q": q,
                    "N": start,
                    "measured": float(measured),
                    "envelope": env,
                    "ratio": measured / env,
                }
            )
    return rows


def small_energy_sweep(q_max: int = 499) -> list[dict]:
    """Unweighted energy against N^6/q + N^2 for primes q <= q_max, N <= sqrt(q)."""
    return _window_sweep(
        q_max, lambda q, n: unweighted_energy(n, q), small_interval_energy_envelope
    )


def fourth_moment_sweep(q_max: int = 499) -> list[dict]:
    """Indicator fourth moment against its envelope, slack factor included,
    for primes q <= q_max and N <= sqrt(q)."""
    return _window_sweep(q_max, q_fourth_moment_indicator, fourth_moment_envelope)


def weighted_energy_sweep(
    q_values: tuple[int, ...] = (101, 211, 499),
    kinds: tuple[str, ...] = ("pm1", "phase"),
    seeds_per_cell: int = 5,
    seed: int = 7,
) -> list[dict]:
    """Random-weight energies against both envelopes over a dyadic (q, N) grid."""
    rows = []
    for q in q_values:
        for start in dyadic_starts(q):
            for kind in kinds:
                for k in range(seeds_per_cell):
                    rng = np.random.default_rng([seed, q, start, kinds.index(kind), k])
                    beta = WeightVector.make(kind, q, start, rng)
                    j = int(rng.integers(1, q))
                    measured = abs(energy(beta, j))
                    env_short = energy_envelope_short(beta.norm_inf, beta.norm1, start, q)
                    env_long = energy_envelope_long(beta.norm_inf, beta.norm1, start, q)
                    rows.append(
                        {
                            "q": q,
                            "N": start,
                            "j": j,
                            "kind": kind,
                            "seed": k,
                            "measured": measured,
                            "envelope_short": env_short,
                            "envelope_long": env_long,
                            "ratio_short": measured / env_short,
                            "ratio_long": measured / env_long,
                        }
                    )
    return rows

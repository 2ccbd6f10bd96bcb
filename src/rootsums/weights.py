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
import operator

import numpy as np

from .calibration import SLACK_EXPONENT
from .errors import SizeGuardError

_PAIR_LIMIT = 1 << 26  # largest support^2 handled by exact pair accumulation
# The values of random_pm1, indexed by integers(0, 2): the same draws and the
# same generator state as rng.choice([-1.0, 1.0]), at about half the cost.
_PM1 = np.array([-1.0, 1.0])


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
        norm_inf, norm1, norm2 = weight_norms(coeffs[None])
        self.norm_inf, self.norm1, self.norm2 = float(norm_inf[0]), float(norm1[0]), float(norm2[0])

    @classmethod
    def indicator(cls, q: int, start: int) -> "WeightVector":
        return cls.make("indicator", q, start, None)

    @classmethod
    def random_pm1(cls, q: int, start: int, rng: np.random.Generator) -> "WeightVector":
        return cls.make("pm1", q, start, rng)

    @classmethod
    def random_phase(cls, q: int, start: int, rng: np.random.Generator) -> "WeightVector":
        return cls.make("phase", q, start, rng)

    @classmethod
    def make(cls, kind: str, q: int, start: int, rng: np.random.Generator | None) -> "WeightVector":
        """A vector of the named class in ``WEIGHT_CLASSES``; ``rng`` draws the random ones."""
        if kind not in WEIGHT_CLASSES:
            raise ValueError(f"unknown weight class {kind!r}")
        return cls(q, start, WEIGHT_CLASSES[kind](rng, start))

    def value_at(self, residue: int) -> complex:
        """Weight of a residue in [1, q]; zero off the support window."""
        if self.start <= residue < 2 * self.start:
            return complex(self.coeffs[residue - self.start])
        return 0.0 + 0.0j


# Every weight class by name, with its coefficient draw (rng, start) -> array of
# ``start`` weights.  Each draw takes its numbers from ``rng`` alone, in a fixed
# order (the indicator takes none), so a seeded stream fixes the weights; a sweep
# may draw into rows of a stack and get the arrays ``WeightVector.make`` holds.
WEIGHT_CLASSES = {
    "indicator": lambda rng, start: np.ones(start),
    "pm1": lambda rng, start: _PM1[rng.integers(0, 2, size=start)],
    "phase": lambda rng, start: np.exp(2j * np.pi * rng.random(start)),
}


def weight_norms(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(||b||_inf, ||b||_1, ||b||_2) of every row b of a 2-D stack of weights.

    Raises ValueError if a row breaks the Cauchy-Schwarz consistency
    ||b||_2^2 <= ||b||_inf * ||b||_1.  Each reduction runs along the rows'
    contiguous axis, which numpy sums pairwise per row exactly as it sums the
    row on its own, so every norm is bit for bit that of the row alone.
    """
    mags = np.abs(stack)
    norm_inf = mags.max(axis=1)
    norm1 = mags.sum(axis=1)
    norm2 = np.sqrt((mags * mags).sum(axis=1))
    if np.any(norm2**2 > norm_inf * norm1 * (1 + 1e-9) + 1e-12):
        raise ValueError("norm inconsistency: ||b||_2^2 > ||b||_inf * ||b||_1")
    return norm_inf, norm1, norm2


# ---------------------------------------------------------------------------
# Seeded streams.  A sweep seeds each cell's generator with a list of ints, as
# default_rng(entropy) would; the SeedSequence hash behind that is computed here
# for many lists at once, since numpy's runs one list per call in Python.
# ---------------------------------------------------------------------------

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): its hashmix
# multipliers, its mix multipliers and the xorshift of both, on uint32 words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def entropy_words(values) -> list[int]:
    """The uint32 words SeedSequence makes of a list of non-negative ints: each
    int's words from the least significant up, one word (0) for 0.  Raises
    ValueError for a negative int, as SeedSequence does."""
    words = []
    for value in values:
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


def seed_states(words: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for every row of a
    (B, L) array of entropy words (``entropy_words``), as a (B, 4) uint64 array.

    numpy's algorithm, run on all rows at once: hashmix the words into a pool of
    four, mix every pool word into every other, mix in the words past the
    fourth, then hash the pool out into eight uint32 words, read in pairs as
    little-endian uint64.  The hash constants follow one fixed sequence,
    whatever the words, so they are Python ints shared by every row.
    """
    words = np.asarray(words, dtype=np.uint32)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(len(words), dtype=np.uint32)
    length = words.shape[1]
    pool = [hashmix(words[:, i] if i < length else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    state = np.empty((len(words), 2 * _POOL_SIZE), dtype="<u4")
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.view("<u8").astype(np.uint64)


class _SeedState:
    """A seed sequence that hands out one precomputed ``generate_state(4, uint64)``:
    PCG64 seeded with it starts where PCG64 seeded with the SeedSequence would."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state  # a contiguous uint64 row: PCG64 reads its raw words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes the type np.uint64 itself, which skips the np.dtype call
        if n_words != _POOL_SIZE or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a precomputed seed state serves PCG64's generate_state(4, uint64) only")
        return self.state


def seeded_rngs(states: np.ndarray) -> list[np.random.Generator]:
    """The generator default_rng(entropy) gives, for each row of ``seed_states``."""
    return [np.random.Generator(bit_gen) for bit_gen in _seeded_pcg64s(states)]


def _seeded_pcg64s(states: np.ndarray) -> list[np.random.PCG64]:
    """The PCG64 default_rng(entropy) wraps, for each row of ``seed_states``."""
    # PCG64 takes any registered ISeedSequence.  Registering is idempotent, and
    # done here rather than at import, since importing numpy.random costs about
    # 6 MiB that a run drawing no random numbers (``sums``) does not need.
    np.random.bit_generator.ISeedSequence.register(_SeedState)
    return [np.random.PCG64(_SeedState(state)) for state in np.ascontiguousarray(states, dtype=np.uint64)]


# Every weight class's draw of n weights read off raw PCG64 output as numpy's
# Generator derives it, by name: (raw words the draw takes, weights of a
# (cells, words) block).  pm1 is integers(0, 2), the top bit of each uint32
# half, the low half first (Lemire's method never rejects for two values);
# phase is random(), the top 53 bits of each word times 2^-53.
_RAW_CLASSES = {
    "indicator": (lambda n: 0, lambda raw, n: np.ones((len(raw), n))),
    "pm1": (
        lambda n: (n + 1) // 2,
        lambda raw, n: _PM1[np.stack(((raw >> 31) & 1, raw >> 63), axis=-1).reshape(len(raw), -1)[:, :n]],
    ),
    "phase": (lambda n: n, lambda raw, n: np.exp(2j * np.pi * ((raw >> 11) * 2.0**-53))),
}


def seeded_cell_draws(
    q: int, m_start: int, n_start: int, kinds: tuple[str, ...], instances: int, states: np.ndarray
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The twists and weights of a Weyl group's cells: (a, h) per cell, the alpha
    stack (cells, M) and the beta stack (cells, N).

    Cell i = kind_idx * instances + k draws, from the generator of row i of
    ``states``, a = integers(1, q), h = integers(1, q) and then M + N weights of
    class kinds[kind_idx] (``WEIGHT_CLASSES``), split into alpha and beta.  No
    Generator is built for that: each cell's PCG64 hands out the raw words its
    draws take in one ``random_raw`` call, and the draws are derived from them
    as numpy derives them, for the whole group at once.  The twists are
    Lemire's bounded integers, 1 + (u * (q - 1) >> 32) for u the low and then
    the high uint32 half of the first word.  Lemire's method rejects u, and
    draws again, when u * (q - 1) mod 2^32 < 2^32 mod (q - 1), with
    probability below (q - 1) / 2^32 per draw; a cell that hits a rejection
    is drawn again by its Generator (``seeded_rngs``), and so is every cell
    at q = 2, where integers(1, 2) takes no word.
    """
    if q > 1 << 32:
        raise ValueError(f"twists are drawn below 2^32, not mod {q}")
    cells = len(kinds) * instances
    size = m_start + n_start
    bit_gens = _seeded_pcg64s(states)
    first = np.empty(cells, dtype=np.uint64)  # the word of each cell's twists
    alpha = np.empty((cells, m_start), dtype=np.complex128)
    beta = np.empty((cells, n_start), dtype=np.complex128)
    for kind_idx, kind in enumerate(kinds):
        words, derive = _RAW_CLASSES[kind]
        count = 1 + words(size)
        rows = slice(kind_idx * instances, (kind_idx + 1) * instances)
        raw = np.concatenate([bit_gen.random_raw(count) for bit_gen in bit_gens[rows]]).reshape(-1, count)
        first[rows] = raw[:, 0]
        weights = derive(raw[:, 1:], size)
        alpha[rows], beta[rows] = weights[:, :m_start], weights[:, m_start:]
    # u * (q - 1) < 2^64 for every uint32 u, so the products are exact in uint64
    low, high = (first & _MASK32) * (q - 1), (first >> 32) * (q - 1)
    threshold = (1 << 32) % (q - 1)
    rejected = ((low & _MASK32) < threshold) | ((high & _MASK32) < threshold) | (q == 2)
    twists = list(zip((1 + (low >> 32)).tolist(), (1 + (high >> 32)).tolist()))
    for i in np.flatnonzero(rejected).tolist():
        (rng,) = seeded_rngs(states[i : i + 1])
        twists[i] = (int(rng.integers(1, q)), int(rng.integers(1, q)))
        weights = WEIGHT_CLASSES[kinds[i // instances]](rng, size)
        alpha[i], beta[i] = weights[:m_start], weights[m_start:]
    return twists, alpha, beta


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


def q_lambda(beta: WeightVector, lam: int, j: int) -> complex:
    """Single correlation count Q_{lambda, j}(beta); O(q) direct evaluation."""
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

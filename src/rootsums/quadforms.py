"""Binary quadratic forms of discriminant -q, class numbers, and the character chi = (-q/.).

For a prime q = 3 (mod 4) and q > 3 the discriminant -q is fundamental, the
reduced forms are enumerated directly, and the class number is cross-checked
two more ways: by Dirichlet's finite formula h = -(1/q) * sum_{a<q} a (a/q),
in integers, and by the exponentially convergent series
h = sum_{n>=1} chi(n) [erfc(n sqrt(pi/q)) + sqrt(q)/(pi n) e^{-pi n^2/q}]
(H. Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
Sec. 5.3), summed to n <= 6 sqrt(q/pi).  The series is a certificate, not a
rounding: ``class_number_series`` states a bound on its error, its tail plus
the rounding of its terms, so where that bound leaves the value within 0.5
of h the rounding is provable.

The truncated Dirichlet series L_T = sum_{n <= T} chi(n)/n stays for ``forms``
and the mean value of r(n): by Abel summation its h-value is within
q^{3/2} / (pi (T+1)) of h.  Since chi(n) = (n/q) has period q there, L_T is
summed as q residue-class totals of 1/n against the Legendre table.
``l_values`` sums the series of many moduli from shared pieces of 1/n, never
a whole table.

Heegner points of the reduced forms feed the box-fraction statistic whose
limit is 27/(10*pi).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .modular import TABLE_LIMIT, kronecker, legendre_table, table_cache
from .primes import divisors, factorize, is_prime, primes_between

DUKE_LIMIT_FRACTION = 27.0 / (10.0 * math.pi)
# The heights y_min <= y <= y_max of the Heegner window |x| <= 1/2.
WINDOW_HEIGHTS = (1.0, 10.0)
# Largest truncation T of the L-series: every modulus reads 2**27 terms, so this
# bounds the time of ``l_values``; its memory is one piece whatever T is.
_RECIPROCALS_LIMIT = 1 << 27
# Entries of 1/n in one piece of ``l_values``: 2 MiB of float64.
_PIECE = 1 << 18
# Entries of chi that ``l_values`` holds at once, one period per modulus: 1 MiB of int8.
_CHI_ENTRIES = 1 << 20
# The class-number series runs to n <= ceil(_SERIES_SPAN * sqrt(q/pi)), so its first
# omitted term has x = n sqrt(pi/q) > 6 and is below 2 e^{-36} / (6 sqrt(pi)) < 5e-17.
_SERIES_SPAN = 6.0
# Rounding of one series term in units u = 2^-53 of the term, beside the 8 x^2 units that
# the rounding of its argument x costs (``class_number_series``): its few IEEE operations
# are correctly rounded, within u each, and libm's erfc and exp are allowed 8 ulps (16 u)
# each, above the few ulps the glibc manual ("Known Maximum Errors in Math Functions") lists.
_TERM_ULPS = 32


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """Integer form A x^2 + B xy + C y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_positive_definite(self) -> bool:
        return self.discriminant < 0 and self.a > 0

    @property
    def is_reduced(self) -> bool:
        """gcd(A,B,C) = 1, |B| <= A <= C, and B >= 0 when |B| = A or A = C."""
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            return False
        if not (abs(self.b) <= self.a <= self.c):
            return False
        if (abs(self.b) == self.a or self.a == self.c) and self.b < 0:
            return False
        return True

    def heegner_point(self) -> complex:
        """z = (-B + i*sqrt(q)) / (2A) in the upper half-plane, q = -discriminant."""
        q = -self.discriminant
        return complex(-self.b / (2 * self.a), math.sqrt(q) / (2 * self.a))

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


def _require_form_modulus(q: int) -> None:
    if q % 4 != 3 or q <= 3 or not is_prime(q):
        raise ValueError("need a prime q = 3 (mod 4) with q > 3")


@table_cache(TABLE_LIMIT)
def enumerate_reduced_forms(q: int) -> tuple[BinaryQuadraticForm, ...]:
    """All reduced forms of discriminant -q, each class exactly once, sorted.

    Scans odd B with B^2 <= q/3 and factors (B^2 + q)/4 into A*C pairs; the
    sign tie-break keeps exactly one of (A, +/-B, C) when |B| = A or A = C.
    Primitivity is automatic because -q is squarefree.
    """
    _require_form_modulus(q)
    forms = []
    b_max = math.isqrt(q // 3)
    for b in range(1, b_max + 1, 2):
        m = (b * b + q) // 4
        for a in range(b, math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            forms.append(BinaryQuadraticForm(a, b, c))
            if b < a < c:
                forms.append(BinaryQuadraticForm(a, -b, c))
    forms.sort(key=lambda f: (f.a, f.b, f.c))
    return tuple(forms)


def class_number(q: int) -> int:
    """h(-q) by reduced-form enumeration."""
    return len(enumerate_reduced_forms(q))


def heegner_fraction(q: int) -> float:
    """Fraction of Heegner points inside the box |x| <= 1/2, 1 <= y <= 10 (``WINDOW_HEIGHTS``).

    For reduced forms the x coordinate -B/(2A) always lies in [-1/2, 1/2], so
    only the height sqrt(q)/(2A) is tested.
    """
    return len(forms_in_window(q)) / len(enumerate_reduced_forms(q))


def form_moduli(q_min: int, count: int) -> list[int]:
    """The first ``count`` primes q = 3 (mod 4) with q > 3 and q >= q_min, increasing.

    Primes are sieved in disjoint windows [lo, lo + 10^4), so none repeats
    and the search runs until ``count`` moduli are found.
    """
    moduli: list[int] = []
    lo = max(q_min, 5)
    while len(moduli) < count:
        window = primes_between(lo, lo + 10**4 - 1)
        moduli += [int(q) for q in window[window % 4 == 3][: count - len(moduli)]]
        lo += 10**4
    return moduli


def forms_in_window(q: int) -> list[BinaryQuadraticForm]:
    """Reduced forms whose Heegner point falls in the standard box."""
    y_min, y_max = WINDOW_HEIGHTS
    return [
        f
        for f in enumerate_reduced_forms(q)
        if y_min <= math.sqrt(q) / (2 * f.a) <= y_max
    ]


# ---------------------------------------------------------------------------
# The character chi(n) = kronecker(-q, n) and the representation function r(n).
# ---------------------------------------------------------------------------


def chi(n: int, q: int) -> int:
    """The quadratic character attached to -q, extended to all n via Kronecker."""
    return kronecker(-q, n)


def _require_odd_prime(q: int) -> None:
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"chi is read from the Legendre table only for an odd prime q, got {q}")


def chi_at(q: int, n: np.ndarray) -> np.ndarray:
    """int8 array of chi(n) = (-q/n) for an int64 array of n >= 0, read from legendre_table(q).

    By quadratic reciprocity, for an odd prime q and n = 2^v * m with m odd,
    chi(n) = (n/q) when q = 3 (mod 4) and chi(n) = (n/q) * (-1)^((m-1)/2)
    when q = 1 (mod 4); chi(0) = (0/q) = 0.  This is the one place the rule
    is written down.
    """
    _require_odd_prime(q)
    vals = legendre_table(q)[n % q]
    if q % 4 == 3:
        return vals
    # bit v + 1 of n = 2^v * m is bit 1 of m, set exactly when m = 3 (mod 4)
    return np.where(n & ((n & -n) << 1), -vals, vals)


def chi_values(q: int, limit: int) -> np.ndarray:
    """int8 array of chi(n) for n = 0..limit, read from legendre_table(q)."""
    return chi_at(q, np.arange(limit + 1, dtype=np.int64))


def r_function(n: int, q: int) -> int:
    """r(n) = sum over d | n of chi(d), by direct divisor sum."""
    if n < 1:
        raise ValueError("r(n) needs n >= 1")
    return sum(chi(d, q) for d in divisors(n))


def representation_count(n: int, q: int) -> int:
    """R_{-q}(n) = 2 * r(n) via the Euler-product form over p^l || n.

    Independent of the divisor-sum path: each prime power contributes
    1 + chi(p) + ... + chi(p)^l.
    """
    if n < 1:
        raise ValueError("representation count needs n >= 1")
    total = 2
    for p, e in factorize(n).items():
        cp = chi(p, q)
        if cp == 1:
            total *= e + 1
        elif cp == -1:
            if e % 2 == 1:
                return 0
        # cp == 0 contributes the empty-power term only
    return total


def _sqrt_solvable_odd_prime_power(a: int, p: int, e: int) -> bool:
    """Is x^2 = a (mod p^e) solvable, p an odd prime?"""
    m = p**e
    a %= m
    if a == 0:
        return True
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v >= e:
        return True
    return v % 2 == 0 and kronecker(a, p) == 1


def _sqrt_solvable_two_power(a: int, e: int) -> bool:
    """Is x^2 = a (mod 2^e) solvable?"""
    m = 1 << e
    a %= m
    if a == 0:
        return True
    v = 0
    while a % 2 == 0:
        a //= 2
        v += 1
    if v >= e:
        return True
    if v % 2 == 1:
        return False
    rem = e - v
    if rem == 1:
        return True
    if rem == 2:
        return a % 4 == 1
    return a % 8 == 1


def is_represented(n: int, q: int) -> bool:
    """True iff b^2 = -q (mod 4n) is solvable, decided prime power by prime power."""
    if n < 1:
        raise ValueError("need n >= 1")
    factors = factorize(4 * n)
    for p, e in factors.items():
        if p == 2:
            if not _sqrt_solvable_two_power(-q, e):
                return False
        elif not _sqrt_solvable_odd_prime_power(-q, p, e):
            return False
    return True


def r_mean_value(x: float, q: int) -> int:
    """Exact integer sum of r(n) for n <= x, via sum over d of chi(d) * floor(x/d)."""
    cutoff = math.floor(x)
    if cutoff < 1:
        return 0
    vals = chi_values(q, cutoff).astype(np.int64)
    d = np.arange(cutoff + 1, dtype=np.int64)
    d[0] = 1
    return int(np.sum(vals * (cutoff // d)))


def _class_totals(x: np.ndarray, period: int) -> np.ndarray:
    """totals[c] = sum of x[i] over i = c (mod period), through a reshaped view of x."""
    full = len(x) // period * period
    totals = x[:full].reshape(-1, period).sum(axis=0)
    totals[: len(x) - full] += x[full:]
    return totals


class _Series:
    """sum_{n <= T} chi(n)/n for one odd prime q, read from pieces of 1/n in order.

    The terms read are every n >= 0 (stride 1) for q = 3 (mod 4), where chi
    has period q, and the odd n = m >= 1 (stride 2) for q = 1 (mod 4), where
    chi(2^v m) = chi(2)^v psi(m) and psi has period 4q on odd m.  ``weights``
    is chi over one period of the terms read.  Each mark (X, c) adds c times
    the sum of the terms with n <= X: one mark (T, 1) for q = 3 (mod 4), and
    (T >> v, (chi(2)/2)^v) for every v for q = 1 (mod 4).  ``run`` holds the
    sum of the terms below ``cursor``, which stays on a period boundary, so a
    piece is read in whole rows of a period and no partial row is carried.
    """

    def __init__(self, q: int, truncation: int):
        _require_odd_prime(q)
        if q % 4 == 3:
            self.stride, self.cursor = 1, 0
            self.weights = chi_at(q, np.arange(q, dtype=np.int64))
            self.marks = [(truncation, 1.0)]
        else:
            self.stride, self.cursor = 2, 1
            self.weights = chi_at(q, np.arange(1, 4 * q, 2, dtype=np.int64))
            half = chi(2, q) / 2
            self.marks = [(truncation >> v, half**v) for v in range(truncation.bit_length())]
        self.span = self.stride * len(self.weights)  # one period, in n
        self.sums = [0.0] * len(self.marks)
        self.run = 0.0

    def read(self, x: np.ndarray, lo: int, final: bool) -> None:
        """Sum the terms of ``x`` = 1/n for n = lo, lo + 1, ... from the cursor on: the
        whole periods, and on the ``final`` piece every term left."""
        hi = lo + len(x)
        end = hi if final else self.cursor + (hi - self.cursor) // self.span * self.span
        for i, (limit, _) in enumerate(self.marks):
            if self.cursor <= limit < end:
                self.sums[i] = self.run + self._dot(x[self.cursor - lo : limit + 1 - lo : self.stride])
        if not final:
            self.run += self._dot(x[self.cursor - lo : end - lo : self.stride])
            self.cursor = end

    def _dot(self, terms: np.ndarray) -> float:
        """sum of chi(n)/n over ``terms``, which start on a period boundary."""
        return float(np.sum(self.weights * _class_totals(terms, len(self.weights))))

    @property
    def total(self) -> float:
        total = 0.0
        for (_, coefficient), value in zip(self.marks, self.sums):
            total += coefficient * value
        return total


def l_values(moduli: Iterable[int], truncation: int = 10**6) -> list[float]:
    """The truncated series sum_{n <= T} chi(n)/n of every modulus, read from shared pieces of 1/n.

    The moduli are taken in batches whose periods of chi (``_Series``) hold
    up to _CHI_ENTRIES entries, and each batch makes one pass over 1/n in
    pieces of _PIECE entries that every modulus of the batch reads in turn.
    No 1/n table is held, so the memory is one piece and one batch whatever T
    is.  No BLAS call is made, so the values do not depend on the thread
    count.  T above _RECIPROCALS_LIMIT is refused.
    """
    if truncation > _RECIPROCALS_LIMIT:
        raise SizeGuardError(f"L-series truncation refused for {truncation} > {_RECIPROCALS_LIMIT}")
    values: list[float] = []
    batch: list[_Series] = []
    held = 0
    for q in moduli:
        batch.append(_Series(q, truncation))
        held += len(batch[-1].weights)
        if held >= _CHI_ENTRIES:
            values += _read_pieces(batch, truncation)
            batch, held = [], 0
    return values + _read_pieces(batch, truncation)


def _read_pieces(series: list[_Series], truncation: int) -> list[float]:
    """One pass over 1/n for n = 0..T (1/0 read as 0) in pieces that every series reads.

    Consecutive pieces overlap by the longest period in n, so each series
    reads whole periods from its cursor, and only the last piece ends a row
    part-way.
    """
    overlap = max((s.span for s in series), default=0)
    length = max(_PIECE, 2 * overlap)
    stop = truncation + 1
    lo = 0
    while series:
        hi = min(lo + length, stop)
        x = np.arange(lo, hi, dtype=np.float64)
        if lo == 0:
            x[0] = np.inf  # the n = 0 term reads 1/inf = 0
        np.divide(1.0, x, out=x)
        for s in series:
            s.read(x, lo, hi == stop)
        if hi == stop:
            break
        lo = hi - overlap
        del x  # the next piece is not built beside this one
    return [s.total for s in series]


def l_value_direct(q: int, truncation: int = 10**6) -> float:
    """Truncated series sum_{n <= T} chi(n)/n: the one-modulus case of ``l_values``."""
    return l_values([q], truncation)[0]


def class_number_finite(q: int) -> int:
    """h(-q) = -(1/q) * sum_{a<q} a (a/q), in integers (q = 3 mod 4, q > 3)."""
    _require_form_modulus(q)
    return -int(np.sum(np.arange(q, dtype=np.int64) * legendre_table(q))) // q


def class_number_tail_bound(q: int, truncation: int) -> float:
    """Bound on |sqrt(q) * L_T / pi - h(-q)| for the series truncated at T (q = 3 mod 4).

    Abel summation with |sum_{n <= x} chi(n)| <= q/2 bounds the tail
    |sum_{n > T} chi(n)/n| by q/(T+1).
    """
    return q**1.5 / (math.pi * (truncation + 1))


def class_number_series(q: int) -> tuple[float, float]:
    """(h, bound): h(-q) from the convergent series and a bound on its error (q = 3 mod 4, q > 3).

    h = sum_{n>=1} chi(n) [erfc(x_n) + e^{-x_n^2} / (x_n sqrt(pi))] with
    x_n = n sqrt(pi/q), the second term being sqrt(q)/(pi n) e^{-pi n^2/q}
    (Cohen, GTM 138, Sec. 5.3), summed for n <= N = ceil(_SERIES_SPAN sqrt(q/pi))
    by ``math.fsum``.  The bound is the tail plus the rounding:

    - tail: erfc(x) <= e^{-x^2} / (x sqrt(pi)) for x > 0 bounds each omitted
      term by 2 e^{-x_n^2} / (x_n sqrt(pi)), and from n = N + 1 on these fall
      at least geometrically, by e^{-2 pi (N+1)/q} per step;
    - rounding: the computed x_n is within 3 u of x_n and x_n^2 within 7 u,
      u = 2^-53; erfc, whose relative condition number is below 2 x^2 + 1 by
      erfc(x) > 2 e^{-x^2} / (sqrt(pi) (x + sqrt(x^2 + 2))) (Abramowitz and
      Stegun 7.1.13), and exp turn these into (6 x^2 + 3) u and 7 x^2 u, so
      with _TERM_ULPS for the operations and libm a term is within
      (_TERM_ULPS + 8 x_n^2) u of itself; fsum rounds the sum once, within u.
    """
    _require_form_modulus(q)
    count = math.ceil(_SERIES_SPAN * math.sqrt(q / math.pi))
    n = np.arange(1, count + 1, dtype=np.int64)
    x = n * math.sqrt(math.pi / q)
    decay = np.array([math.exp(-v * v) for v in x.tolist()])
    terms = np.array([math.erfc(v) for v in x.tolist()]) + math.sqrt(q) / (math.pi * n) * decay
    series = math.fsum((chi_at(q, n) * terms).tolist())
    first = (count + 1) * math.sqrt(math.pi / q)  # x of the first omitted term
    ratio = -math.expm1(-2 * math.pi * (count + 1) / q)  # 1 - e^{-2 pi (N+1)/q}
    tail = 2 * math.exp(-first * first) / (first * math.sqrt(math.pi) * ratio)
    rounding = 2.0**-53 * (float(np.sum((_TERM_ULPS + 8 * x * x) * terms)) + abs(series))
    return series, tail + rounding


def l_value_exact(q: int) -> float:
    """pi * h(-q) / sqrt(q), from the class number formula (q = 3 mod 4, q > 3)."""
    return math.pi * class_number(q) / math.sqrt(q)


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


def class_number_consistency_sweep(q_max: int = 10**4) -> list[dict]:
    """Enumeration h against the finite formula and the convergent series for q = 3 (mod 4).

    ``agrees`` holds only when all three give the same h and
    |h_series - h| + ``series_bound`` < 0.5, so the series' rounding to h is
    proven.  Each modulus's Legendre table is built once: the finite formula
    and the series read it one after the other.
    """
    rows = []
    for q in primes_between(5, q_max).tolist():
        if q % 4 != 3:
            continue
        h = class_number(q)
        h_finite = class_number_finite(q)
        series, bound = class_number_series(q)
        rows.append(
            {
                "q": q,
                "h": h,
                "h_finite": h_finite,
                "h_series": series,
                "series_bound": bound,
                "agrees": h_finite == h == round(series) and abs(series - h) + bound < 0.5,
            }
        )
    return rows


def r_mean_sweep(q_values: tuple[int, ...] = (1009, 5003, 10007), points: int = 8) -> list[dict]:
    """|sum_{n<=x} r(n) - L x| / x^0.9 over a geometric grid of x up to q."""
    rows = []
    for q, l_val in zip(q_values, l_values(q_values)):
        x_lo = max(8, int(q ** (0.25 + 0.05)))
        for i in range(points):
            x = int(round(x_lo * (q / x_lo) ** (i / (points - 1)))) if points > 1 else q
            total = r_mean_value(x, q)
            dev = abs(total - l_val * x)
            rows.append(
                {
                    "q": q,
                    "x": x,
                    "mean": total,
                    "l_value": l_val,
                    "deviation": dev,
                    "ratio_power": dev / x**0.9,
                    "ratio_linear": dev / x,
                }
            )
    return rows

"""Two-dimensional lattices, successive minima against boxes, and congruence counts.

The lattice of interest is {(x, y) in Z^2 : x = y*s (mod q)} together with a
symmetric box |x| <= h, |y| <= H.  Successive minima are the box gauges of a
basis reduced by the generalized Gauss reduction, run in exact integer
arithmetic: no float is compared and no scan is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationOverflowError
from .modular import inv_mod

_ENUM_CAP = 4_000_000


@dataclass(frozen=True)
class Box2D:
    """Symmetric box {(x, y): |x| <= h, |y| <= H}; always convex and centrally symmetric."""

    h: float
    H: float

    def __post_init__(self):
        if not (0 < self.h < math.inf and 0 < self.H < math.inf):
            raise ValueError("box half-widths must be positive and finite")

    @property
    def volume(self) -> float:
        return 4.0 * self.h * self.H

    def norm(self, v: tuple[int, int]) -> float:
        """Least t with v inside t * box (the gauge of the box)."""
        return max(abs(v[0]) / self.h, abs(v[1]) / self.H)


@dataclass(frozen=True)
class Lattice2D:
    """Integer lattice spanned by basis rows b1, b2."""

    b1: tuple[int, int]
    b2: tuple[int, int]

    def __post_init__(self):
        if self.det == 0:
            raise ValueError("basis vectors must be linearly independent")

    @classmethod
    def standard(cls) -> "Lattice2D":
        return cls((1, 0), (0, 1))

    @classmethod
    def congruence(cls, s: int, q: int) -> "Lattice2D":
        """The lattice {(x, y): x = y*s (mod q)} with basis (q, 0), (s, 1)."""
        return cls((q, 0), (s % q, 1))

    @property
    def det(self) -> int:
        return abs(self.b1[0] * self.b2[1] - self.b1[1] * self.b2[0])

    def vector(self, m: int, n: int) -> tuple[int, int]:
        return (
            m * self.b1[0] + n * self.b2[0],
            m * self.b1[1] + n * self.b2[1],
        )


def _reduce(lat: Lattice2D, box: Box2D) -> tuple[tuple[int, int], tuple[int, int]]:
    """A basis b1, b2 of the lattice with |b1| <= |b2| <= |b2 + k*b1| for every integer k.

    |.| is the box gauge, compared exactly through the integer key
    max(|x|*wx, |y|*wy), a positive multiple of the gauge (floats are exact
    Fractions).  Each step replaces b2 by b2 - mu*b1 for the integer mu of
    least gauge: that gauge is convex and piecewise linear in mu, so mu is
    the floor or the ceiling of a zero of one piece or of a crossing of the
    two.  If the new b2 is shorter than b1 the two are swapped and the step
    repeats; each swap strictly lowers the positive integer key of b1, so the
    loop ends.  Such a basis realises both successive minima for any norm
    (Kaib and Schnorr, the generalized Gauss reduction, J. Algorithms 21, 1996).
    """
    h, H = Fraction(box.h), Fraction(box.H)
    wx, wy = h.denominator * H.numerator, H.denominator * h.numerator

    def key(v: tuple[int, int]) -> int:
        return max(abs(v[0]) * wx, abs(v[1]) * wy)

    b1, b2 = lat.b1, lat.b2
    while True:
        (a, b), (c, d) = b1, b2
        breaks = [
            (c, a), (d, b), (c * wx - d * wy, a * wx - b * wy), (c * wx + d * wy, a * wx + b * wy)
        ]
        mus = sorted({m for num, den in breaks if den for m in (num // den, -(-num // den))})
        b2 = min(((c - m * a, d - m * b) for m in mus), key=key)
        if key(b2) >= key(b1):
            return b1, b2
        b1, b2 = b2, b1


def successive_minima(lat: Lattice2D, box: Box2D) -> tuple[float, float]:
    """(lambda_1, lambda_2) of the lattice with respect to the box, exactly.

    They are the gauges of the reduced basis; vectors of equal exact gauge
    give equal floats, since each gauge is a correctly rounded quotient.
    """
    b1, b2 = _reduce(lat, box)
    return box.norm(b1), box.norm(b2)


def minkowski_check(lat: Lattice2D, box: Box2D) -> dict:
    """Verify 1/(lambda_1*lambda_2) <= Vol(box) / (2 * det); returns both sides."""
    lam1, lam2 = successive_minima(lat, box)
    lhs = 1.0 / (lam1 * lam2)
    rhs = box.volume / (2.0 * lat.det)
    return {
        "lambda1": lam1,
        "lambda2": lam2,
        "lhs": lhs,
        "rhs": rhs,
        "passed": lhs <= rhs * (1 + 1e-12),
    }


def lattice_points_in_box(lat: Lattice2D, box: Box2D) -> int:
    """Exact |L intersect box| by coefficient enumeration (origin included)."""
    a, b = lat.b1[0], lat.b2[0]
    c, d = lat.b1[1], lat.b2[1]
    det = a * d - b * c
    corners = [(x, y) for x in (-box.h, box.h) for y in (-box.H, box.H)]
    ms = [(d * x - b * y) / det for x, y in corners]
    ns = [(-c * x + a * y) / det for x, y in corners]
    m_lo, m_hi = math.floor(min(ms)), math.ceil(max(ms))
    n_lo, n_hi = math.floor(min(ns)), math.ceil(max(ns))
    if (m_hi - m_lo + 1) * (n_hi - n_lo + 1) > _ENUM_CAP:
        raise EnumerationOverflowError("coefficient box too large for exact counting")
    count = 0
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            x, y = lat.vector(m, n)
            if abs(x) <= box.h and abs(y) <= box.H:
                count += 1
    return count


def point_count_check(lat: Lattice2D, box: Box2D) -> dict:
    """Count |L intersect box| and verify it against prod_j (2j/lambda_j + 1)."""
    count = lattice_points_in_box(lat, box)
    lam1, lam2 = successive_minima(lat, box)
    bound = (2.0 / lam1 + 1.0) * (4.0 / lam2 + 1.0)
    return {
        "count": count,
        "lambda1": lam1,
        "lambda2": lam2,
        "bound": bound,
        "passed": count <= bound * (1 + 1e-12),
    }


def congruence_count(s: int, interval_x: tuple[int, int], interval_y: tuple[int, int], q: int) -> int:
    """Exact number of (x, y) with x = y*s (mod q), x in I, y in J (inclusive ends).

    Iterates the shorter interval; each residue class meets an interval in a
    closed-form number of points.
    """
    x_lo, x_hi = interval_x
    y_lo, y_hi = interval_y
    if x_hi < x_lo or y_hi < y_lo:
        return 0

    def count_in(lo: int, hi: int, r: int) -> int:
        # integers t = r (mod q) with lo <= t <= hi
        return (hi - r) // q - ((lo - r - 1) // q)

    if (x_hi - x_lo) <= (y_hi - y_lo) and math.gcd(s, q) == 1:
        s_inv = inv_mod(s, q)
        return sum(count_in(y_lo, y_hi, (x * s_inv) % q) for x in range(x_lo, x_hi + 1))
    return sum(count_in(x_lo, x_hi, (y * s) % q) for y in range(y_lo, y_hi + 1))


def rational_reconstruction(
    s: int, bound_a: float, bound_b: float, q: int
) -> tuple[int, int] | None:
    """Smallest-|a| pair with s = b * a^{-1} (mod q), |a| <= bound_a, |b| <= bound_b.

    Scans a = 1, 2, ... and reduces a*s to the centered representative, so the
    first hit has minimal |a|.  Returns None when no pair exists.
    """
    if math.gcd(s, q) != 1:
        raise ValueError("s must be invertible mod q")
    a_cap = min(int(bound_a), q - 1)
    if a_cap > 2_000_000:
        raise EnumerationOverflowError("reconstruction scan bound too large")
    half = q // 2
    for a in range(1, a_cap + 1):
        b = a * s % q
        if b > half:
            b -= q
        if abs(b) <= bound_b:
            return (a, b)
    return None


def reconstruction_vector(s: int, box: Box2D, q: int) -> tuple[int, int]:
    """Minimal-gauge (b, a) with b = a*s (mod q), a nonzero mod q, w.r.t. the box.

    This is the lattice vector behind the structured branch of the congruence
    dichotomy: b plays the x role (bounded by the h side) and a the y role
    (bounded by the H side).  The vectors with a = 0 (mod q) form qZ^2.  If
    the reduced b1 lies there, every vector shorter than b2 is a multiple of
    b1, and b2 does not lie there too, since det L = q < q^2; so b2 is the
    answer.  The sign is chosen with a > 0; among vectors of equal gauge any
    one may be returned.
    """
    b1, b2 = _reduce(Lattice2D.congruence(s, q), box)
    b, a = b1 if b1[1] % q else b2
    return (b, a) if a > 0 else (-b, -a)


def dichotomy_sweep(q_max: int = 499, samples: int = 1000, seed: int = 11) -> list[dict]:
    """Sample (s, I, J) cells and record the smallest constant certifying the dichotomy.

    For each sample the cell constant is the smaller of
      * I(s) / max(Hh/q, 1)                       (dense branch), and
      * min over (a, b) with s = b*a^{-1} (mod q) of
        max(|a| * I(s) / H, |b| * I(s) / h)       (structured branch),
    so the frozen constant is the max over cells of that minimum.  The
    structured branch pairs |b| with the x-side length h and |a| with the
    y-side length H, matching the lattice vector (b, a) with b = a*s (mod q).
    """
    import numpy as np

    from .primes import primes_between

    primes = primes_between(11, q_max).tolist()
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(samples):
        q = primes[int(rng.integers(0, len(primes)))]
        s = int(rng.integers(1, q))
        h = int(rng.integers(1, q))
        H = int(rng.integers(1, q))
        x_lo = int(rng.integers(-q, q - h + 2))
        y_lo = int(rng.integers(-q, q - H + 2))
        interval_x = (x_lo, x_lo + h - 1)
        interval_y = (y_lo, y_lo + H - 1)
        count = congruence_count(s, interval_x, interval_y, q)
        dense = count / max(h * H / q, 1.0)
        structured = math.inf
        if count > 0:
            b, a = reconstruction_vector(s, Box2D(h, H), q)
            structured = max(abs(a) * count / H, abs(b) * count / h)
        needed = min(dense, structured)
        mink = minkowski_check(Lattice2D.congruence(s, q), Box2D(h, H))
        rows.append(
            {
                "q": q,
                "s": s,
                "h": h,
                "H": H,
                "count": count,
                "dense_ratio": dense,
                "structured_ratio": structured if structured < math.inf else None,
                "needed": needed,
                "minkowski_ok": mink["passed"],
                "sample": i,
            }
        )
    return rows

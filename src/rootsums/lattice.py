"""Two-dimensional lattices, successive minima against boxes, and congruence counts.

The lattice of interest is {(x, y) in Z^2 : x = y*s (mod q)} together with a
symmetric box |x| <= h, |y| <= H.  Successive minima are computed exactly by
layered enumeration: for each coefficient layer n the box-gauge is a convex
piecewise-linear function of the remaining coefficient, so its integer
minimum sits next to one of O(1) breakpoints, and a per-layer lower bound
certifies when no further layer can improve the answer.  No floating-point
reduction is trusted for the final result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationOverflowError
from .modular import inv_mod

_LAYER_CAP = 2_000_000
_ENUM_CAP = 4_000_000


@dataclass(frozen=True)
class Box2D:
    """Symmetric box {(x, y): |x| <= h, |y| <= H}; always convex and centrally symmetric."""

    h: float
    H: float

    def __post_init__(self):
        if self.h <= 0 or self.H <= 0:
            raise ValueError("box half-widths must be positive")

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


def _lagrange_reduce(lat: Lattice2D, box: Box2D) -> tuple[tuple[int, int], tuple[int, int]]:
    """Lagrange/Gauss reduction of the integer basis in box-scaled coordinates.

    Only improves the layer geometry; exactness of the minima does not rely
    on the reduction being perfect.
    """
    sx, sy = 1.0 / box.h, 1.0 / box.H
    u, v = lat.b1, lat.b2

    def dot(p, r):
        return (p[0] * sx) * (r[0] * sx) + (p[1] * sy) * (r[1] * sy)

    for _ in range(256):
        if dot(u, u) > dot(v, v):
            u, v = v, u
        denom = dot(u, u)
        if denom == 0:
            break
        mu = round(dot(u, v) / denom)
        if mu == 0:
            break
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
    return u, v


def _cross(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _canonical(v: tuple[int, int]) -> tuple[int, int]:
    """Pick one of {v, -v} deterministically."""
    return v if v > (-v[0], -v[1]) else (-v[0], -v[1])


def _layer_minimum(
    b1: tuple[int, int],
    b2: tuple[int, int],
    n: int,
    box: Box2D,
    forbid: tuple[int, int] | None,
) -> tuple[float, tuple[int, int]] | None:
    """Exact min of the box gauge over {m*b1 + n*b2 : m in Z}, nonzero vectors only.

    With ``forbid`` set, vectors parallel to it are excluded.  The gauge is a
    max of two absolute linear functions of m, so the continuous minimum sits
    at a zero or a crossing; the integer minimum is adjacent to one of them.
    """
    a, b_ = b1
    c, d = b2

    candidates: set[int] = set()

    def add(value: float) -> None:
        candidates.add(math.floor(value))
        candidates.add(math.ceil(value))

    if a != 0:
        add(-c * n / a)
    if b_ != 0:
        add(-d * n / b_)
    # crossings of the two linear pieces: a*m + c*n = +-(h/H)(b*m + d*n)
    ratio = box.h / box.H
    for sign in (1.0, -1.0):
        denom = a - sign * ratio * b_
        if abs(denom) > 1e-15:
            add((sign * ratio * d * n - c * n) / denom)

    skip_m: Fraction | None = None
    if forbid is not None:
        cr1 = _cross(b1, forbid)
        cr2 = _cross(b2, forbid)
        if cr1 == 0:
            if n * cr2 == 0:
                return None  # the whole layer is parallel to the forbidden direction
        else:
            skip_m = Fraction(-n * cr2, cr1)

    # When the unconstrained integer minimiser is excluded (zero vector or a
    # forbidden direction), the constrained one is adjacent; cover both sides.
    for m in list(candidates):
        candidates.add(m - 1)
        candidates.add(m + 1)

    best: tuple[float, tuple[int, int]] | None = None
    for m in sorted(candidates):
        x = m * a + n * c
        y = m * b_ + n * d
        if x == 0 and y == 0:
            continue
        if skip_m is not None and skip_m == m:
            continue
        if forbid is not None and _cross((x, y), forbid) == 0:
            continue
        norm = box.norm((x, y))
        vec = _canonical((x, y))
        key = (norm, abs(vec[0]), abs(vec[1]), vec)
        if best is None or key < (best[0], abs(best[1][0]), abs(best[1][1]), best[1]):
            best = (norm, vec)
    return best


def _minimize(
    b1: tuple[int, int],
    b2: tuple[int, int],
    box: Box2D,
    forbid: tuple[int, int] | None = None,
    layer_ok=None,
) -> tuple[float, tuple[int, int]]:
    """Exact lattice minimum of the box gauge (excluding 0 and optional directions).

    Scans layers n = 0, 1, 2, ...; stops once the per-layer lower bound
    |n| * ||b2 orthogonal part|| / sqrt(2) exceeds the best gauge found.
    """
    sx, sy = 1.0 / box.h, 1.0 / box.H
    u = (b1[0] * sx, b1[1] * sy)
    v = (b2[0] * sx, b2[1] * sy)
    uu = u[0] * u[0] + u[1] * u[1]
    mu = (u[0] * v[0] + u[1] * v[1]) / uu
    w = (v[0] - mu * u[0], v[1] - mu * u[1])
    orth = math.hypot(*w)
    if orth <= 0:
        raise EnumerationOverflowError("degenerate basis")

    best: tuple[float, tuple[int, int]] | None = None
    n = 0
    while True:
        if n > _LAYER_CAP:
            raise EnumerationOverflowError("layer scan exceeded its cap")
        if best is not None and n > 0 and n * orth / math.sqrt(2.0) > best[0] * (1 + 1e-12):
            break
        if layer_ok is None or layer_ok(n):
            found = _layer_minimum(b1, b2, n, box, forbid)
            if found is not None:
                key = (found[0], abs(found[1][0]), abs(found[1][1]), found[1])
                if best is None or key < (best[0], abs(best[1][0]), abs(best[1][1]), best[1]):
                    best = found
        if best is None and n > _LAYER_CAP // 2:
            raise EnumerationOverflowError("no admissible vector found")
        n += 1
    assert best is not None
    return best


def successive_minima(lat: Lattice2D, box: Box2D) -> tuple[float, float]:
    """(lambda_1, lambda_2) of the lattice with respect to the box, exactly.

    lambda_1 is the least gauge of a nonzero vector; lambda_2 the least gauge
    of a vector independent of a fixed lambda_1 witness (deterministic
    tie-breaking makes the witness unique).
    """
    red1, red2 = _lagrange_reduce(lat, box)
    lam1, v1 = _minimize(red1, red2, box)
    lam2, _ = _minimize(red1, red2, box, forbid=v1)
    return lam1, lam2


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


def reconstruction_vector(s: int, box: Box2D, q: int) -> tuple[int, int] | None:
    """Minimal-gauge (b, a) with b = a*s (mod q), a nonzero mod q, w.r.t. the box.

    This is the lattice vector behind the structured branch of the congruence
    dichotomy: b plays the x role (bounded by the h side) and a the y role
    (bounded by the H side).
    """
    lat = Lattice2D.congruence(s, q)
    try:
        _, vec = _minimize(
            lat.b1, lat.b2, box, layer_ok=lambda n: n % q != 0
        )
    except EnumerationOverflowError:
        return None
    return vec


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

    from .primes import sieve_primes

    primes = [int(p) for p in sieve_primes(q_max) if p >= 11]
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
            vec = reconstruction_vector(s, Box2D(h, H), q)
            if vec is not None:
                b, a = vec
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

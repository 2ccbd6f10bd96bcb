"""Split primes in Q(sqrt(-q)), the least split prime, and the effective counting construction.

The quantitative centrepiece: for q = 3 (mod 16) the values of
P(n) = n^2 + n + (q+1)/4 satisfy 4*P(n) = (2n+1)^2 + q, so every odd prime
divisor p (with p != q) makes -q a nonzero square mod p and is therefore
split; P(n) is odd outright, so p = 2 never appears.  Counting the distinct
prime factors p <= q over n <= floor(sqrt(3q)/2) yields an effective lower
bound on the number of split primes below q.

Splitting is read as one character: for an odd prime p != q, p splits
exactly when (-q/p) = 1, and ``splitting_types`` reads that value for a
whole block of primes from the Legendre table through reciprocity
(``quadforms.chi_at``).  p = q ramifies, and so does p = 2 when
q = 1 (mod 4), since the discriminant is then -4q; for q = 3 (mod 4), 2
splits iff q = 7 (mod 8).  ``is_split`` decides one prime through the
Kronecker symbol instead, as an independent check of the table path.

Note the quadratic here carries the cross term n^2 + n + (q+1)/4, which is
what discriminant -q forces; the cross-term-free variant n^2 + (q+1)/4 has
discriminant -(q+1) and genuinely produces non-split factors (q = 67:
2 divides 1 + 17 = 18 yet -67 = 5 mod 8, so 2 is inert).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modular import inv_mod, kronecker, sqrt_mod
from .primes import factorize, is_prime, iter_prime_blocks, primes_between, sieve_primes, valuation
from .quadforms import chi_at

# (2 - log(3*sqrt(2))) / 2, the per-step constant in the effective lower bound
EFFECTIVE_CONSTANT = (2.0 - math.log(3.0 * math.sqrt(2.0))) / 2.0
# The probe's prime cutoff is P = q^(1/2 + PROBE_EPS).
PROBE_EPS = 0.25


def is_split(p: int, q: int) -> str:
    """Splitting type of the rational prime p in Q(sqrt(-q)): 'split', 'inert' or 'ramified'.

    For an odd prime q, decided by ``kronecker(-q, p)``, independently of the
    table path of ``splitting_types``.  p = 2 ramifies when q = 1 (mod 4),
    where the discriminant is -4q; otherwise it splits iff q = 7 (mod 8).
    """
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"need an odd prime q, got {q}")
    return _splitting_type(p, q)


def _splitting_type(p: int, q: int) -> str:
    """``is_split`` for a q already known to be an odd prime; p is still checked."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == q or (p == 2 and q % 4 == 1):
        return "ramified"
    return "split" if kronecker(-q, p) == 1 else "inert"


def splitting_types(primes: np.ndarray, q: int) -> np.ndarray:
    """int8 per prime p: 1 if p splits in Q(sqrt(-q)), -1 if inert, 0 if ramified.

    q must be an odd prime.  For p != 2 the value is chi(p) = (-q/p), read
    through ``quadforms.chi_at``, which is 0 at p = q; p = 2 ramifies when
    q = 1 (mod 4) and otherwise is chi(2).
    """
    p = np.asarray(primes, dtype=np.int64)
    types = chi_at(q, p)
    if q % 4 == 1:
        types[p == 2] = 0
    return types


def count_split(limit: float, q: int) -> int:
    """N_q(P): the number of split primes p <= P, by segmented enumeration."""
    return split_census(limit, q)["split"]


def split_census(limit: float, q: int) -> dict[str, int]:
    """Counts of split / inert / ramified primes up to the limit."""
    census = {"split": 0, "inert": 0, "ramified": 0}
    for block in iter_prime_blocks(int(limit)):
        types = splitting_types(block, q)
        for name, value in (("split", 1), ("inert", -1), ("ramified", 0)):
            census[name] += int(np.count_nonzero(types == value))
    return census


def least_split_prime(q: int) -> int:
    """Smallest prime that splits in Q(sqrt(-q)), q an odd prime."""
    for block in iter_prime_blocks(4 * q * q):
        where = np.flatnonzero(splitting_types(block, q) == 1)
        if where.size:
            return int(block[where[0]])
    raise RuntimeError(f"no split prime below {4 * q * q}")


def principal_form_value(n: int, q: int) -> int:
    """P(n) = n^2 + n + (q+1)/4, so that 4*P(n) = (2n+1)^2 + q."""
    if q % 16 != 3:
        raise ValueError("need q = 3 (mod 16)")
    if n < 1:
        raise ValueError("need n >= 1")
    return n * n + n + (q + 1) // 4


def construction_range(q: int) -> int:
    """t = floor(sqrt(3q)/2), the number of form values entering the product."""
    return math.isqrt(3 * q) // 2


@dataclass(frozen=True)
class EffectiveCountReport:
    q: int
    t: int
    split_primes: tuple[int, ...]
    omega: int
    excluded_above_q: tuple[int, ...]
    bound: float
    passed: bool


def effective_split_count(q: int) -> EffectiveCountReport:
    """Factor P(1..t), verify every prime factor is split, and compare omega to the bound.

    Any prime factor failing the splitting test is a hard error, since that
    would falsify the construction itself.  q is checked once, here; each
    distinct factor is checked prime and split once.  Factors above q exist
    only near n = t; they are split too but are excluded from omega so that
    omega <= N_q(q) stays valid.
    """
    if q < 67 or not is_prime(q) or q % 16 != 3:
        raise ValueError("need a prime q >= 67 with q = 3 (mod 16)")
    t = construction_range(q)
    p_max = principal_form_value(t, q)
    base = sieve_primes(math.isqrt(p_max) + 1)
    collected: set[int] = set()
    excluded: set[int] = set()
    for n in range(1, t + 1):
        value = principal_form_value(n, q)
        for p in factorize(value, base):
            seen = collected if p <= q else excluded
            if p not in seen and _splitting_type(p, q) != "split":  # each distinct factor once
                raise AssertionError(
                    f"prime {p} divides P({n}) for q={q} but is not split"
                )
            seen.add(p)
    bound = EFFECTIVE_CONSTANT * t / math.log(q)
    omega = len(collected)
    return EffectiveCountReport(
        q=q,
        t=t,
        split_primes=tuple(sorted(collected)),
        omega=omega,
        excluded_above_q=tuple(sorted(excluded)),
        bound=bound,
        passed=omega > bound,
    )


def effective_sweep(q_min: int = 67, q_max: int = 10**4) -> list[EffectiveCountReport]:
    """Run the effective construction for every prime q = 3 (mod 16) in [q_min, q_max]."""
    reports = []
    for q in primes_between(q_min, q_max).tolist():
        if q % 16 == 3:
            reports.append(effective_split_count(q))
    return reports


# ---------------------------------------------------------------------------
# Hensel lifting and the valuation identity for the form values.
# ---------------------------------------------------------------------------


def hensel_sqrt(a: int, p: int, k: int) -> tuple[int, int]:
    """The two lifts {x, p^k - x} of the square roots of a modulo p^k.

    Needs p odd, p not dividing a, and a a quadratic residue mod p; precision
    doubles each Newton step x -> (x + a/x) / 2.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if p % 2 == 0 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if a % p == 0:
        raise ValueError("a must be a unit mod p")
    roots = sqrt_mod(a % p, p)
    if not roots:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    x = roots[0]
    modulus = p
    target = p**k
    while modulus < target:
        modulus = min(modulus * modulus, target)
        x = (x + a * inv_mod(x, modulus)) * inv_mod(2, modulus) % modulus
    x %= target
    return tuple(sorted((x, target - x)))


def _lift_form_roots(q: int, p: int, k: int) -> tuple[int, int]:
    """Roots of X^2 + X + (q+1)/4 modulo p^k: (r - 1)/2 for the lifted roots r of -q.

    The discriminant is 1 - (q + 1) = -q, so the roots come from ``hensel_sqrt``.
    """
    roots = hensel_sqrt(-q, p, k)
    target = p**k
    half = inv_mod(2, target)
    a, b = sorted((r - 1) * half % target for r in roots)
    return a, b


def ordp_identity_check(p: int, q: int, n: int) -> bool:
    """Check ord_p P(n) = ord_p(n - a_p) + ord_p(n - b_p) with truncated lifts.

    The lift precision p^k is pushed above 4q so every valuation that can
    occur in P(n) <= q + O(sqrt(q)) is resolved exactly; with that precision
    the identity holds for all n <= t, including n equal to a truncated root.
    """
    if q % 16 != 3:
        raise ValueError("need q = 3 (mod 16)")
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    value = principal_form_value(n, q)
    k = 1
    while p**k <= 4 * q:
        k += 1
    a_p, b_p = _lift_form_roots(q, p, k)
    lhs = valuation(value, p)
    if n == a_p or n == b_p:
        # cannot happen at this precision: it would force p^k | P(n) <= 4q < p^k
        raise AssertionError("truncated root collision at certified precision")
    rhs = valuation(n - a_p, p) + valuation(n - b_p, p)
    return lhs == rhs


def stirling_step_holds(t: int) -> bool:
    """Exact check of (t-1)! <= (t/e)^t via log-gamma with a safety margin."""
    if t <= 7:
        raise ValueError("the step is only claimed for t > 7")
    lhs = math.lgamma(t)  # log((t-1)!)
    rhs = t * (math.log(t) - 1.0)
    return lhs <= rhs + 1e-9


def asymptotic_probe_rows(q_min: int = 10**3, q_max: int = 10**5, stride: int = 40) -> list[dict]:
    """Report-only probe of the asymptotic lower bound N_q(P) >= c * min(...) at P = q^(1/2 + PROBE_EPS).

    The constant is ineffective, so rows carry the measured ratio without any
    assertion.  ``stride`` thins the prime grid to keep the probe quick.
    """
    rows = []
    for q in primes_between(q_min, q_max)[::stride].tolist():
        p_limit = q ** (0.5 + PROBE_EPS)
        measured = count_split(p_limit, q)
        envelope = min(
            p_limit**0.5 * q ** (-PROBE_EPS / 2.0),
            p_limit * q ** (-0.25 - 2.0 * PROBE_EPS / 3.0),
        )
        rows.append(
            {
                "q": q,
                "P": p_limit,
                "split_count": measured,
                "envelope": envelope,
                "ratio": measured / envelope if envelope > 0 else math.inf,
            }
        )
    return rows

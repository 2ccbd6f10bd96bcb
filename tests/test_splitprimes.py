"""Splitting tests, the effective construction, Hensel lifting, valuation identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsums import modular, quadforms, splitprimes
from rootsums.modular import kronecker, least_nonresidue
from rootsums.primes import factorize, sieve_primes, valuation
from rootsums.splitprimes import (
    EFFECTIVE_CONSTANT,
    construction_range,
    count_split,
    effective_split_count,
    effective_sweep,
    hensel_sqrt,
    is_split,
    least_split_prime,
    ordp_identity_check,
    principal_form_value,
    split_census,
    splitting_types,
    stirling_step_holds,
    asymptotic_probe_rows,
)

Q3MOD16 = [int(q) for q in sieve_primes(1000) if q % 16 == 3 and q >= 67]
TYPE_NAMES = {1: "split", -1: "inert", 0: "ramified"}


def dedekind_type(p: int, q: int) -> str:
    """Splitting of p in Q(sqrt(-q)) from the roots mod p of the ring's minimal polynomial.

    The ring of integers is Z[(1 + sqrt(-q))/2] for q = 3 (mod 4), with
    polynomial x^2 - x + (q+1)/4, and Z[sqrt(-q)] for q = 1 (mod 4), with
    x^2 + q; two roots mean split, a double root ramified, none inert.
    """
    x = np.arange(p, dtype=np.int64)
    f = x * x - x + (q + 1) // 4 if q % 4 == 3 else x * x + q
    return {2: "split", 1: "ramified", 0: "inert"}[int(np.count_nonzero(f % p == 0))]


class TestSplitting:
    def test_pinned(self):
        assert is_split(7, 7) == "ramified"
        assert is_split(2, 7) == "split"
        assert is_split(3, 7) == "inert"

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            is_split(6, 7)

    @pytest.mark.parametrize("p,q", [(3, 15), (5, 15), (2, 9), (3, 2)])
    def test_needs_an_odd_prime_modulus(self, p, q):
        with pytest.raises(ValueError):
            is_split(p, q)

    def test_count_examples(self):
        assert count_split(5, 23) == 2  # p = 2 and p = 3 split, 5 is inert
        assert count_split(1, 23) == 0

    def test_count_monotone(self):
        q = 103
        counts = [count_split(x, q) for x in (10, 50, 100, 1000)]
        assert counts == sorted(counts)

    @pytest.mark.parametrize("q", [7, 23, 103, 499, 883])
    def test_census_partition(self, q):
        census = split_census(q, q)
        total = len(sieve_primes(q))
        assert census["ramified"] == 1
        assert census["split"] + census["inert"] + 1 == total

    def test_least_values(self):
        assert least_nonresidue(7) == 3  # 2 is a residue mod 7
        assert least_split_prime(7) == 2

    @pytest.mark.parametrize("q", [int(p) for p in sieve_primes(500) if p > 3])
    def test_least_nonresidue_is_least_over_integers(self, q):
        """The least non-residue among all integers >= 2 is automatically prime."""
        n_q = least_nonresidue(q)
        first = next(n for n in range(2, q) if kronecker(n, q) == -1)
        assert n_q == first


    @pytest.mark.parametrize("q", [int(q) for q in sieve_primes(200) if q > 2])
    def test_dedekind_criterion(self, q):
        primes = sieve_primes(500)
        expected = [dedekind_type(int(p), q) for p in primes]
        assert [is_split(int(p), q) for p in primes] == expected
        assert [TYPE_NAMES[int(t)] for t in splitting_types(primes, q)] == expected

    def test_two_ramifies_for_q_1_mod_4(self):
        assert is_split(2, 17) == "ramified"
        assert least_split_prime(17) == 3
        assert count_split(2, 17) == 0
        assert split_census(10, 5) == {"split": 2, "inert": 0, "ramified": 2}

    @pytest.mark.parametrize("q", [3, 5, 7, 13, 17, 23, 41, 73, 1009, 1013, 99991])
    def test_table_path_matches_oracle_without_kronecker(self, q, monkeypatch):
        limit = 3000
        primes = [int(p) for p in sieve_primes(10**4)]
        types = [is_split(p, q) for p in primes if p <= limit]
        census = {name: types.count(name) for name in ("split", "inert", "ramified")}
        first_split = next(p for p in primes if is_split(p, q) == "split")
        first_nonresidue = next(p for p in primes if kronecker(p, q) == -1)
        calls = []

        def counting_kronecker(a, n):
            calls.append((a, n))
            return kronecker(a, n)

        for module in (modular, quadforms, splitprimes):
            monkeypatch.setattr(module, "kronecker", counting_kronecker)
        assert split_census(limit, q) == census
        assert count_split(limit, q) == census["split"]
        assert least_split_prime(q) == first_split
        assert least_nonresidue(q) == first_nonresidue
        assert calls == []

    def test_table_path_needs_an_odd_prime(self):
        for bad in (2, 9, 15):
            with pytest.raises(ValueError):
                count_split(100, bad)
            with pytest.raises(ValueError):
                least_split_prime(bad)
            with pytest.raises(ValueError):
                least_nonresidue(bad)


class TestPrincipalForm:
    def test_values(self):
        assert principal_form_value(1, 67) == 19
        assert principal_form_value(7, 67) == 73

    def test_needs_3_mod_16(self):
        with pytest.raises(ValueError):
            principal_form_value(1, 7)  # 7 = 7 (mod 16)

    @given(st.sampled_from(Q3MOD16), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=80)
    def test_completed_square_identity(self, q, n):
        assert 4 * principal_form_value(n, q) - (2 * n + 1) ** 2 == q

    @pytest.mark.parametrize("q", Q3MOD16)
    def test_values_always_odd(self, q):
        """The cross-term form never picks up a factor of 2."""
        t = construction_range(q)
        assert all(principal_form_value(n, q) % 2 == 1 for n in range(1, t + 1))

    @pytest.mark.parametrize("q", Q3MOD16)
    def test_value_window(self, q):
        """q/4 < P(n) for n >= 1, and P(t) <= q + O(sqrt(q))."""
        t = construction_range(q)
        assert principal_form_value(1, q) > q / 4
        assert principal_form_value(t, q) <= q + 2 * math.isqrt(q) + 2


class TestEffectiveCount:
    def test_constant(self):
        assert EFFECTIVE_CONSTANT == pytest.approx((2 - math.log(3 * math.sqrt(2))) / 2)
        # the headline density constant
        assert EFFECTIVE_CONSTANT * math.sqrt(3) / 2 == pytest.approx(0.2402, abs=5e-5)

    def test_q67_report(self):
        rep = effective_split_count(67)
        assert rep.t == 7
        assert rep.split_primes == (19, 23, 29, 37, 47, 59)
        assert rep.excluded_above_q == (73,)
        assert rep.omega == 6
        assert rep.bound == pytest.approx(0.4618, abs=5e-5)
        assert rep.passed

    def test_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            effective_split_count(71)
        with pytest.raises(ValueError):
            effective_split_count(19)  # = 3 (mod 16) but below 67

    @pytest.mark.parametrize("q", [67, 787, 9907])
    def test_each_distinct_factor_is_checked_once(self, q, monkeypatch):
        """The splitting test runs once per distinct prime factor of P(1..t), not once
        per value it divides, and a factor reported non-split still fails the construction."""
        calls = []
        check = splitprimes._splitting_type

        def spy(p, modulus):
            calls.append(p)
            return check(p, modulus)

        monkeypatch.setattr(splitprimes, "_splitting_type", spy)
        rep = effective_split_count(q)
        values = [principal_form_value(n, q) for n in range(1, rep.t + 1)]
        factors = set().union(*(factorize(value) for value in values))
        assert sorted(calls) == sorted(factors)
        assert set(rep.split_primes) | set(rep.excluded_above_q) == factors
        monkeypatch.setattr(
            splitprimes, "_splitting_type", lambda p, modulus: "inert" if p == max(factors) else "split"
        )
        with pytest.raises(AssertionError, match=f"prime {max(factors)} divides"):
            effective_split_count(q)

    @pytest.mark.parametrize("q", [67, 787, 9907])
    def test_modulus_is_checked_prime_once(self, q, monkeypatch):
        """One construction tests q for primality once, and each distinct factor once."""
        calls = []
        check = splitprimes.is_prime

        def spy(n):
            calls.append(n)
            return check(n)

        monkeypatch.setattr(splitprimes, "is_prime", spy)
        rep = effective_split_count(q)
        assert calls.count(q) == 1
        assert sorted(calls) == sorted([q, *rep.split_primes, *rep.excluded_above_q])

    def test_sweep_small_range(self):
        reports = effective_sweep(67, 1000)
        assert len(reports) == len(Q3MOD16)
        assert all(r.passed for r in reports)
        assert all(r.omega <= count_split(r.q, r.q) for r in reports)

    def test_probe_rows_report_only(self):
        rows = asymptotic_probe_rows(10**3, 2 * 10**3, stride=10)
        assert rows and all(r["ratio"] > 0 for r in rows)

    @pytest.mark.parametrize("t", [8, 9, 20, 100, 1000])
    def test_stirling_step(self, t):
        assert stirling_step_holds(t)
        if t <= 150:  # direct integer comparison backs the log-gamma route
            assert math.factorial(t - 1) <= (t / math.e) ** t * (1 + 1e-9)
        else:
            lhs = sum(math.log(k) for k in range(2, t))
            assert lhs <= t * (math.log(t) - 1.0) + 1e-6


class TestHensel:
    def test_examples(self):
        assert hensel_sqrt(2, 7, 2) == (10, 39)
        assert 10 * 10 % 49 == 2
        assert hensel_sqrt(1, 5, 3) == (1, 124)

    def test_base_case_is_sqrt_mod(self):
        from rootsums.modular import sqrt_mod

        assert hensel_sqrt(2, 7, 1) == sqrt_mod(2, 7)

    def test_rejects_nonresidue(self):
        with pytest.raises(ValueError):
            hensel_sqrt(3, 7, 2)

    @given(
        st.sampled_from([3, 7, 11, 19, 101]),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=60)
    def test_lifts_square(self, p, k, a):
        if a % p == 0 or kronecker(a, p) != 1:
            return
        x, y = hensel_sqrt(a, p, k)
        mod = p**k
        assert x * x % mod == a % mod
        assert y == mod - x


class TestValuationIdentity:
    def test_nondivisor_gives_zero(self):
        # 29 is split for q = 67 and divides P(4) = 37? no: take p with p | no small P(n)
        rep = effective_split_count(67)
        assert 19 in rep.split_primes
        assert ordp_identity_check(19, 67, 2)  # 19 does not divide P(2) = 23
        assert valuation(principal_form_value(2, 67), 19) == 0

    def test_pinned(self):
        assert ordp_identity_check(19, 67, 1)

    @pytest.mark.parametrize("q", Q3MOD16)
    def test_exhaustive_small_moduli(self, q):
        t = construction_range(q)
        rep = effective_split_count(q)
        primes = set(rep.split_primes) | set(rep.excluded_above_q)
        for p in sorted(primes):
            if p == 2:
                continue
            for n in range(1, t + 1):
                assert ordp_identity_check(p, q, n)

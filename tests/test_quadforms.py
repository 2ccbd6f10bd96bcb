"""Binary quadratic forms, class numbers, chi and the representation function."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsums import quadforms
from rootsums.errors import SizeGuardError
from rootsums.modular import kronecker, legendre_table
from rootsums.primes import factorize, sieve_primes
from rootsums.quadforms import (
    DUKE_LIMIT_FRACTION,
    BinaryQuadraticForm,
    chi,
    chi_at,
    chi_values,
    class_number,
    class_number_consistency_sweep,
    class_number_finite,
    class_number_series,
    class_number_tail_bound,
    enumerate_reduced_forms,
    form_moduli,
    forms_in_window,
    heegner_fraction,
    is_represented,
    l_value_direct,
    l_value_exact,
    l_values,
    r_function,
    r_mean_value,
    representation_count,
)

FORM_PRIMES = [int(q) for q in sieve_primes(1000) if q % 4 == 3 and q > 3]


def full_table_l_value(q, truncation):
    """sum_{n <= T} chi(n)/n from one table of 1/n for n = 0..T, summed into residue-class
    totals of the whole table: for q = 1 (mod 4), per v, over odd m <= T >> v."""

    def class_totals(x, period):
        full = len(x) // period * period
        totals = x[:full].reshape(-1, period).sum(axis=0)
        totals[: len(x) - full] += x[full:]
        return totals

    recips = np.arange(truncation + 1, dtype=np.float64)
    recips[0] = np.inf
    recips = 1.0 / recips
    if q % 4 == 3:
        return float(np.sum(chi_at(q, np.arange(q, dtype=np.int64)) * class_totals(recips, q)))
    chi_period = chi_at(q, np.arange(4 * q, dtype=np.int64))
    total, v = 0.0, 0
    while truncation >> v:
        inner = float(np.sum(chi_period[1::2] * class_totals(recips[1 : (truncation >> v) + 1 : 2], 2 * q)))
        total += int(chi_period[2]) ** v * inner / 2**v
        v += 1
    return total


class TestEnumeration:
    def test_h_of_7(self):
        forms = enumerate_reduced_forms(7)
        assert forms == (BinaryQuadraticForm(1, 1, 2),)
        assert class_number(7) == 1

    def test_h_of_23(self):
        forms = enumerate_reduced_forms(23)
        assert set(forms) == {
            BinaryQuadraticForm(1, 1, 6),
            BinaryQuadraticForm(2, 1, 3),
            BinaryQuadraticForm(2, -1, 3),
        }
        assert class_number(23) == 3

    def test_bad_moduli_rejected(self):
        for bad in (3, 5, 13, 15):
            with pytest.raises(ValueError):
                enumerate_reduced_forms(bad)

    @pytest.mark.parametrize("q", FORM_PRIMES[:40] + FORM_PRIMES[-5:])
    def test_forms_are_reduced_with_right_discriminant(self, q):
        forms = enumerate_reduced_forms(q)
        assert len(forms) == len(set(forms))
        for f in forms:
            assert f.discriminant == -q
            assert f.is_reduced and f.is_positive_definite
            assert 3 * f.a * f.c <= q
            assert f.a <= math.isqrt(q // 3) + 1

    @pytest.mark.parametrize("q", FORM_PRIMES[:20])
    def test_no_reduced_form_missed(self, q):
        """Brute force over the coefficient box finds exactly the same set."""
        expected = set()
        bound = math.isqrt(q) + 1
        for a in range(1, bound):
            for b in range(-a, a + 1):
                if (b * b + q) % (4 * a):
                    continue
                c = (b * b + q) // (4 * a)
                f = BinaryQuadraticForm(a, b, c)
                if f.is_reduced and f.discriminant == -q:
                    expected.add(f)
        assert set(enumerate_reduced_forms(q)) == expected


class TestHeegner:
    def test_single_class(self):
        assert heegner_fraction(7) == 1.0
        z = enumerate_reduced_forms(7)[0].heegner_point()
        assert z == pytest.approx(complex(-0.5, math.sqrt(7) / 2))

    @pytest.mark.parametrize("q", FORM_PRIMES[:25])
    def test_points_in_fundamental_domain(self, q):
        for f in enumerate_reduced_forms(q):
            z = f.heegner_point()
            assert -0.5 - 1e-12 <= z.real <= 0.5 + 1e-12
            assert abs(z) >= 1.0 - 1e-12
            assert z.imag > 0

    def test_window_coefficient_bound(self):
        for q in FORM_PRIMES[-10:]:
            for f in forms_in_window(q):
                assert max(abs(f.a), abs(f.b), abs(f.c)) <= (20.0 / 3.0) * math.sqrt(q)

    def test_limit_constant(self):
        assert DUKE_LIMIT_FRACTION == pytest.approx(27.0 / (10.0 * math.pi))
        assert DUKE_LIMIT_FRACTION == pytest.approx(0.85944, abs=1e-5)


class TestFormModuli:
    def test_default_list(self):
        """The 50 moduli that ``forms`` and the Heegner-window criterion read."""
        primes = sieve_primes(102000)
        oracle = [int(q) for q in primes if q >= 10**5 and q % 4 == 3][:50]
        assert form_moduli(10**5, 50) == form_moduli(100003, 50) == oracle
        assert oracle[0] == 100003 and oracle[-1] == 101207

    @pytest.mark.parametrize("q_min, count", [(1003, 700), (3, 50000)])
    def test_exact_count_strictly_increasing(self, q_min, count):
        moduli = form_moduli(q_min, count)
        assert len(moduli) == count
        assert all(a < b for a, b in zip(moduli, moduli[1:]))
        assert moduli[0] > 3 and moduli[0] >= q_min
        assert all(q % 4 == 3 for q in moduli)

    def test_no_modulus_skipped_across_windows(self):
        oracle = [int(q) for q in sieve_primes(10**5) if q > 3 and q % 4 == 3]
        assert oracle[1999] > 3 * 10**4  # the first 2000 span several sieve windows
        assert form_moduli(3, 2000) == oracle[:2000]


class TestChi:
    def test_character_at_two(self):
        assert chi(2, 7) == 1  # -7 = 1 (mod 8)
        assert chi(2, 67) == -1  # -67 = 5 (mod 8)

    @pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 23, 101, 1009, 1013, 10007, 10009])
    def test_table_matches_direct(self, q, monkeypatch):
        # both classes of q mod 4 and both signs of chi(2)
        calls = []

        def counting_kronecker(a, n):
            calls.append((a, n))
            return kronecker(a, n)

        monkeypatch.setattr(quadforms, "kronecker", counting_kronecker)
        vals = chi_values(q, 3000)
        assert len(calls) == 0
        assert vals[0] == 0
        for n in range(1, 3001):
            assert vals[n] == kronecker(-q, n)

    def test_rejects_composite_modulus(self):
        # reciprocity through the Legendre table holds only for an odd prime q
        for bad in (2, 9, 15, 21):
            with pytest.raises(ValueError):
                chi_values(bad, 100)
            with pytest.raises(ValueError):
                l_value_direct(bad, 100)

    @pytest.mark.parametrize("q", [7, 23])
    def test_table_multiplicative(self, q):
        vals = chi_values(q, 500).astype(int)
        for a in (2, 3, 5, 8):
            for b in (3, 4, 7, 50):
                assert vals[a * b] == vals[a] * vals[b]


class TestRepresentationFunction:
    def test_pinned_values(self):
        assert r_function(1, 7) == 1
        assert r_function(2, 7) == 2  # chi(2) = +1
        assert r_function(3, 7) == 0  # chi(3) = -1

    @pytest.mark.parametrize("q", [7, 23])
    def test_euler_product_matches_divisor_sum(self, q):
        for n in range(1, 10**4 + 1):
            if n % q == 0:
                continue
            assert representation_count(n, q) == 2 * r_function(n, q)

    @given(st.sampled_from([7, 23, 31]), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60)
    def test_euler_product_random(self, q, n):
        if n % q == 0:
            return
        assert representation_count(n, q) == 2 * r_function(n, q)


class TestIsRepresented:
    def test_pinned(self):
        assert is_represented(1, 7)
        assert is_represented(2, 7)  # 1 = -7 (mod 8)
        assert not is_represented(18, 67)  # -67 = 5 (mod 8), no square

    @pytest.mark.parametrize("q", [7, 67])
    def test_brute_force_solvability(self, q):
        for n in range(1, 200):
            m = 4 * n
            solvable = any((b * b + q) % m == 0 for b in range(m))
            assert is_represented(n, q) == solvable

    @pytest.mark.parametrize("q", [7, 11, 19, 23, 31])
    def test_criterion_matches_r_positivity(self, q):
        """For squarefree n coprime to q: representable iff r(n) >= 1."""
        for n in range(1, 5001):
            if n % q == 0:
                continue
            if any(e > 1 for e in factorize(n).values()):
                continue
            assert is_represented(n, q) == (r_function(n, q) >= 1)


class TestLValues:
    def test_exact_values(self):
        assert l_value_exact(7) == pytest.approx(math.pi / math.sqrt(7))
        assert l_value_exact(23) == pytest.approx(3 * math.pi / math.sqrt(23))

    @pytest.mark.parametrize("q", [7, 11, 19, 23, 31, 43, 67])
    def test_direct_close_to_exact(self, q):
        truncation = 10**5
        direct, exact = l_value_direct(q, truncation), l_value_exact(q)
        assert abs(direct - exact) <= 10.0 / truncation

    @pytest.mark.parametrize("q", [7, 1009, 1013, 5003, 10007])
    def test_residue_class_sum_matches_term_by_term(self, q):
        truncation = 10**5
        vals = chi_values(q, truncation)
        explicit = math.fsum(int(vals[n]) / n for n in range(1, truncation + 1))
        assert abs(l_value_direct(q, truncation) - explicit) <= 1e-12

    @pytest.mark.parametrize("q", [1013, 10007])
    def test_truncation_below_modulus(self, q):
        vals = chi_values(q, 500)
        assert l_value_direct(q, 500) == pytest.approx(
            math.fsum(int(vals[n]) / n for n in range(1, 501)), abs=1e-14
        )

    @pytest.mark.parametrize("q", [7, 13, 1009, 1013, 10007, 10009])
    @pytest.mark.parametrize("truncation", [
        500, (1 << 18) - 2, (1 << 18) - 1, 1 << 18, 300_001,
    ], ids=["q-above-T", "one-below-a-piece", "one-piece", "one-past-a-piece", "across-pieces"])
    def test_pieces_match_the_full_table(self, q, truncation):
        """Within 1e-13 relative of the full-table class totals, for q = 1 and 3 (mod 4), at T
        below, at and past the end of a piece, T no multiple of q, and q > T."""
        expected = full_table_l_value(q, truncation)
        assert abs(l_value_direct(q, truncation) - expected) <= 1e-13 * abs(expected)

    @pytest.mark.parametrize("piece", [16, 40, 1 << 18])
    def test_short_pieces_and_batches_match_the_full_table(self, piece, monkeypatch):
        """Short pieces (16 or 40 entries, or twice the batch's longest period in n where that
        is longer) and batches of one modulus give every value within 1e-13 relative."""
        moduli, truncation = [3, 5, 7, 13, 19, 101, 103], 2_999
        expected = [full_table_l_value(q, truncation) for q in moduli]
        monkeypatch.setattr(quadforms, "_PIECE", piece)
        together = l_values(moduli, truncation)
        monkeypatch.setattr(quadforms, "_CHI_ENTRIES", 1)
        for got in (together, l_values(moduli, truncation)):
            assert all(abs(g - e) <= 1e-13 * abs(e) for g, e in zip(got, expected, strict=True))

    def test_memory_is_one_piece_whatever_the_truncation(self, heap_peak):
        """T = 10^7 reads 38 pieces of 2 MiB; a table of 1/n would be 76 MiB."""
        value, peak = heap_peak(l_value_direct, 10007, 10**7)
        assert peak < 4 << 20
        assert abs(value - l_value_exact(10007)) <= 10007 / 10**7

    def test_truncation_above_the_limit_is_refused(self):
        assert quadforms._RECIPROCALS_LIMIT == 1 << 27
        with pytest.raises(SizeGuardError, match="134217729 > 134217728"):
            l_values([7], (1 << 27) + 1)

    def test_finite_formula_matches_enumeration(self):
        for q in FORM_PRIMES:
            assert class_number_finite(q) == class_number(q)
        with pytest.raises(ValueError):
            class_number_finite(13)

    def test_tail_bound_covers_the_truncation_error(self):
        """|h_series - h| <= series_bound for every q = 3 (mod 4) below 2000, and every row
        agrees with room to spare."""
        rows = class_number_consistency_sweep(2000)
        assert [r["q"] for r in rows] == [q for q in sieve_primes(2000).tolist() if q % 4 == 3 and q > 3]
        for row in rows:
            assert (row["h_series"], row["series_bound"]) == class_number_series(row["q"])
            assert abs(row["h_series"] - row["h"]) <= row["series_bound"] < 1e-12
            assert row["agrees"]

    def test_l_series_tail_bound_covers_its_truncation(self):
        """class_number_tail_bound, which ``forms`` reports beside l_direct, covers
        |sqrt(q) L_T / pi - h| at T = 10^4 for every q = 3 (mod 4) below 2000."""
        moduli = [q for q in sieve_primes(2000).tolist() if q % 4 == 3 and q > 3]
        for q, direct in zip(moduli, l_values(moduli, 10**4), strict=True):
            bound = class_number_tail_bound(q, 10**4)
            assert bound == q**1.5 / (math.pi * 10_001)
            assert abs(math.sqrt(q) * direct / math.pi - class_number(q)) <= bound

    def test_series_needs_a_form_modulus(self):
        for bad in (3, 13, 15):
            with pytest.raises(ValueError):
                class_number_series(bad)

    def test_series_reads_each_legendre_table_once(self):
        """The finite formula and the series of a modulus share one built table."""
        legendre_table.cache_clear()
        rows = class_number_consistency_sweep(500)
        assert legendre_table.cache_info().misses == len(rows)

    def test_mean_value_against_direct_sum(self):
        q = 23
        for x in (1, 10, 97, 400):
            assert r_mean_value(x, q) == sum(r_function(n, q) for n in range(1, x + 1))

    def test_mean_value_is_near_linear(self):
        for q in (1009, 5003):
            l_val = l_value_direct(q, 10**5)
            assert abs(r_mean_value(q, q) - l_val * q) / q < 0.05

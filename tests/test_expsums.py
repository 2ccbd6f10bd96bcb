"""Gauss and Salie sums: direct summation versus closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsums import calibration
from rootsums.errors import SizeGuardError
from rootsums.expsums import (
    exp_table,
    gauss_all,
    gauss_closed_form,
    gauss_sum,
    incomplete_sqrt_max,
    incomplete_sqrt_sum,
    salie_all,
    salie_closed_form,
    salie_sum,
    sqrt_phase_table,
)
from rootsums.modular import eps_q, inverse_table, kronecker, legendre_table
from rootsums.primes import sieve_primes

PRIMES = [int(q) for q in sieve_primes(200) if q >= 5]


class TestGauss:
    def test_quadratic_gauss_values(self):
        assert gauss_sum(1, 0, 5) == pytest.approx(math.sqrt(5), abs=1e-12)
        assert gauss_sum(1, 0, 7) == pytest.approx(1j * math.sqrt(7), abs=1e-12)

    def test_closed_form_values(self):
        assert gauss_closed_form(1, 0, 7) == pytest.approx(1j * math.sqrt(7))
        assert gauss_closed_form(1, 0, 5) == pytest.approx(math.sqrt(5))

    def test_cross_check(self):
        assert gauss_sum(2, 3, 11) == pytest.approx(gauss_closed_form(2, 3, 11), abs=1e-9)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            gauss_sum(0, 1, 7)
        with pytest.raises(ValueError):
            gauss_closed_form(7, 1, 7)

    @given(
        st.sampled_from(PRIMES),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60)
    def test_modulus_is_sqrt_q(self, q, a, b):
        if a % q == 0:
            return
        assert abs(gauss_sum(a, b, q)) == pytest.approx(math.sqrt(q), abs=1e-9 * math.sqrt(q))


class TestSalie:
    def test_direct_value(self):
        # e_5(2) + e_5(3) - 2 = 2 cos(4 pi / 5) - 2
        expected = 2 * math.cos(4 * math.pi / 5) - 2
        assert salie_sum(1, 1, 5) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-3.61803398875, abs=1e-10)

    def test_closed_form_matches(self):
        assert salie_closed_form(1, 1, 5) == pytest.approx(salie_sum(1, 1, 5), abs=1e-9)
        assert salie_closed_form(1, 3, 7) == pytest.approx(salie_sum(1, 3, 7), abs=1e-9)

    def test_vanishing_cases(self):
        assert salie_sum(1, 2, 5) == pytest.approx(0.0, abs=1e-12)  # (2/5) = -1
        assert salie_closed_form(2, 4, 5) == 0  # mn = 8 = 3, (3/5) = -1

    @pytest.mark.parametrize("q", [int(p) for p in sieve_primes(200) if p >= 3])
    def test_vanishing_exhaustive(self, q):
        direct, _ = salie_all(q)
        m = np.arange(1, q, dtype=np.int64)
        nonres = np.array([[kronecker(int(a * b), q) == -1 for b in m] for a in m])
        if np.any(nonres):
            assert float(np.max(np.abs(direct[nonres]))) < 1e-9 * math.sqrt(q)

    @given(
        st.sampled_from(PRIMES),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    @settings(max_examples=40)
    def test_reduction_to_product(self, q, m, n):
        """|S(m, n; q)| = |S(1, mn; q)| whenever gcd(mn, q) = 1."""
        if m % q == 0 or n % q == 0:
            return
        assert abs(salie_sum(m, n, q)) == pytest.approx(
            abs(salie_sum(1, m * n, q)), abs=1e-9 * math.sqrt(q)
        )

    @given(
        st.sampled_from(PRIMES),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    @settings(max_examples=40)
    def test_two_term_bound(self, q, m, n):
        assert abs(salie_sum(m, n, q)) <= 2 * math.sqrt(q) + 1e-9

    def test_all_pairs_guard(self):
        with pytest.raises(SizeGuardError):
            salie_all(4099)


class TestPhaseTable:
    def test_twist_read_is_the_per_h_table_bit_for_bit(self, phase_table_oracle):
        """T[h^2 c] is the np.add.at table built for h, at every c (0 and non-residues too).

        Every h for q < 200, and 5 seeded h per prime 200 <= q <= 4001: 6,705 tables.
        """
        compared = 0
        for q in (int(p) for p in sieve_primes(4001) if p > 2):
            hs = range(1, q) if q < 200 else np.random.default_rng(q).integers(1, q, 5)
            c = np.arange(q, dtype=np.int64)
            for h in (int(h) for h in hs):
                folded = sqrt_phase_table(q)[h * h % q * c % q]
                assert np.array_equal(folded.view(np.int64), phase_table_oracle(q, h).view(np.int64))
                compared += 1
        assert compared == 6705


class TestIncomplete:
    def test_complete_sum_vanishes(self):
        for q in (7, 23, 101):
            assert abs(incomplete_sqrt_sum(3 % q, 2, q, q)) < 1e-10

    def test_partial_value(self):
        expected = 2 * math.cos(2 * math.pi / 7) + 2 * math.cos(6 * math.pi / 7)
        assert incomplete_sqrt_sum(1, 1, 3, 7) == pytest.approx(expected, abs=1e-12)

    def test_hypotheses_enforced(self):
        with pytest.raises(ValueError):
            incomplete_sqrt_sum(0, 1, 3, 7)
        with pytest.raises(ValueError):
            incomplete_sqrt_sum(1, 7, 3, 7)
        with pytest.raises(ValueError):
            incomplete_sqrt_sum(1, 1, 8, 7)

    def test_max_below_frozen_envelope(self):
        limit = calibration.frozen("incomplete_sqrt")
        for q in (101, 499, 1009, 2003):
            measured = incomplete_sqrt_max(1, 1, q)
            assert measured <= limit * math.sqrt(q) * math.log(q)

    @pytest.mark.parametrize("q,a,h", [(7, 3, 2), (101, 5, 3), (1009, 17, 500)])
    def test_twisted_sum_reads_the_per_h_table(self, q, a, h, phase_table_oracle):
        """Every prefix sum equals the sum over the np.add.at table built for h, bit for bit."""
        terms = phase_table_oracle(q, h)[a * np.arange(1, q + 1) % q]
        for w in (1, 2, q // 2, q):
            assert incomplete_sqrt_sum(a, h, w, q) == complex(np.sum(terms[:w]))
        assert incomplete_sqrt_max(a, h, q) == float(np.max(np.abs(np.cumsum(terms))))

    def test_max_dominates_each_prefix(self):
        q = 101
        top = incomplete_sqrt_max(5, 3, q)
        for w in (1, 17, 50, 101):
            assert abs(incomplete_sqrt_sum(5, 3, w, q)) <= top + 1e-12


@pytest.mark.parametrize("q", [5, 13, 29, 53])
def test_identity_matrices_match_scalar_functions(q, rng):
    """The all-pairs helpers agree with the scalar direct sums at sampled cells."""
    direct_s, closed_s = salie_all(q)
    direct_g, closed_g = gauss_all(q)
    for _ in range(10):
        m = int(rng.integers(1, q))
        n = int(rng.integers(1, q))
        b = int(rng.integers(0, q))
        assert direct_s[m - 1, n - 1] == pytest.approx(salie_sum(m, n, q), abs=1e-10)
        assert closed_s[m - 1, n - 1] == pytest.approx(salie_closed_form(m, n, q), abs=1e-10)
        assert direct_g[m - 1, b] == pytest.approx(gauss_sum(m, b, q), abs=1e-10)
        assert closed_g[m - 1, b] == pytest.approx(gauss_closed_form(m, b, q), abs=1e-10)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 29])
def test_identity_matrices_match_scalar_functions_exhaustively(q):
    """Every cell of the FFT-built direct matrices equals the scalar direct sum."""
    direct_s, _ = salie_all(q)
    direct_g, _ = gauss_all(q)
    assert direct_s.shape == (q - 1, q - 1)
    assert direct_g.shape == (q - 1, q)
    for m in range(1, q):
        for n in range(1, q):
            assert abs(direct_s[m - 1, n - 1] - salie_sum(m, n, q)) <= 1e-12
        for b in range(q):
            assert abs(direct_g[m - 1, b] - gauss_sum(m, b, q)) <= 1e-12


@pytest.mark.parametrize("q", [3, 5, 101, 499])
def test_identity_matrices_equal_their_index_product_reads(q):
    """All four matrices equal, bit for bit, the same tables read through q x q int64 indices."""
    w = exp_table(q)
    chi = legendre_table(q).astype(np.float64)
    inv = inverse_table(q)
    scale = eps_q(q) * math.sqrt(q)
    a = np.arange(1, q)  # also every m and every n
    x = np.arange(q)  # also every b
    direct_g, closed_g = gauss_all(q)
    assert np.array_equal(
        direct_g, np.fft.ifft(w[np.multiply.outer(a, x * x) % q], axis=1, norm="forward")
    )
    assert np.array_equal(
        closed_g, w[np.multiply.outer(-inv[4 * a % q], x * x) % q] * scale * chi[a][:, None]
    )
    direct_s, closed_s = salie_all(q)
    rows = w[np.multiply.outer(a, inv) % q] * chi
    assert np.array_equal(direct_s, np.fft.ifft(rows, axis=1, norm="forward")[:, 1:])
    assert np.array_equal(
        closed_s, sqrt_phase_table(q)[np.multiply.outer(4 * a, a) % q] * chi[a] * scale
    )

"""Exact discrepancy, Erdos-Turan, root sequences and coverage."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsums.equidist import (
    PointMultiset,
    delta_q,
    discrepancy,
    discrepancy_oracle,
    eos_coverage,
    erdos_turan_bound,
    gamma_q,
    grid_exponential_sums,
    lambda_weighted_sum,
    point_exponential_sums,
    prime_root_counts,
    prime_root_points,
    prime_sum_from_weighted,
    product_discrepancy_envelope,
    product_root_points,
    root_discrepancy_envelope,
    s_q_sum,
)
from rootsums.modular import legendre_table, residue_roots
from rootsums.primes import sieve_primes
from rootsums.weights import slack_factor

point_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    min_size=0,
    max_size=120,
)


class TestDiscrepancy:
    def test_empty(self):
        assert discrepancy([]).value == 0.0
        assert discrepancy_oracle([]) == 0.0

    def test_single_point(self):
        report = discrepancy([0.5])
        assert report.value == pytest.approx(1.0)
        assert discrepancy_oracle([0.5]) == pytest.approx(1.0)

    def test_midpoint_grid(self):
        pts = [(2 * i - 1) / 20 for i in range(1, 11)]
        assert discrepancy(pts).value == pytest.approx(1.0, abs=1e-12)
        assert discrepancy_oracle(pts) == pytest.approx(1.0, abs=1e-12)

    def test_duplicates(self):
        pts = [0.25, 0.25, 0.25, 0.75]
        assert discrepancy(pts).value == pytest.approx(discrepancy_oracle(pts), abs=1e-12)

    def test_witness_realises_value(self):
        pts = np.sort(np.random.default_rng(7).random(40))
        report = discrepancy(pts)
        lo, hi = report.witness
        n = len(pts)
        # the witness interval (with its right end approached from above)
        count = np.count_nonzero((pts >= lo) & (pts <= hi))
        assert abs(count - (hi - lo) * n) <= report.value + 1e-9

    @given(point_lists)
    @settings(max_examples=150)
    def test_sweep_equals_oracle(self, values):
        assert discrepancy(values).value == pytest.approx(
            discrepancy_oracle(values), abs=1e-12
        )

    @given(point_lists)
    @settings(max_examples=60)
    def test_oracle_with_forced_duplicates(self, values):
        doubled = values + values
        assert discrepancy(doubled).value == pytest.approx(
            discrepancy_oracle(doubled), abs=1e-12
        )

    def test_multiset_validation(self):
        with pytest.raises(ValueError):
            PointMultiset.from_values([0.1, 1.0])


class TestErdosTuran:
    def test_arithmetic(self):
        assert erdos_turan_bound([0.0], 10).tolist() == pytest.approx([15.0])
        # |S_1| = 1 enters once per H, not once per h <= H
        assert erdos_turan_bound([1.0, 0.0, 0.0], 10).tolist() == pytest.approx(
            [3 * (10 / 2 + 1), 3 * (10 / 3 + 1), 3 * (10 / 4 + 1)]
        )

    def test_every_h_matches_the_formula(self, rng):
        sums = rng.random(30) * 5
        bounds = erdos_turan_bound(sums, 40)
        assert bounds.shape == (30,)
        for big_h in range(1, 31):
            direct = 3.0 * (40 / (big_h + 1) + sum(sums[h - 1] / h for h in range(1, big_h + 1)))
            assert bounds[big_h - 1] == pytest.approx(direct, rel=1e-12)

    def test_needs_one_sum(self):
        with pytest.raises(ValueError):
            erdos_turan_bound([], 10)

    def test_bound_holds_for_random_points(self, rng):
        for _ in range(15):
            pts = rng.random(int(rng.integers(2, 80)))
            sums = point_exponential_sums(pts, 60)
            d_val = discrepancy(pts).value
            assert np.all(d_val <= erdos_turan_bound(sums, len(pts)) + 1e-9)

    def test_stabilises_for_large_h(self):
        pts = np.linspace(0, 0.999, 50)
        sums = point_exponential_sums(pts, 400)
        bounds = erdos_turan_bound(sums, 50)
        b1, b2 = bounds[398], bounds[399]
        tail = 3.0 * float(np.sum(sums / np.arange(1, 401)))
        assert abs(b2 - tail) <= 3.0 * 50 / 401 + 1e-9
        assert abs(b1 - b2) < 1.0


class TestGridExponentialSums:
    def test_fft_matches_direct_sums_on_every_root_sequence(self):
        """The discrepancy criterion's grid: q <= 2003 and H = 200, so h wraps mod q below 200."""
        for q in sieve_primes(2003):
            q = int(q)
            if q < 5:
                continue
            counts = prime_root_counts(q, q)
            direct = point_exponential_sums(prime_root_points(q, q), 200)
            assert np.max(np.abs(grid_exponential_sums(counts, 200) - direct)) <= 1e-9

    def test_h_wraps_mod_q(self):
        counts = np.array([0, 2, 0, 1, 1])
        sums = grid_exponential_sums(counts, 12)
        assert sums[4] == pytest.approx(float(counts.sum()), abs=1e-12)  # h = 5 = 0 mod q
        assert sums[5:10].tolist() == sums[0:5].tolist()

    def test_single_point(self):
        assert grid_exponential_sums([0, 0, 3], 4) == pytest.approx([3.0] * 4)


class TestRootSequences:
    @pytest.mark.parametrize("q", [5, 23, 1009, 2003])
    def test_points_are_the_sorted_roots(self, q):
        residues = sieve_primes(q) % q
        expected = np.sort(residue_roots(residues[residues != 0], q) / q)
        assert prime_root_points(q, q).points.tolist() == expected.tolist()

    @pytest.mark.parametrize("q", [5, 23, 101])
    def test_counts_are_root_multiplicities(self, q):
        counts = prime_root_counts(40, q)
        assert counts.dtype == np.int64 and counts.shape == (q,)
        for t in range(q):
            assert counts[t] == sum(1 for p in sieve_primes(40) if p % q and t * t % q == p % q)

    def test_small_example(self):
        pts = prime_root_points(5, 23)
        assert np.allclose(np.sort(pts.points * 23), [5, 7, 16, 18])

    def test_empty_below_two(self):
        assert prime_root_points(1, 23).size == 0

    def test_product_multiset_size(self):
        q = 23
        p_limit = r_limit = 13
        pts = product_root_points(p_limit, r_limit, q)
        leg = legendre_table(q)
        ps = sieve_primes(p_limit)
        count = sum(
            1
            for p in ps
            for r in sieve_primes(r_limit)
            if leg[int(p) * int(r) % q] == 1
        )
        assert pts.size == 2 * count

    @pytest.mark.parametrize("q", [3, 5, 23, 29, 101])
    def test_root_multisets_match_brute_force(self, q):
        """Both multisets equal a loop over x in F_q collecting x/q for each prime (pair)."""
        ps = [int(p) for p in sieve_primes(40)]
        rs = [int(r) for r in sieve_primes(30)]
        prime_expected = sorted(
            x / q for p in ps if p % q for x in range(q) if x * x % q == p % q
        )
        product_expected = sorted(
            x / q
            for p in ps
            for r in rs
            if p * r % q
            for x in range(q)
            if x * x % q == p * r % q
        )
        assert prime_root_points(40, q).points.tolist() == prime_expected
        assert product_root_points(40, 30, q).points.tolist() == product_expected

    def test_ramified_prime_excluded(self):
        pts = prime_root_points(23, 23)
        assert 0.0 not in pts.points

    def test_gamma_report(self):
        report = gamma_q(1009, 1009)
        assert report.envelope == root_discrepancy_envelope(1009, 1009)
        poly = 1009 ** (61 / 1760) * 1009 ** (61 / 66) + 1009 ** (13 / 110) * 1009 ** (9 / 11)
        assert report.envelope / slack_factor(1009) == pytest.approx(poly)
        assert 0 <= report.ratio < 1

    def test_delta_trivial_ceiling(self):
        report = delta_q(20, 20, 101)
        assert report.value <= report.n_points
        assert report.envelope == product_discrepancy_envelope(20, 20, 101)
        poly = 101**0.125 * 400 ** (19 / 24) * (20 ** (7 / 48) / 101 ** (1 / 16) + 1) ** 2
        assert report.envelope / slack_factor(101) == pytest.approx(poly)

    def test_gamma_sweep_grid(self):
        """The standard grid reports ratios and respects the 2*pi(P) ceiling."""
        from rootsums.equidist import gamma_sweep

        rows = gamma_sweep(q_values=(503, 1009, 2003, 5003))
        assert len(rows) == 12
        for r in rows:
            assert r["discrepancy"] <= r["trivial_bound"]
            assert 0 <= r["ratio"] < 1


class TestPrimeSums:
    def test_small_value(self):
        expected = 2 * math.cos(10 * math.pi / 23) + 2 * math.cos(14 * math.pi / 23)
        assert s_q_sum(1, 5, 23) == pytest.approx(expected, abs=1e-12)

    def test_below_two_is_zero(self):
        assert s_q_sum(1, 1.5, 23) == 0

    def test_gcd_enforced(self):
        with pytest.raises(ValueError):
            s_q_sum(23, 100, 23)
        with pytest.raises(ValueError):
            lambda_weighted_sum(0, 100, 23)

    @pytest.mark.parametrize("p_limit", [200, 1])
    def test_partial_summation_needs_gcd(self, p_limit):
        with pytest.raises(ValueError):
            prime_sum_from_weighted(31, p_limit, 31)

    @pytest.mark.parametrize("q,p_limit", [(23, 500), (101, 2000), (211, 1500)])
    def test_partial_summation_recovery(self, q, p_limit):
        for h in (1, 2, 5):
            direct = s_q_sum(h, p_limit, q)
            recovered = prime_sum_from_weighted(h, p_limit, q)
            assert abs(recovered - direct) <= 1e-6 * max(1.0, abs(direct))

    def test_weighted_sum_matches_plain_loop(self, phase_table_oracle):
        q, limit, h = 23, 300, 3
        table = phase_table_oracle(q, h)
        total = 0.0 + 0.0j
        for k in range(2, limit + 1):
            factors = {}
            kk = k
            for p in range(2, k + 1):
                while kk % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    kk //= p
            if len(factors) == 1:
                ((p, _),) = factors.items()
                total += math.log(p) * table[k % q]
        assert lambda_weighted_sum(h, limit, q) == pytest.approx(total, abs=1e-9)


class TestCoverage:
    @pytest.mark.parametrize("q", [101, 199, 499])
    def test_full_coverage_at_maximal_parameters(self, q):
        report = eos_coverage(q, q, q, q)
        assert report.fraction == 1.0
        assert report.missing == ()

    def test_tiny_parameters(self):
        report = eos_coverage(101, 2, 2, 1)
        assert report.covered <= 4

    def test_threshold_reported(self):
        report = eos_coverage(101, 50, 50, 10)
        assert report.threshold_ratio == pytest.approx(
            (50 * 50) ** (3 / 16) * 10 / 101 ** (9 / 8)
        )

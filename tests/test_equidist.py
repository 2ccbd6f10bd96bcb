"""Exact discrepancy, Erdos-Turan, root sequences and coverage."""

import ast
import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootsums import equidist
from rootsums.equidist import (
    count_discrepancy,
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
    product_root_counts,
    residue_counts,
    root_discrepancy_envelope,
    s_q_sum,
)
from rootsums import primes
from rootsums.errors import SizeGuardError
from rootsums.expsums import sqrt_phase_table
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


def brute_count_discrepancy(counts) -> Fraction:
    """sup |count - length * n| over every interval between grid points i/q <= j/q,
    each end open or closed, counted point by point: O(q^2) intervals."""
    q, n = len(counts), sum(counts)
    best = Fraction(0)
    for i in range(q + 1):
        for j in range(i, q + 1):
            for ends in ((), (i,), (j,), (i, j)):
                inside = {t for t in (*range(i + 1, j), *ends) if t < q}
                count = sum(counts[t] for t in inside)
                best = max(best, abs(count - Fraction(j - i, q) * n))
    return best


class TestCountDiscrepancy:
    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=30))
    @example([0, 0, 0])
    @example([0])
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force_oracle_and_witness(self, counts):
        q, n = len(counts), sum(counts)
        qd, (lo, hi) = count_discrepancy(counts)
        assert isinstance(qd, int) and Fraction(qd, q) == brute_count_discrepancy(counts)
        points = np.repeat(np.arange(q), counts) / q
        assert abs(qd / q - discrepancy_oracle(points)) <= 1e-12 * n
        # the witness realises q D exactly
        inside = sum(counts[(lo + 1) // 2 : (hi + 1) // 2])
        assert 0 <= lo <= hi < 2 * q and abs(q * inside - n * (hi // 2 - lo // 2)) == qd

    def test_int64_guard_on_both_sides(self):
        most = (1 << 63) // 3  # the largest n with q n < 2^63 at q = 3
        assert count_discrepancy([0, most, 0])[0] == 3 * most  # every point at 1/3: D = n
        with pytest.raises(SizeGuardError, match="overflows"):
            count_discrepancy([0, most + 1, 0])


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


class TestResidueCounts:
    @pytest.mark.parametrize("limit", [-3, 0, 1, 2, 3, 200, 5000])
    def test_one_histogram_per_modulus(self, limit, monkeypatch):
        """Every modulus's histogram equals a count over the whole sieve, from blocks of 64
        integers, and each gives pi(limit) = h.sum() + (q <= limit)."""
        monkeypatch.setattr(primes, "_BLOCK", 64)
        moduli = (3, 5, 101, 211, 7919)
        ps = sieve_primes(limit)
        hists = residue_counts(limit, moduli)
        assert len(hists) == len(moduli)
        for q, hist in zip(moduli, hists):
            expected = np.bincount(ps % q, minlength=q)
            expected[0] = 0
            assert hist.dtype == np.int64 and hist.tolist() == expected.tolist()
            assert int(hist.sum()) + (q <= limit) == ps.size

    def test_each_cutoff_is_walked_once(self, prime_walks):
        residue_counts(10**4, (3, 101, 211))
        assert prime_walks == [10**4]

    def test_sweeps_walk_once_per_cell(self, prime_walks):
        """gamma_sweep and product_discrepancy_sweep walk each (q, exponent) cutoff once."""
        from rootsums.equidist import gamma_sweep, product_discrepancy_sweep

        rows = product_discrepancy_sweep()
        assert prime_walks == [r["P"] for r in rows] and len(rows) == 6
        prime_walks.clear()
        rows = gamma_sweep(q_values=(503, 1009), exponents=(0.7, 1.0))
        assert prime_walks == [r["P"] for r in rows] and len(rows) == 4

    @pytest.mark.parametrize("p_limit,r_limit,walks", [(101, 101, 1), (50, 80, 2)])
    def test_coverage_walks_each_distinct_cutoff_once(self, p_limit, r_limit, walks, prime_walks):
        eos_coverage(101, p_limit, r_limit, 10)
        assert sorted(prime_walks) == sorted({p_limit, r_limit}) and len(prime_walks) == walks

    def test_gamma_sweep_trivial_bound_is_two_pi(self):
        from rootsums.equidist import gamma_sweep

        for row in gamma_sweep(q_values=(23, 101), exponents=(0.5, 1.0, 1.5)):
            assert row["trivial_bound"] == 2.0 * sieve_primes(row["P"]).size

    def test_only_the_lambda_terms_sieve_whole(self):
        """Every other prime cutoff in equidist goes through residue_counts' block walk."""
        tree = ast.parse(inspect.getsource(equidist))
        callers = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(n, ast.Name) and n.id == "sieve_primes" for n in ast.walk(node))
        }
        assert callers == {"_lambda_terms"}


class TestRootSequences:
    @pytest.mark.parametrize("q", [5, 23, 1009, 2003])
    def test_points_are_the_sorted_roots(self, q):
        residues = sieve_primes(q) % q
        expected = np.sort(residue_roots(residues[residues != 0], q) / q)
        assert prime_root_points(q, q).tolist() == expected.tolist()

    @pytest.mark.parametrize("q", [5, 23, 101])
    def test_counts_are_root_multiplicities(self, q):
        counts = prime_root_counts(40, q)
        assert counts.dtype == np.int64 and counts.shape == (q,)
        for t in range(q):
            assert counts[t] == sum(1 for p in sieve_primes(40) if p % q and t * t % q == p % q)

    def test_small_example(self):
        pts = prime_root_points(5, 23)
        assert np.allclose(pts * 23, [5, 7, 16, 18])

    def test_empty_below_two(self):
        assert prime_root_points(1, 23).size == 0

    def test_product_multiset_size(self):
        q = 23
        p_limit = r_limit = 13
        (hist,) = residue_counts(p_limit, (q,))
        counts = product_root_counts(hist, hist)
        leg = legendre_table(q)
        ps = sieve_primes(p_limit)
        count = sum(
            1
            for p in ps
            for r in sieve_primes(r_limit)
            if leg[int(p) * int(r) % q] == 1
        )
        assert counts.sum() == 2 * count

    @pytest.mark.parametrize("q", [3, 5, 23, 29, 101])
    def test_root_multisets_match_brute_force(self, q):
        """The prime points and the product counts equal a loop over x in F_q for each prime (pair)."""
        ps = [int(p) for p in sieve_primes(40)]
        rs = [int(r) for r in sieve_primes(30)]
        prime_expected = sorted(
            x / q for p in ps if p % q for x in range(q) if x * x % q == p % q
        )
        product_expected = [0] * q
        for p in ps:
            for r in rs:
                for x in range(q):
                    if p * r % q and x * x % q == p * r % q:
                        product_expected[x] += 1
        assert prime_root_points(40, q).tolist() == prime_expected
        counts = product_root_counts(*residue_counts(40, (q,)), *residue_counts(30, (q,)))
        assert counts.dtype == np.int64 and counts.tolist() == product_expected

    @staticmethod
    def _percival_bound(q: int, norm_a: float, norm_b: float) -> float:
        """|a| |b| ((1 + e)^3k (1 + e sqrt 5)^(3k + 1) (1 + b)^3k - 1), e = 2^-53, b = 2^-50,
        at the FFT length 2^k: the least power of two >= 2(q - 1)."""
        k = (2 * q - 3).bit_length()
        e, b = 2.0**-53, 2.0**-50
        growth = 3 * k * (math.log1p(e) + math.log1p(b)) + (3 * k + 1) * math.log1p(e * math.sqrt(5))
        return norm_a * norm_b * math.expm1(growth)

    def test_fft_rounding_guard_on_both_sides(self):
        """Uniform histograms v on the q - 1 nonzero residues: every product residue,
        and so every nonzero root, counts (q - 1) v^2 while the bound is under 1/2."""
        q = 101
        edge = math.sqrt(0.5 / self._percival_bound(q, q - 1, 1.0))  # bound = 1/2 at v = edge
        for v, refused in ((int(edge), False), (int(edge) + 1, True)):
            hist = np.full(q, v, dtype=np.int64)
            hist[0] = 0
            if refused:
                with pytest.raises(SizeGuardError, match="FFT rounding bound"):
                    product_root_counts(hist, hist)
            else:
                counts = product_root_counts(hist, hist)
                assert counts[0] == 0 and np.all(counts[1:] == (q - 1) * v * v)

    def test_numpy_fft_meets_the_stated_root_error(self):
        """The FFT of e_1 reproduces the roots of unity exp(-2 pi i k / N) within beta = 2^-50
        (reference in extended precision) at every power-of-two length up to 2^16."""
        pi = 4 * np.arctan(np.longdouble(1))
        for k in range(1, 17):
            size = 1 << k
            unit = np.zeros(size)
            unit[1] = 1.0
            roots = np.fft.fft(unit)
            angle = 2 * pi * np.arange(size, dtype=np.longdouble) / size
            err = np.hypot(
                (roots.real - np.cos(angle)).astype(np.float64), (roots.imag + np.sin(angle)).astype(np.float64)
            )
            assert err.max() <= 2.0**-50, k

    def test_product_counts_in_bounded_memory(self):
        """delta_q at P = R = 10^5, q = 1009 reads 9592^2 prime pairs; as counts its peak RSS
        (ru_maxrss, in a fresh interpreter) grows by under 32 MiB over the import."""
        code = (
            "import resource\n"
            "from rootsums.equidist import delta_q, residue_counts\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "(hist,) = residue_counts(10**5, (1009,))\n"
            "report = delta_q(hist, hist, 10**5, 10**5)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(report.n_points, (after - before) // 1024)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(equidist.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        n_points, grown_mib = map(int, out.stdout.split())
        assert n_points == 91991002 and grown_mib < 32

    def test_ramified_prime_excluded(self):
        pts = prime_root_points(23, 23)
        assert 0.0 not in pts

    def test_gamma_report(self):
        report = gamma_q(*residue_counts(1009, (1009,)), 1009)
        assert report.envelope == root_discrepancy_envelope(1009, 1009)
        poly = 1009 ** (61 / 1760) * 1009 ** (61 / 66) + 1009 ** (13 / 110) * 1009 ** (9 / 11)
        assert report.envelope / slack_factor(1009) == pytest.approx(poly)
        assert 0 <= report.ratio < 1

    def test_delta_trivial_ceiling(self):
        (hist,) = residue_counts(20, (101,))
        report = delta_q(hist, hist, 20, 20)
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


def s_q_sum_oracle(h: int, p_limit: float, q: int) -> tuple[complex, int]:
    """The whole-sieve S_q(h, P): T[h^2 p] summed over the list of residue primes p <= P, and
    the number of terms."""
    ps = sieve_primes(int(p_limit))
    residues = ps[legendre_table(q)[ps % q] == 1] % q
    return complex(np.sum(sqrt_phase_table(q)[h * h % q * residues % q])), residues.size


class TestPrimeSums:
    @pytest.mark.parametrize(
        "q,p_limit", [(23, 5), (23, 1.5), (23, 500), (101, 2000), (211, 1500), (101, 10**6)]
    )
    def test_histogram_sum_matches_the_whole_sieve(self, q, p_limit):
        """Both sums add n values of modulus <= 2 (the oracle as a list of n, the histogram
        as a sum of q products), so each part of each is off by at most gamma_k * 2n,
        gamma_k = k u / (1 - k u), u = 2^-53, k <= n and k <= q, and the two differ by at
        most 2 sqrt 2 n (gamma_n + gamma_q) <= 3 n (n + q) 2^-53."""
        for h in (1, 2, 5):
            oracle, n = s_q_sum_oracle(h, p_limit, q)
            assert abs(s_q_sum(h, p_limit, q) - oracle) <= 3 * n * (n + q) * 2.0**-53

    def test_in_bounded_memory(self):
        """s_q_sum at P = 10^7 walks the primes block by block: its peak RSS (ru_maxrss, in a
        fresh interpreter) grows by under 8 MiB over the import."""
        code = (
            "import resource\n"
            "from rootsums.equidist import s_q_sum\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "value = s_q_sum(1, 10**7, 101)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) // 1024)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(equidist.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 8

    def test_same_at_one_and_two_blas_threads(self, blas_threads):
        """S_q(1, 10^6) at q = 10007 has the same bits at one and two OpenBLAS threads; a
        BLAS dot of the histogram gave -60.17264598252337 at one and -60.172645982524216
        at two.  The library must be found, so the test cannot pass by pinning nothing."""
        from rootsums.bilinear import _openblas_threads

        assert _openblas_threads() is not None
        values = []
        for count in (1, 2):
            with blas_threads(count) as get:
                assert get() == count
                values.append(s_q_sum(1, 10**6, 10007))
        assert values[0] == values[1]

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

"""Weight vectors, correlation counts and additive energy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsums import calibration, weights
from rootsums.errors import SizeGuardError
from rootsums.weights import (
    WeightVector,
    _pair_histogram,
    admissible_square_members,
    dyadic_starts,
    energy,
    energy_envelope_long,
    energy_envelope_short,
    energy_pair_histogram,
    energy_quadruple_loop,
    fourth_moment_envelope,
    q_fourth_moment,
    q_fourth_moment_indicator,
    q_lambda,
    q_table,
    q_table_indicator,
    slack_factor,
    small_interval_energy_envelope,
    unweighted_energy,
    unweighted_energy_oracle,
    window_energies,
)
from rootsums.modular import legendre_table


class TestWeightVector:
    def test_support_must_fit(self):
        WeightVector.indicator(11, 5)  # [5, 10) inside [1, 11)
        for start in (6, 7):  # [6, 12) contains 11, the representative of 0
            with pytest.raises(ValueError):
                WeightVector.indicator(11, start)

    def test_start_at_least_one(self):
        with pytest.raises(ValueError):
            WeightVector(11, 0, np.zeros(0))

    def test_value_lookup(self):
        beta = WeightVector(11, 2, np.array([1.0, 2.0]))
        assert beta.value_at(2) == 1.0
        assert beta.value_at(3) == 2.0
        assert beta.value_at(4) == 0.0
        assert beta.value_at(1) == 0.0

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=3))
    @settings(max_examples=50)
    def test_norm_inequality_holds_for_random_weights(self, start, kind_idx):
        q = 101
        rng = np.random.default_rng(start * 7 + kind_idx)
        kind = ["indicator", "pm1", "phase", "indicator"][kind_idx]
        beta = WeightVector.make(kind, q, start, rng)
        assert beta.norm2**2 <= beta.norm_inf * beta.norm1 * (1 + 1e-9) + 1e-12


class TestPairHistogram:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_counts_match_double_loop(self, sign):
        q = 23
        members = np.array([0, 3, 4, 11, 19], dtype=np.int64)
        hist = _pair_histogram(members, q, sign)
        expected = [0] * q
        for u in members:
            for v in members:
                expected[(u + sign * v) % q] += 1
        assert hist.dtype == np.int64
        assert hist.tolist() == expected

    @pytest.mark.parametrize("sign", [1, -1])
    def test_weights_match_double_loop(self, sign, rng):
        q = 19
        members = np.array([1, 2, 7, 12], dtype=np.int64)
        vals = np.exp(2j * np.pi * rng.random(len(members)))
        hist = _pair_histogram(members, q, sign, vals)
        expected = np.zeros(q, dtype=np.complex128)
        for u, x in zip(members, vals):
            for v, y in zip(members, vals):
                expected[(u + sign * v) % q] += x * np.conj(y)
        assert np.allclose(hist, expected, atol=1e-12)

    def test_empty_support(self):
        empty = np.empty(0, dtype=np.int64)
        assert _pair_histogram(empty, 11, 1).tolist() == [0] * 11
        weighted = _pair_histogram(empty, 11, -1, np.empty(0, dtype=np.complex128))
        assert weighted.dtype == np.complex128 and not weighted.any()

    def test_guard_refuses_every_entry_point(self, monkeypatch):
        """A support of 2 or more members exceeds a pair limit of 3."""
        monkeypatch.setattr(weights, "_PAIR_LIMIT", 3)
        beta = WeightVector.indicator(101, 8)
        for call in (
            lambda: q_table(beta, 1),
            lambda: q_table_indicator(101, 8),
            lambda: energy_pair_histogram(beta, 1),
            lambda: unweighted_energy(8, 101),
            lambda: window_energies(101, 1, 1),
        ):
            with pytest.raises(SizeGuardError):
                call()

    def test_dyadic_starts(self):
        assert dyadic_starts(1) == []
        assert dyadic_starts(2) == dyadic_starts(3) == [1]
        assert dyadic_starts(101) == [1, 2, 4, 8, 16, 32]
        assert dyadic_starts(128) == [1, 2, 4, 8, 16, 32, 64]


class TestQLambda:
    def test_pinned_values(self):
        beta = WeightVector.indicator(5, 1)
        assert q_lambda(beta, 0, 1) == 2
        assert q_lambda(beta, 2, 1) == 1
        assert q_lambda(beta, 3, 1) == 1
        assert q_lambda(beta, 1, 1) == 0

    def test_zero_weights(self):
        beta = WeightVector(7, 2, np.zeros(2))
        assert q_lambda(beta, 3, 1) == 0

    def test_j_must_be_invertible(self):
        beta = WeightVector.indicator(7, 1)
        with pytest.raises(ValueError):
            q_lambda(beta, 1, 0)

    @pytest.mark.parametrize("q", [11, 13, 17])
    def test_table_matches_single_lambda(self, q):
        rng = np.random.default_rng(q)
        beta = WeightVector.random_phase(q, 3, rng)
        table = q_table(beta, 2)
        for lam in range(q):
            assert table[lam] == pytest.approx(q_lambda(beta, lam, 2), abs=1e-10)

    @pytest.mark.parametrize("q", [11, 23, 47])
    def test_row_sum_conservation(self, q):
        """sum over lambda of Q_lambda equals (number of admissible u)^2."""
        for j in range(1, q):
            for start in range(1, q // 2 + 1):
                table = q_table_indicator(q, start, j)
                members = admissible_square_members(q, start, j)
                assert int(table.sum()) == len(members) ** 2


class TestEnergy:
    def test_pinned_instance(self):
        beta = WeightVector.indicator(5, 1)
        assert energy(beta, 1) == 6
        assert energy_pair_histogram(beta, 1) == 6
        assert energy_quadruple_loop(beta, 1) == pytest.approx(6)

    def test_zero_weights(self):
        beta = WeightVector(7, 2, np.zeros(2))
        assert energy(beta, 1) == 0

    def test_random_weights_match_quadruple_loop(self):
        rng = np.random.default_rng(5)
        for q in (11, 13):
            for kind in ("pm1", "phase"):
                beta = WeightVector.make(kind, q, 2, rng)
                via_q = energy(beta, 1)
                via_hist = energy_pair_histogram(beta, 1)
                via_loop = energy_quadruple_loop(beta, 1)
                assert via_q == pytest.approx(via_loop, abs=1e-9)
                assert via_hist == pytest.approx(via_loop, abs=1e-9)

    def test_pm1_energy_histogram_oracle(self):
        rng = np.random.default_rng(13)
        beta = WeightVector.random_pm1(13, 2, rng)
        assert energy(beta, 1) == pytest.approx(energy_pair_histogram(beta, 1), abs=1e-9)


class TestUnweightedEnergy:
    def test_pinned(self):
        assert unweighted_energy(1, 5) == 6
        assert unweighted_energy_oracle(1, 5) == 6

    def test_empty_window(self):
        # j = 3 maps the squares of F_7 onto {3, 5, 6, 7}; [1, 2) misses them all
        assert len(admissible_square_members(7, 1, 3)) == 0
        assert unweighted_energy(1, 7, 3) == 0

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            unweighted_energy(51, 101)

    def test_against_independent_recount(self):
        for q in (101, 211):
            for start in (3, 10, int(math.isqrt(q))):
                assert unweighted_energy(start, q) == unweighted_energy_oracle(start, q)

    @given(st.sampled_from([13, 17, 29, 53]), st.data())
    @settings(max_examples=40)
    def test_identity_random_cells(self, q, data):
        start = data.draw(st.integers(min_value=1, max_value=q // 2))
        j = data.draw(st.integers(min_value=1, max_value=q - 1))
        assert unweighted_energy(start, q, j) == unweighted_energy_oracle(start, q, j)


class TestWindowGuard:
    """For 2N > q the window [N, 2N) holds q, the representative of 0; every
    indicator path refuses it, and the last window 2N <= q still passes."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: admissible_square_members(101, 51),
            lambda: unweighted_energy_oracle(51, 101),
            lambda: q_table_indicator(101, 51),
            lambda: q_fourth_moment_indicator(101, 60),
        ],
    )
    def test_window_past_q_raises(self, call):
        with pytest.raises(ValueError):
            call()

    def test_last_window_fits(self):
        assert unweighted_energy(50, 101) == unweighted_energy_oracle(50, 101)


class TestWindowEnergies:
    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_every_cell_matches_both_scalar_paths(self, q):
        for j in range(1, q):
            sums = window_energies(q, j, 1)
            diffs = window_energies(q, j, -1)
            assert sums.dtype == np.int64 and sums.shape == (q // 2,)
            for start in range(1, q // 2 + 1):
                assert sums[start - 1] == unweighted_energy(start, q, j)
                assert diffs[start - 1] == unweighted_energy_oracle(start, q, j)

    @pytest.mark.parametrize("q", [31, 61, 101])
    def test_quadratic_class_invariance(self, q):
        """E(N, q, j c^2) = E(N, q, j): one energy row per quadratic class of j."""
        leg = legendre_table(q)
        rows = {1: window_energies(q, 1, 1)}
        rows[-1] = window_energies(q, int(np.nonzero(leg == -1)[0][0]), 1)
        assert rows[1].tolist() != rows[-1].tolist()
        for j in range(1, q):
            assert window_energies(q, j, 1).tolist() == rows[int(leg[j])].tolist()

    def test_j_must_be_invertible(self):
        with pytest.raises(ValueError):
            window_energies(7, 14, 1)


class TestFourthMoment:
    def test_pinned(self):
        assert q_fourth_moment_indicator(5, 1) == 2
        beta = WeightVector.indicator(5, 1)
        assert q_fourth_moment(beta, 1) == pytest.approx(2.0)

    def test_zero_support(self):
        assert q_fourth_moment_indicator(7, 1, 3) == 0

    def test_real_weights_read_as_fourth_powers(self, rng):
        """|x|^4 = x^4 bit for bit, so real weights need no separate branch."""
        for kind in ("indicator", "pm1"):
            beta = WeightVector.make(kind, 101, 16, rng)
            table = q_table(beta, 3)
            assert table.imag.tolist() == [0.0] * 101
            vals = table.real.copy()
            vals[0] = 0.0
            assert q_fourth_moment(beta, 3) == float(np.sum(vals**4))

    def test_direct_recomputation(self):
        q, start, j = 211, 13, 1
        table = q_table_indicator(q, start, j)
        direct = sum(int(v) ** 4 for v in table[1:])
        assert q_fourth_moment_indicator(q, start, j) == direct


class TestEnvelopes:
    def test_small_interval_formula(self):
        assert small_interval_energy_envelope(1, 5) == pytest.approx(1 / 5 + 1)

    def test_fourth_moment_formula(self):
        n, q = 7, 101
        env = fourth_moment_envelope(n, q) / slack_factor(q)
        assert env == pytest.approx(n**6.5 / q**1.5 + n**3)

    def test_short_envelope_indicator_shape(self):
        # indicator on [N, 2N): inf = 1, l1 = N
        q = 10007
        n = int(math.sqrt(q))
        env = energy_envelope_short(1.0, float(n), n, q) / slack_factor(q)
        body = float(n) ** (4.0 / 3.0)
        assert env == pytest.approx(body * (n ** (13.0 / 6.0) / math.sqrt(q) + n))
        # the linear term rules below the crossover N ~ q^{3/7}
        small = int(q ** (3.0 / 7.0)) // 2
        env_small = energy_envelope_short(1.0, float(small), small, q) / slack_factor(q)
        linear = float(small) ** (4.0 / 3.0) * small
        assert linear / env_small > 0.5

    def test_long_envelope_formula(self):
        assert energy_envelope_long(2.0, 3.0, 4, 101) / slack_factor(101) == pytest.approx(
            4.0 * 9.0 * (16 / 101 + 2.0)
        )

    def test_slack_factor(self):
        """(log q)^2 stands in for q^{o(1)}; the small-window energy bound carries none."""
        assert slack_factor(101) == pytest.approx(math.log(101) ** 2)
        assert small_interval_energy_envelope(3, 101) == 3**6 / 101 + 3**2

    @given(st.integers(min_value=1, max_value=50), st.sampled_from(["pm1", "phase"]))
    @settings(max_examples=30)
    def test_l2_norm_comparison(self, start, kind):
        """||b||_2^4 <= ||b||_inf^{8/3} ||b||_1^{4/3} N^{2/3} for supported weights."""
        q = 101
        rng = np.random.default_rng(start)
        beta = WeightVector.make(kind, q, start, rng)
        lhs = beta.norm2**4
        rhs = beta.norm_inf ** (8 / 3) * beta.norm1 ** (4 / 3) * start ** (2 / 3)
        assert lhs <= rhs * (1 + 1e-9)


class TestSweepBounds:
    def test_small_energy_within_frozen(self):
        limit = calibration.frozen("small_energy")
        for q in (101, 499):
            for start in range(1, math.isqrt(q) + 1):
                measured = unweighted_energy(start, q)
                assert measured <= limit * small_interval_energy_envelope(start, q)

    def test_fourth_moment_within_frozen(self):
        limit = calibration.frozen("fourth_moment")
        for q in (101, 499):
            for start in range(1, math.isqrt(q) + 1):
                measured = q_fourth_moment_indicator(q, start)
                assert measured <= limit * fourth_moment_envelope(start, q)

    def test_weighted_energy_within_frozen(self):
        short = calibration.frozen("energy_short")
        long_ = calibration.frozen("energy_long")
        rng = np.random.default_rng(99)
        for q in (101, 211):
            for start in (2, 8, 32):
                for kind in ("pm1", "phase"):
                    beta = WeightVector.make(kind, q, start, rng)
                    j = int(rng.integers(1, q))
                    measured = abs(energy(beta, j))
                    assert measured <= short * energy_envelope_short(
                        beta.norm_inf, beta.norm1, start, q
                    )
                    assert measured <= long_ * energy_envelope_long(
                        beta.norm_inf, beta.norm1, start, q
                    )

"""Bilinear Weyl sums: envelopes, decompositions, curve sums and correlations."""

import cmath
import contextlib
import glob
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsums import calibration
from rootsums.bilinear import (
    _KERNEL_BLOCK_BYTES,
    BilinearInstance,
    _column_width,
    _curve_rows,
    a_sum,
    a_sum_all,
    balanced_curve_parameters,
    bilinear_weyl_sum,
    curve_sum_sigma_all_t,
    curve_sum_sigma_incomplete,
    curve_sum_sigma_t,
    is_diagonal_quadruple,
    rj_sum,
    root_pair_count,
    salie_correlation,
    salie_correlation_envelopes,
    type1_envelope,
    type1_sum,
    variety_count,
    variety_multiplicity,
    weyl_envelopes,
    weyl_group_sums,
    weyl_sweep,
)
from rootsums import bilinear
from rootsums.errors import SizeGuardError
from rootsums.expsums import sqrt_phase_buffer, sqrt_phase_table
from rootsums.modular import (
    inv_mod,
    legendre_table,
    log_grid,
    log_ordered,
    log_tables,
    residue_roots,
    sqrt_mod,
)
from rootsums.weights import (
    WeightVector,
    admissible_square_members,
    dyadic_starts,
    entropy_words,
    seed_states,
    seeded_rngs,
    slack_factor,
    unweighted_energy,
)


def brute_weyl(inst: BilinearInstance) -> complex:
    """Literal triple loop with per-term root extraction."""
    total = 0.0 + 0.0j
    q = inst.q
    for mi, am in enumerate(inst.alpha.coeffs):
        m = inst.m_start + mi
        for ni, bn in enumerate(inst.beta.coeffs):
            n = inst.n_start + ni
            for x in sqrt_mod(inst.a * m * n % q, q):
                total += am * bn * cmath.exp(2j * math.pi * ((inst.h * x) % q) / q)
    return total


class TestWeylSum:
    def test_zero_weights(self):
        inst = BilinearInstance(
            11, 1, 1, WeightVector(11, 2, np.zeros(2)), WeightVector(11, 2, np.zeros(2))
        )
        assert bilinear_weyl_sum(inst) == 0

    def test_pinned_value(self):
        inst = BilinearInstance(
            11, 1, 1, WeightVector.indicator(11, 1), WeightVector.indicator(11, 1)
        )
        assert bilinear_weyl_sum(inst) == pytest.approx(2 * math.cos(2 * math.pi / 11))

    def test_validation(self):
        alpha = WeightVector.indicator(11, 1)
        with pytest.raises(ValueError):
            BilinearInstance(11, 11, 1, alpha, alpha)
        with pytest.raises(ValueError):
            BilinearInstance(11, 1, 22, alpha, alpha)
        with pytest.raises(ValueError):
            BilinearInstance(11, 1, 1, WeightVector.indicator(11, 6), alpha)

    @given(st.sampled_from([11, 13, 29]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_against_per_term_roots(self, q, data):
        m_start = data.draw(st.integers(min_value=1, max_value=q // 4 + 1))
        n_start = data.draw(st.integers(min_value=1, max_value=q // 4 + 1))
        a = data.draw(st.integers(min_value=1, max_value=q - 1))
        h = data.draw(st.integers(min_value=1, max_value=q - 1))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=99)))
        inst = BilinearInstance(
            q,
            a,
            h,
            WeightVector.random_phase(q, m_start, rng),
            WeightVector.random_pm1(q, n_start, rng),
        )
        assert bilinear_weyl_sum(inst) == pytest.approx(brute_weyl(inst), abs=1e-9)

    def test_triangle_bound(self, rng):
        q = 101
        inst = BilinearInstance(
            q,
            int(rng.integers(1, q)),
            int(rng.integers(1, q)),
            WeightVector.random_phase(q, 16, rng),
            WeightVector.random_phase(q, 8, rng),
        )
        assert abs(bilinear_weyl_sum(inst)) <= 2 * inst.alpha.norm1 * inst.beta.norm1

    @pytest.mark.parametrize("q", [11, 101, 1009, 4001])
    def test_log_gather_is_the_direct_gather_bit_for_bit(self, q, phase_table_oracle):
        """W and R_j equal the same products over table[a*m*n % q] exactly, up to M = N at the top.

        At q = 4001 the top cell and (1000, 1024) stream eight column blocks each, and
        (1000, 1000), whose N is no power of two, is read as one block of 15 MiB.
        """
        top = dyadic_starts(q)[-1]
        cells = [(top, top)] + [
            (int(s), int(t)) for s, t in np.random.default_rng([7, q]).choice(dyadic_starts(q), (3, 2))
        ]
        if q == 4001:
            cells += [(1000, 1024), (1000, 1000)]
            blocks = [n_start // _column_width(m_start, n_start) for m_start, n_start in cells]
            assert (blocks[0], blocks[-2], blocks[-1]) == (8, 8, 1)
        leg = legendre_table(q)
        for k, (m_start, n_start) in enumerate(cells):
            rng = np.random.default_rng([q, k])
            inst = BilinearInstance(
                q,
                int(rng.integers(1, q)),
                int(rng.integers(1, q)),
                WeightVector.random_phase(q, m_start, rng),
                WeightVector.random_pm1(q, n_start, rng),
            )
            table = phase_table_oracle(q, inst.h)
            m = np.arange(m_start, 2 * m_start)
            n = np.arange(n_start, 2 * n_start)
            kernel = table[inst.a * np.outer(m, n) % q]
            assert bilinear_weyl_sum(inst) == complex(inst.alpha.coeffs @ kernel @ inst.beta.coeffs)
            for j in (1, -1):
                rows, cols = leg[inst.a * m % q] == j, leg[n % q] == j
                inner = kernel[np.ix_(rows, cols)] @ inst.beta.coeffs[cols]
                expected = float(np.sum(np.abs(inner) ** 2)) if rows.any() and cols.any() else 0.0
                assert rj_sum(j, inst) == expected

    def test_large_cell_holds_no_kernel(self, rng, heap_peak):
        """At q = 8009, M = N = 2048 the kernel is 64 MiB; the streamed cell peaks under two
        blocks.  The modulus's tables are built first, so the peak is the cell's alone."""
        q = 8009
        inst = BilinearInstance(
            q, 5, 7, WeightVector.random_phase(q, 2048, rng), WeightVector.random_pm1(q, 2048, rng)
        )
        sqrt_phase_buffer(q)
        log_tables(q)
        _, peak = heap_peak(bilinear_weyl_sum, inst)
        assert peak < 2 * _KERNEL_BLOCK_BYTES

    def test_large_group_holds_no_kernel(self, rng, heap_peak):
        """A group of 8 cells at q = 8009, M = N = 2048 (512 MiB of kernels) peaks under two
        blocks, and each W is its cell's W computed alone, ==."""
        q, start = 8009, 2048
        cells = [
            BilinearInstance(
                q, int(rng.integers(1, q)), int(rng.integers(1, q)),
                WeightVector.random_phase(q, start, rng), WeightVector.random_phase(q, start, rng),
            )
            for _ in range(8)
        ]
        c = [inst.a * inst.h % q * inst.h % q for inst in cells]
        alpha = np.stack([inst.alpha.coeffs for inst in cells])
        beta = np.stack([inst.beta.coeffs for inst in cells])
        expected = [bilinear_weyl_sum(inst) for inst in cells]
        sums, peak = heap_peak(weyl_group_sums, q, c, start, start, alpha, beta)
        assert peak < 2 * _KERNEL_BLOCK_BYTES
        assert sums.tolist() == expected

    def test_column_blocks_are_at_least_four_wide(self):
        """A column of more than a block's entries still reads four columns at a time."""
        rows = _KERNEL_BLOCK_BYTES // bilinear._ENTRY_BYTES
        assert [_column_width(r, 1024) for r in (rows // 8, rows, 2 * rows, 8 * rows)] == [8, 4, 4, 4]
        assert _column_width(8 * rows, 3) == 3

    @pytest.mark.parametrize("instances", [0, -2])
    def test_sweep_needs_a_positive_instance_count(self, instances):
        with pytest.raises(ValueError, match="instances"):
            weyl_sweep(q_values=(101,), instances=instances)


    def test_cells_read_the_cached_phase_buffer(self, rng):
        """Every kernel read (a one-block and a streamed Weyl cell, R_j, a curve row) takes
        the cached log-ordered buffer of the root-phase table: one hit each, no build."""
        q = 4001
        for modulus in (q, 101):  # 101 for the curve row, whose moduli stop at 2048
            assert np.array_equal(sqrt_phase_buffer(modulus), log_ordered(sqrt_phase_table(modulus)))
        one_block = BilinearInstance(
            q, 3, 5, WeightVector.random_phase(q, 8, rng), WeightVector.random_pm1(q, 16, rng)
        )
        streamed = BilinearInstance(
            q, 3, 5, WeightVector.random_phase(q, 1024, rng), WeightVector.random_pm1(q, 1024, rng)
        )
        assert _column_width(1024, 1024) < 1024
        before = sqrt_phase_buffer.cache_info()
        bilinear_weyl_sum(one_block)
        bilinear_weyl_sum(streamed)
        rj_sum(1, one_block)
        curve_sum_sigma_incomplete((1, 2, 3, 5), 5, 3, 1.0, 4, 101)
        after = sqrt_phase_buffer.cache_info()
        assert (after.hits, after.misses) == (before.hits + 4, before.misses)


class TestWeylSweepGroups:
    """weyl_sweep reads and contracts a (q, M, N) group at once, and yields its rows when
    the group is reached; every row is the per-cell oracle's, ==."""

    def test_quick_grid_is_the_per_cell_sweep(self, weyl_sweep_oracle):
        grid = {"q_values": (101, 211), "instances": 5}  # verify --quick's grid
        assert list(weyl_sweep(**grid)) == weyl_sweep_oracle(**grid)

    def test_quick_grid_rows_keep_their_digest(self):
        """The sha256 of the quick grid's rows, as recorded before the draws were read
        off raw PCG64 output: a change in any draw, norm, envelope or |W| shows here.
        |W| holds the bits of numpy's bundled OpenBLAS zgemv, so another BLAS may
        read another digest."""
        rows = list(weyl_sweep(q_values=(101, 211), instances=5))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "4321e5b72d8cb46cd07541923766551c5da4752af56a6408f8bfca0ce2fe3d18"

    def test_sweep_builds_no_generator(self, monkeypatch):
        """Every draw of the quick grid is read off raw PCG64 output: no Generator is built."""
        built = []
        generator = np.random.Generator

        def spy(bit_generator):
            built.append(bit_generator)
            return generator(bit_generator)

        monkeypatch.setattr(np.random, "Generator", spy)
        assert len(list(weyl_sweep(q_values=(101, 211), instances=5))) == 1275
        assert built == []
        seeded_rngs(seed_states(np.array([entropy_words([1])])))  # the spy sees a Generator built
        assert len(built) == 1

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 5])
    def test_seeds_past_one_word(self, seed, weyl_sweep_oracle):
        """A seed of two or three uint32 words seeds each cell as default_rng does."""
        grid = {"q_values": (101,), "instances": 2, "seed": seed}
        assert list(weyl_sweep(**grid)) == weyl_sweep_oracle(**grid)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            weyl_sweep(q_values=(11,), instances=1, seed=-1)

    def test_groups_are_computed_when_reached(self, monkeypatch):
        """The call checks its arguments and computes nothing; the first row reads one
        group and hashes the seeds of every cell of its modulus in one ``seed_states``
        call; a modulus above TABLE_LIMIT is refused at the call, before any group."""
        calls = []
        hashed = []
        group_sums = bilinear.weyl_group_sums
        states = bilinear.seed_states

        def spy(q, *args):
            calls.append(q)
            return group_sums(q, *args)

        def states_spy(words):
            hashed.append(len(words))
            return states(words)

        monkeypatch.setattr(bilinear, "weyl_group_sums", spy)
        monkeypatch.setattr(bilinear, "seed_states", states_spy)
        rows = weyl_sweep(q_values=(101, 211))
        assert calls == [] and hashed == []
        next(iter(rows))
        assert calls == [101]
        groups = {q: len(dyadic_starts(q)) ** 2 for q in (101, 211)}  # 36 and 49
        assert hashed == [groups[101] * 3 * 20]  # every cell of q = 101, 20 of each class
        list(rows)
        assert calls == [101] * groups[101] + [211] * groups[211]
        assert hashed == [groups[101] * 60, groups[211] * 60]
        with pytest.raises(SizeGuardError, match="16777259"):
            weyl_sweep(q_values=(101, 16777259), instances=1)
        assert len(calls) == groups[101] + groups[211] and len(hashed) == 2

    def test_streamed_grid_holds_one_group(self, heap_peak):
        """Read once with running maxima, the q = 1009 grid (4,860 rows) peaks under
        3.5 MiB; held as one list its rows alone take 5.3 MiB."""
        sqrt_phase_buffer(1009)  # the modulus's tables are built first
        log_tables(1009)

        def running_maxima():
            worst1 = worst2 = 0.0
            for row in weyl_sweep(q_values=(1009,)):
                worst1, worst2 = max(worst1, row["ratio1"]), max(worst2, row["ratio2"])
            return worst1, worst2

        (worst1, worst2), peak = heap_peak(running_maxima)
        assert peak < 3.5 * 2**20
        assert 0 < worst1 <= calibration.frozen("weyl_envelope1")
        assert 0 < worst2 <= calibration.frozen("weyl_envelope2")

    def test_small_blocks_run_every_read_path(self, weyl_sweep_oracle, monkeypatch):
        """With blocks of 64 or 256 entries the q = 211 grid reads small kernels whole
        and larger ones in column blocks of 4 and more; every row is still the oracle's
        at the default block size.  Each group builds one log grid per column block,
        whichever of its 9 cells reads it: at 256 entries, one (4, 8) and one (16, 16)
        grid, and 16 grids of (64, 4) for M = N = 64."""
        grid = {"q_values": (211,), "instances": 3}
        expected = weyl_sweep_oracle(**grid)
        starts = dyadic_starts(211)
        grids = []

        def spy(rows, cols, q):
            grids.append((len(rows), len(cols)))
            return log_grid(rows, cols, q)

        monkeypatch.setattr(bilinear, "log_grid", spy)
        for entries in (64, 256):
            monkeypatch.setattr(bilinear, "_KERNEL_BLOCK_BYTES", entries * bilinear._ENTRY_BYTES)
            grids.clear()
            assert list(weyl_sweep(**grid)) == expected
            assert len(grids) == sum(n // _column_width(m, n) for m in starts for n in starts)
        for (m_start, n_start), shapes in (
            ((4, 8), [(4, 8)]),
            ((16, 16), [(16, 16)]),
            ((64, 64), [(64, 4)] * 16),
        ):
            grids.clear()
            list(weyl_sweep(**grid, only_m=m_start, only_n=n_start))
            assert grids == shapes


class TestOneBlasThread:
    """``weyl_group_sums`` contracts on one BLAS thread, restores the count it found and
    gives the bits of the unpinned read."""

    @staticmethod
    def group(rng, q=101, start=8, cells=3):
        c = rng.integers(1, q, size=cells).tolist()
        alpha = np.exp(2j * np.pi * rng.random((cells, start)))
        beta = np.exp(2j * np.pi * rng.random((cells, start)))
        return q, c, start, start, alpha, beta

    def test_count_is_one_inside_and_restored_after(self, rng, monkeypatch, blas_threads):
        """Every zgemv of the read sees one thread; after a return and after an error
        raised inside the read the count is the one found before."""
        args = self.group(rng)
        seen = []
        matmul = np.matmul
        with blas_threads(2) as get:
            before = get()

            def spy(*a, **kw):
                seen.append(get())
                return matmul(*a, **kw)

            monkeypatch.setattr(np, "matmul", spy)
            weyl_group_sums(*args)
            assert seen and set(seen) == {1}
            assert get() == before

            def fail(*a, **kw):
                raise RuntimeError("forced inside the read")

            monkeypatch.setattr(np, "matmul", fail)
            with pytest.raises(RuntimeError, match="forced"):
                weyl_group_sums(*args)
            assert get() == before

    def test_pinned_read_is_the_unpinned_read(self, monkeypatch, blas_threads):
        """At two threads, a q = 4001, M = N = 1024 group of every weight class (eight
        column blocks per cell) gives the same rows, ==, pinned and unpinned."""
        grid = {"q_values": (4001,), "instances": 2, "only_m": 1024, "only_n": 1024}
        with blas_threads(2):
            pinned = list(weyl_sweep(**grid))
            monkeypatch.setattr(bilinear, "_one_blas_thread", contextlib.nullcontext)
            assert list(weyl_sweep(**grid)) == pinned
        assert len(pinned) == 6 and _column_width(1024, 1024) == 128

    def test_no_library_found_leaves_w_unchanged(self, rng, monkeypatch):
        """Where the lookup finds no OpenBLAS the pin does nothing, and W is the same."""
        args = self.group(rng, q=4001, start=1024)
        expected = weyl_group_sums(*args)
        monkeypatch.setattr(glob, "glob", lambda pattern: [])
        bilinear._openblas_threads.cache_clear()
        try:
            assert bilinear._openblas_threads() is None
            assert weyl_group_sums(*args).tolist() == expected.tolist()
        finally:
            bilinear._openblas_threads.cache_clear()


class TestEnvelopes:
    def test_indicator_simplified_shape_first(self):
        q, s = 10007, 100  # s = sqrt(q)
        env, _ = weyl_envelopes(math.sqrt(s), 1.0, float(s), s, s, q)
        simplified = (
            q**0.125
            * (s * s) ** (19.0 / 24.0)
            * (s ** (7.0 / 48.0) / q ** (1.0 / 16.0) + 1) ** 2
        )
        assert env / slack_factor(q) == pytest.approx(simplified)

    def test_indicator_simplified_shape_second(self):
        q, s = 10007, 100
        _, env = weyl_envelopes(math.sqrt(s), 1.0, float(s), s, s, q)
        simplified = (
            q**0.125
            * (s * s) ** (13.0 / 16.0)
            * (s ** (3.0 / 16.0) / q**0.125 + 1) ** 2
        )
        assert env / slack_factor(q) == pytest.approx(simplified)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            weyl_envelopes(1.0, 1.0, 1.0, 51, 1, 101)

    def test_type1_conditions(self):
        with pytest.raises(ValueError):
            type1_envelope(1.0, 1.0, 99, 2, 101)  # M > N^2

    def test_frozen_weyl_bound_subgrid(self, rng):
        lim1 = calibration.frozen("weyl_envelope1")
        lim2 = calibration.frozen("weyl_envelope2")
        q = 499
        for m_start, n_start in ((4, 16), (16, 16), (64, 8)):
            alpha = WeightVector.random_pm1(q, m_start, rng)
            beta = WeightVector.random_phase(q, n_start, rng)
            inst = BilinearInstance(q, int(rng.integers(1, q)), int(rng.integers(1, q)), alpha, beta)
            w = abs(bilinear_weyl_sum(inst))
            env1, env2 = weyl_envelopes(
                alpha.norm2, beta.norm_inf, beta.norm1, m_start, n_start, q
            )
            assert w <= lim1 * env1
            assert w <= lim2 * env2


class TestRjDecomposition:
    def test_zero_weights(self):
        inst = BilinearInstance(
            13, 1, 1, WeightVector(13, 2, np.zeros(2)), WeightVector(13, 2, np.zeros(2))
        )
        assert rj_sum(1, inst) == 0 and rj_sum(-1, inst) == 0

    def test_nonnegative_and_bounds_weyl(self, rng):
        for q in (13, 29, 101):
            for _ in range(50):
                m_start = int(rng.integers(1, q // 2))
                n_start = int(rng.integers(1, q // 2))
                inst = BilinearInstance(
                    q,
                    int(rng.integers(1, q)),
                    int(rng.integers(1, q)),
                    WeightVector.random_pm1(q, m_start, rng),
                    WeightVector.random_pm1(q, n_start, rng),
                )
                r_plus = rj_sum(1, inst)
                r_minus = rj_sum(-1, inst)
                assert r_plus >= -1e-9 and r_minus >= -1e-9
                w = abs(bilinear_weyl_sum(inst)) ** 2
                assert w <= inst.alpha.norm2**2 * (r_plus + r_minus) * (1 + 1e-9) + 1e-9

    def test_chain_is_exact_cauchy_schwarz_rhs(self, rng, phase_table_oracle):
        """R_1 + R_{-1} equals sum over m of |sum_n beta_n K(amn)|^2."""
        q = 61
        inst = BilinearInstance(
            q, 7, 5, WeightVector.indicator(q, 8), WeightVector.random_phase(q, 8, rng)
        )
        table = phase_table_oracle(q, inst.h)
        m = np.arange(8, 16)
        n = np.arange(8, 16)
        kernel = table[(inst.a * np.outer(m, n)) % q]
        total = float(np.sum(np.abs(kernel @ inst.beta.coeffs) ** 2))
        assert rj_sum(1, inst) + rj_sum(-1, inst) == pytest.approx(total, abs=1e-9)


    def test_kernel_guard_on_both_sides(self, rng, monkeypatch):
        """A selected kernel of exactly _RJ_KERNEL_BYTES is read; one entry more is refused."""
        q = 101
        inst = BilinearInstance(
            q, 3, 5, WeightVector.random_pm1(q, 16, rng), WeightVector.random_phase(q, 16, rng)
        )
        leg = legendre_table(q)
        m, n = np.arange(16, 32), np.arange(16, 32)
        entries = int(np.sum(leg[3 * m % q] == 1)) * int(np.sum(leg[n % q] == 1))
        expected = rj_sum(1, inst)
        monkeypatch.setattr(bilinear, "_RJ_KERNEL_BYTES", 24 * entries)
        assert rj_sum(1, inst) == expected
        monkeypatch.setattr(bilinear, "_RJ_KERNEL_BYTES", 24 * entries - 1)
        with pytest.raises(SizeGuardError, match="R_j kernel"):
            rj_sum(1, inst)

    def test_largest_weyl_large_cell_passes_and_a_larger_one_is_refused(self, rng, heap_peak):
        """The budget admits every cell with M * N <= 2^22; a 2^16 x 2^16 cell is refused
        before its 16 GiB selected kernel is read."""
        assert bilinear._RJ_KERNEL_BYTES == 24 * (1 << 22)
        q = 8009
        inst = BilinearInstance(
            q, 5, 7, WeightVector.indicator(q, 2048), WeightVector.random_pm1(q, 2048, rng)
        )
        assert rj_sum(1, inst) > 0
        q = 262147  # prime, so 2^16 is a dyadic start below q/2
        big = BilinearInstance(
            q, 5, 7, WeightVector.indicator(q, 1 << 16), WeightVector.indicator(q, 1 << 16)
        )

        def refused():
            with pytest.raises(SizeGuardError, match="R_j kernel"):
                rj_sum(1, big)

        _, peak = heap_peak(refused)
        assert peak < 1 << 22


class TestASums:
    def test_lambda_zero_is_root_count(self):
        q, a, m_start = 13, 2, 3
        val = a_sum(1, 0, a, m_start, q)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(root_pair_count(a, m_start, q))

    def test_all_matches_single(self):
        q, h, a, m_start = 29, 3, 2, 5
        vals = a_sum_all(h, a, m_start, q)
        for lam in (0, 1, 7, 28):
            assert vals[lam] == pytest.approx(a_sum(h, lam, a, m_start, q), abs=1e-9)

    @pytest.mark.parametrize("q,a,h,m_start", [(13, 2, 3, 3), (101, 7, 11, 16), (211, 5, 2, 32)])
    def test_orthogonality(self, q, a, h, m_start):
        vals = a_sum_all(h, a, m_start, q)
        lhs = float(np.sum(np.abs(vals) ** 2))
        rhs = q * root_pair_count(a, m_start, q)
        assert abs(lhs - rhs) <= 1e-6 * q

    def test_fourth_moment_is_parseval_energy(self):
        """sum_lambda |A|^4 = q E(M, q, inv(a)), since the root counts c_t are the
        indicator of the u whose reduced inv(a) u^2 lies in [M, 2M)."""
        for q in (101, 211, 499):
            starts = [s for s in dyadic_starts(q) if s >= 2]
            rng = np.random.default_rng([5, q])
            for _ in range(6):
                m_start = starts[int(rng.integers(0, len(starts)))]
                a = int(rng.integers(1, q))
                h = int(rng.integers(1, q))
                b = inv_mod(a, q)
                m = np.arange(m_start, 2 * m_start, dtype=np.int64)
                counts = np.bincount(residue_roots(a * m % q, q), minlength=q)
                indicator = np.zeros(q, dtype=np.int64)
                indicator[admissible_square_members(q, m_start, b)] = 1
                assert np.array_equal(counts, indicator)
                measured = float(np.sum(np.abs(a_sum_all(h, a, m_start, q)) ** 4))
                energy = unweighted_energy(m_start, q, j=b)
                assert measured == pytest.approx(q * energy, rel=1e-9)


class TestTypeOne:
    def test_equals_weyl_with_indicator(self, rng):
        q = 61
        alpha = WeightVector.random_phase(q, 8, rng)
        direct = type1_sum(alpha, 3, 5, 4, q)
        inst = BilinearInstance(q, 3, 5, alpha, WeightVector.indicator(q, 4))
        assert direct == bilinear_weyl_sum(inst)

    def test_zero_alpha(self):
        q = 61
        assert type1_sum(WeightVector(q, 4, np.zeros(4)), 3, 5, 4, q) == 0

    def test_envelope_within_frozen(self, rng):
        limit = calibration.frozen("type1_envelope")
        q = 211
        for m_start, n_start in ((2, 8), (4, 16), (8, 32)):
            alpha = WeightVector.random_pm1(q, m_start, rng)
            measured = abs(type1_sum(alpha, 3, 7, n_start, q))
            envelope = type1_envelope(alpha.norm1, alpha.norm2, m_start, n_start, q)
            assert measured <= limit * envelope


def brute_sigma(b, t, h, a, q):
    def kernel(x):
        return sum(
            cmath.exp(2j * math.pi * ((h * u) % q) / q) for u in sqrt_mod(a * x % q, q)
        )

    total = 0.0 + 0.0j
    for r in range(q):
        for s in range(q):
            total += (
                cmath.exp(2j * math.pi * ((s * t) % q) / q)
                * kernel(s * (r + b[0]) % q)
                * kernel(s * (r + b[1]) % q)
                * (kernel(s * (r + b[2]) % q) * kernel(s * (r + b[3]) % q)).conjugate()
            )
    return total


class TestCurveSums:
    def test_against_quadruple_loop(self):
        q, b = 11, (1, 2, 3, 4)
        for t in (0, 1, 5):
            assert curve_sum_sigma_t(b, t, 1, 1, q) == pytest.approx(
                brute_sigma(b, t, 1, 1, q), abs=1e-8
            )

    @pytest.mark.parametrize("h,a", [(3, 2), (10, 7)])
    def test_twisted_against_quadruple_loop(self, h, a):
        q, b = 11, (1, 2, 3, 5)
        for t in (0, 4):
            assert curve_sum_sigma_t(b, t, h, a, q) == pytest.approx(
                brute_sigma(b, t, h, a, q), abs=1e-8
            )

    def test_all_t_consistent(self):
        q, b = 13, (1, 2, 5, 7)
        vals = curve_sum_sigma_all_t(b, 2, 3, q)
        for t in (0, 4, 9):
            assert vals[t] == pytest.approx(curve_sum_sigma_t(b, t, 2, 3, q), abs=1e-8)

    def test_rows_read_one_block_at_a_time(self, heap_peak):
        """Over all q rows at q = 1009 the rows peak at 40 B per entry: the complex product,
        one complex block and its int64 index.  The block before is dropped before the next
        read, and a conjugated block is conjugated in place."""
        q = 1009
        sqrt_phase_buffer(q)  # the modulus's tables are built first
        _, peak = heap_peak(_curve_rows, (1, 2, 3, 5), 2, 3, np.arange(q, dtype=np.int64), q)
        assert peak <= 42 * q * q

    def test_diagonal_detection(self):
        assert is_diagonal_quadruple((3, 3, 5, 5))
        assert is_diagonal_quadruple((3, 5, 3, 5))
        assert is_diagonal_quadruple((3, 5, 5, 3))
        assert not is_diagonal_quadruple((1, 2, 3, 4))
        assert not is_diagonal_quadruple((1, 1, 2, 3))

    def test_incomplete_diagonal_trivial_bound(self):
        """Diagonal quadruples obey the A * B^2 * M * q ceiling."""
        q, m_start, n_start = 31, 2, 8
        a_param, b_param = balanced_curve_parameters(m_start, n_start)
        total = 0.0
        b_lo = int(b_param)
        quads = [
            (b1, b1, b3, b3)
            for b1 in range(b_lo + 1, 2 * b_lo + 1)
            for b3 in range(b_lo + 1, 2 * b_lo + 1)
        ]
        for quad in quads:
            total += abs(curve_sum_sigma_incomplete(quad, 1, 1, a_param, m_start, q))
        assert total <= 16 * a_param * b_param**2 * m_start * q

    def test_incomplete_needs_room(self):
        with pytest.raises(ValueError):
            curve_sum_sigma_incomplete((1, 2, 3, 4), 1, 1, 10.0, 10, 31)

    @pytest.mark.parametrize("h,a", [(0, 1), (31, 1), (1, 0), (1, 62)])
    def test_incomplete_needs_gcd(self, h, a):
        with pytest.raises(ValueError):
            curve_sum_sigma_incomplete((1, 2, 3, 5), h, a, 0.5, 4, 31)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            curve_sum_sigma_t((1, 2, 3, 4), 0, 1, 1, 4099)

    def test_frozen_bound_small_sample(self):
        limit = calibration.frozen("curve_sum")
        q = 31
        vals = curve_sum_sigma_all_t((1, 2, 3, 4), 1, 1, q)
        assert float(np.max(np.abs(vals))) / q <= limit


class TestVarietyCounts:
    def test_exact_enumeration_oracle(self):
        q, b, t = 11, (1, 2, 3, 4), 1
        count_u, count_w = variety_count(b, t, q)
        c = [(bi - b[0]) % q for bi in b[1:]]
        expected_u = 0
        for u in range(q):
            expected_u += sum(
                1
                for x in range(q)
                for y in range(q)
                for z in range(q)
                if (x * x - 1 - c[0] * u) % q == 0
                and (y * y - 1 - c[1] * u) % q == 0
                and (z * z - 1 - c[2] * u) % q == 0
            )
        assert count_u == expected_u
        e = inv_mod(4 * t, q)
        expected_w = 0
        for w in range(q):
            u_eff = e * w * w % q
            expected_w += sum(
                1
                for x in range(q)
                for y in range(q)
                for z in range(q)
                if (x * x - 1 - c[0] * u_eff) % q == 0
                and (y * y - 1 - c[1] * u_eff) % q == 0
                and (z * z - 1 - c[2] * u_eff) % q == 0
            )
        assert count_w == expected_w

    def test_multiplicity_classes(self):
        q = 101
        assert variety_multiplicity((1, 2, 3, 4), q) == 1
        assert variety_multiplicity((1, 2, 2, 4), q) == 2
        assert variety_multiplicity((1, 2, 2, 2), q) == 4

    def test_count_near_multiplicity_times_q(self):
        limit = calibration.frozen("variety_deviation")
        for q in (61, 101):
            for b in ((1, 2, 3, 4), (1, 5, 5, 9), (2, 7, 7, 7)):
                count_u, count_w = variety_count(b, 3, q)
                mult = variety_multiplicity(b, q)
                assert abs(count_u - mult * q) <= limit * math.sqrt(q)
                assert abs(count_w - mult * q) <= limit * math.sqrt(q)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            variety_count((1, 1, 3, 4), 1, 11)


class TestSalieCorrelation:
    def test_trivial_bound(self):
        q, m_start, n_start = 101, 4, 4
        value = salie_correlation(2, m_start, n_start, q)
        assert value <= 16 * q * m_start * n_start**2

    def test_vanishing_window(self):
        """A window of non-residue products kills every Salie factor."""
        q = 11  # squares mod 11: {1, 3, 4, 5, 9}
        # choose a and N so every a*n with n in [N, 2N) is a non-residue and
        # every m*a*n over m in [M, 2M) stays one; with M = 1 pick m = 1
        from rootsums.modular import legendre_table

        leg = legendre_table(q)
        found = False
        for a in range(1, q):
            for n_start in (2, 3):
                prods = [(a * n * m) % q for n in range(n_start, 2 * n_start) for m in (1,)]
                if all(leg[p] == -1 for p in prods):
                    assert salie_correlation(a, 1, n_start, q) == pytest.approx(0.0, abs=1e-9)
                    found = True
        assert found

    def test_matches_direct_salie_sums(self):
        from rootsums.expsums import salie_sum

        q, a, m_start, n_start = 31, 2, 2, 2
        expected = 0.0
        for n1 in range(n_start, 2 * n_start):
            for n2 in range(n_start, 2 * n_start):
                inner = sum(
                    salie_sum(m, a * n1 % q, q) * salie_sum(m, a * n2 % q, q)
                    for m in range(m_start, 2 * m_start)
                )
                expected += abs(inner)
        assert salie_correlation(a, m_start, n_start, q) == pytest.approx(expected, abs=1e-7)

    def test_envelopes_within_frozen(self):
        lim1 = calibration.frozen("salie_correlation1")
        lim2 = calibration.frozen("salie_correlation2")
        q = 211
        cap = int(q ** (2 / 3))
        for m_start, n_start in ((2, 4), (8, 8), (16, 4)):
            if 2 * m_start > cap or 2 * n_start > cap:
                continue
            value = salie_correlation(3, m_start, n_start, q)
            env1, env2 = salie_correlation_envelopes(m_start, n_start, q)
            assert value <= lim1 * env1
            assert value <= lim2 * env2

"""Gauss and Salie sums: direct summation versus closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsums import calibration, expsums
from rootsums.errors import SizeGuardError
from rootsums.expsums import (
    _PAIR_BYTES_PER_Q,
    ALL_PAIRS_LIMIT,
    IDENTITY_BUDGET,
    exp_table,
    gauss_all,
    gauss_closed_form,
    gauss_rows,
    gauss_sum,
    incomplete_sqrt_max,
    incomplete_sqrt_sum,
    salie_all,
    salie_closed_form,
    salie_rows,
    salie_sum,
    sqrt_phase_buffer,
    sqrt_phase_table,
)
from rootsums.modular import eps_q, inverse_table, kronecker, legendre_table, log_tables, root_table
from rootsums.primes import sieve_primes

PRIMES = [int(q) for q in sieve_primes(200) if q >= 5]


def _gauss_representatives(q: int) -> tuple[np.ndarray, np.ndarray]:
    """For every a in [1, q): the row r in {1, nu} (nu the least non-residue) and the t with
    a t^2 = r (mod q), so that x -> t x gives G(a, b) = G(r, b t)."""
    chi = legendre_table(q)
    a = np.arange(1, q)
    r = np.where(chi[a] == 1, 1, int(np.argmax(chi == -1)))
    return r, root_table(q)[r * inverse_table(q)[a] % q]


def _clear_tables() -> None:
    """Empty the caches of every table the identity checks read."""
    for table in (exp_table, sqrt_phase_table, legendre_table, inverse_table, log_tables):
        table.cache_clear()


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
        m = np.arange(1, q, dtype=np.int64)
        direct, _ = salie_rows(q, m)
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
        assert ALL_PAIRS_LIMIT == 299593
        for sweep in (salie_all, gauss_all):
            with pytest.raises(SizeGuardError):
                sweep(299603)  # the least prime above the limit


class TestIdentitiesInZZeta:
    """The Salie and Gauss identities checked exactly, as integer vectors in Z[zeta_q].

    sum_k c_k zeta^k has the coefficient vector c, and 1 + zeta + ... + zeta^(q-1) = 0 is the
    only relation between the powers of zeta, so two vectors name the same element exactly
    when their difference is a multiple of (1, ..., 1).  The Gauss sum
    eps_q sqrt(q) = sum_t (t/q) zeta^t, so zeta^s eps_q sqrt(q) has the vector k -> ((k - s)/q).
    """

    MODULI = [int(q) for q in sieve_primes(99) if q > 2]

    @staticmethod
    def salie_vectors(q: int) -> tuple[np.ndarray, np.ndarray]:
        """(direct, closed) integer vectors, indexed [m - 1, n - 1, k], for all m, n in [1, q).

        direct: c_k = sum over x != 0 with m x + n xbar = k of (x/q).
        closed: d_k = (n/q) sum over y^2 = mn of ((k - 2y)/q), the vector of the closed form
        (n/q) eps_q sqrt(q) sum_y zeta^(2y); the roots are y and q - y, or none.
        """
        chi = legendre_table(q).astype(np.int64)
        units = np.arange(1, q)
        m, n = units[:, None, None], units[None, :, None]
        k = (m * units + n * inverse_table(q)[units]) % q  # x runs along the last axis
        cells = ((m - 1) * (q - 1) + n - 1) * q + k
        signs = np.broadcast_to(chi[units], k.shape)
        size = (q - 1) ** 2 * q
        direct = np.bincount(cells[signs == 1], minlength=size) - np.bincount(cells[signs == -1], minlength=size)
        y = root_table(q)[m * n % q]  # shape (q - 1, q - 1, 1); -1 where mn is a non-residue
        t = np.arange(q)
        closed = chi[n] * (chi[(t - 2 * y) % q] + chi[(t + 2 * y) % q]) * (y >= 0)
        return direct.reshape(q - 1, q - 1, q), closed

    @staticmethod
    def gauss_vectors(q: int) -> tuple[np.ndarray, np.ndarray]:
        """(direct, closed) integer vectors, indexed [a - 1, b, k], for a in [1, q), b in [0, q).

        direct: c_k = #{x : a x^2 + b x = k}.
        closed: d_k = (a/q) ((k - s)/q), s = -(4a)^-1 b^2, the vector of the closed form
        (a/q) eps_q sqrt(q) zeta^s.
        """
        chi = legendre_table(q).astype(np.int64)
        x = np.arange(q)
        a, b = np.arange(1, q)[:, None, None], x[None, :, None]
        cells = ((a - 1) * q + b) * q + (a * x * x + b * x) % q
        direct = np.bincount(cells.ravel(), minlength=(q - 1) * q * q).reshape(q - 1, q, q)
        s = -inverse_table(q)[4 * a % q] * b * b % q
        return direct, chi[a] * chi[(x - s) % q]

    @staticmethod
    def mismatches(direct: np.ndarray, closed: np.ndarray) -> np.ndarray:
        """The (row, column) pairs whose difference is not a multiple of (1, ..., 1)."""
        diff = direct - closed
        return np.argwhere(np.any(diff != diff[..., :1], axis=-1))

    @pytest.mark.parametrize("family", ["salie", "gauss"])
    def test_identity_holds_exactly_below_100(self, family):
        vectors = self.salie_vectors if family == "salie" else self.gauss_vectors
        for q in self.MODULI:
            bad = self.mismatches(*vectors(q))
            assert bad.size == 0, (q, bad[:3].tolist())

    @pytest.mark.parametrize("mutated", [False, True], ids=["exact", "mutated"])
    def test_substitutions_hold_exactly_below_100(self, mutated):
        """x -> t x maps the Gauss vectors of (a, b) onto those of (r, b t), r in {1, nu},
        a t^2 = r; x -> x/m maps the Salie vectors of (m, n) onto (m/q) times those of
        (1, mn).  Both hold entry for entry, for direct and closed vectors alike.  The
        mutations, t^2 = a instead of r/a and no sign (m/q), fail at every modulus (the first
        but at q = 3, where both t in {1, -1} also satisfy a t^2 = r)."""
        for q in self.MODULI:
            a, b = np.arange(1, q), np.arange(q)
            r, t = _gauss_representatives(q)
            sign = legendre_table(q)[a].astype(np.int64)[:, None, None]
            if mutated:
                t = root_table(q)[a]  # t^2 = a; -1, a multiplier too, where a is a non-residue
                sign = np.ones_like(sign)
            mn = np.multiply.outer(a, a) % q
            holds = [
                np.array_equal(g, g[(r - 1)[:, None], np.multiply.outer(t, b) % q])
                for g in self.gauss_vectors(q)
            ] + [np.array_equal(s, sign * s[0, mn - 1]) for s in self.salie_vectors(q)]
            gauss_holds = not mutated or q == 3  # at q = 3 the mutated t, 1 and -1, has a t^2 = r
            assert holds == [gauss_holds, gauss_holds, not mutated, not mutated], q

    @pytest.mark.parametrize("q", [3, 23, 97])
    def test_vectors_evaluate_to_the_sums(self, q):
        """Read at zeta = e_q(1), the vectors are the direct and closed sums of the sweeps."""
        zeta = exp_table(q)
        for vectors, rows in ((self.salie_vectors, salie_rows), (self.gauss_vectors, gauss_rows)):
            for vector, value in zip(vectors(q), rows(q, np.arange(1, q))):
                assert np.max(np.abs(vector.astype(np.float64) @ zeta - value)) <= 1e-9


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
    """The all-pairs matrices agree with the scalar direct sums at sampled cells."""
    direct_s, closed_s = salie_rows(q, np.arange(1, q))
    direct_g, closed_g = gauss_rows(q, np.arange(1, q))
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
    direct_s, _ = salie_rows(q, np.arange(1, q))
    direct_g, _ = gauss_rows(q, np.arange(1, q))
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
    direct_g, closed_g = gauss_rows(q, a)
    assert np.array_equal(
        direct_g, np.fft.ifft(w[np.multiply.outer(a, x * x) % q], axis=1, norm="forward")
    )
    assert np.array_equal(
        closed_g, w[np.multiply.outer(-inv[4 * a % q], x * x) % q] * scale * chi[a][:, None]
    )
    direct_s, closed_s = salie_rows(q, a)
    rows = w[np.multiply.outer(a, inv) % q] * chi
    assert np.array_equal(direct_s, np.fft.ifft(rows, axis=1, norm="forward")[:, 1:])
    assert np.array_equal(
        closed_s, sqrt_phase_table(q)[np.multiply.outer(4 * a, a) % q] * chi[a] * scale
    )


@pytest.mark.parametrize("q", [int(p) for p in sieve_primes(101) if p > 2])
def test_every_entry_is_its_representatives(q):
    """Pair by pair over the full matrices: each closed entry equals (==) its representative's,
    G at (r, b t) and (m/q) S at (1, mn), and each direct entry is within 1e-12 of it."""
    a, b = np.arange(1, q), np.arange(q)
    r, t = _gauss_representatives(q)
    direct, closed = gauss_rows(q, a)
    at = ((r - 1)[:, None], np.multiply.outer(t, b) % q)
    assert np.array_equal(closed, closed[at])
    assert np.max(np.abs(direct - direct[at])) <= 1e-12
    direct, closed = salie_rows(q, a)
    sign = legendre_table(q)[a][:, None]
    mn = np.multiply.outer(a, a) % q
    assert np.array_equal(closed, sign * closed[0, mn - 1])
    assert np.max(np.abs(direct - sign * direct[0, mn - 1])) <= 1e-12


@pytest.mark.parametrize("q", [3, 5, 101, 499, 997])
def test_sweeps_return_the_maxima_of_the_full_matrices(q):
    """Each maximum of the substituted checks is at most the full matrices' (exactly: its
    rows are rows of the full matrices, bit for bit) and within 1e-12 of it (every entry is
    its representative's to 1e-12); both lie within IDENTITY_BUDGET * sqrt(q)."""
    checks = [*gauss_all(q), *salie_all(q)]
    oracle = [maximum for pair in _full_matrix_maxima(q) for maximum in pair]
    budget = IDENTITY_BUDGET * math.sqrt(q)
    for got, full in zip(checks, oracle):
        assert got <= full <= got + 1e-12
        assert full <= budget


@pytest.mark.parametrize("q", [3, 5, 7, 97, 997])  # least non-residue 2, 2, 3, 5, 2
def test_checks_read_one_row_per_legendre_class(q, monkeypatch):
    """gauss_all reads one residue and one non-residue row (the substitution reaches every
    row from one of each), salie_all the one row m = 1, and each returns those rows' maxima:
    the Salie vanishing maximum is |direct| at the non-residue n, where closed is 0."""
    import rootsums.expsums

    read = []
    for name in ("gauss_rows", "salie_rows"):
        def spy(q, rows, rows_of=getattr(rootsums.expsums, name)):
            read.append(rows.tolist())
            return rows_of(q, rows)
        monkeypatch.setattr(rootsums.expsums, name, spy)
    gauss, salie = gauss_all(q), salie_all(q)
    assert [sorted(legendre_table(q)[rows].tolist()) for rows in read] == [[-1, 1], [1]]
    assert read[1] == [1]
    monkeypatch.undo()
    direct, closed = gauss_rows(q, np.array(read[0]))
    modulus_err = np.abs(np.abs(direct) - math.sqrt(q))
    assert gauss == (float(np.max(np.abs(closed - direct))), float(np.max(modulus_err)))
    (direct,), (closed,) = salie_rows(q, np.array([1]))
    nonresidues = legendre_table(q)[1:] == -1
    assert not np.any(closed[nonresidues])
    assert salie == (float(np.max(np.abs(closed - direct))), float(np.max(np.abs(direct[nonresidues]))))


def _full_matrix_maxima(q: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """The brute-force oracle: the four maxima read off the full (q - 1) x q matrices."""
    a = np.arange(1, q, dtype=np.int64)  # also every m
    direct_g, closed_g = gauss_rows(q, a)
    direct_s, closed_s = salie_rows(q, a)
    leg = legendre_table(q)[1:]
    return (
        (float(np.max(np.abs(direct_g - closed_g))),
         float(np.max(np.abs(np.abs(direct_g) - math.sqrt(q))))),
        (float(np.max(np.abs(direct_s - closed_s))),
         float(np.max(np.abs(direct_s[np.multiply.outer(leg, leg) == -1])))),
    )


def test_sweeps_do_not_depend_on_call_order():
    """Checks run back to back over shrinking and growing moduli equal (==) fresh calls,
    each made from empty table caches."""
    order = [997, 5, 499, 3, 101]
    got = [(gauss_all(q), salie_all(q)) for q in order]
    fresh = []
    for q in order:
        _clear_tables()
        fresh.append((gauss_all(q), salie_all(q)))
    assert got == fresh


def test_sweeps_leave_the_cached_phase_buffer_alone(monkeypatch):
    """The identity checks and their rows read their tables directly: the cached buffer of
    the kernel reads is neither built nor read, and no log-ordered buffer is built."""
    built = []
    monkeypatch.setattr(expsums, "log_ordered", lambda table: built.append(len(table)))
    before = sqrt_phase_buffer.cache_info()
    for q in (3, 101, 997):
        gauss_all(q)
        salie_all(q)
        gauss_rows(q, np.arange(1, min(q, 5)))
        salie_rows(q, np.arange(1, min(q, 5)))
    assert sqrt_phase_buffer.cache_info() == before
    assert built == []


def test_gauss_sums_build_no_root_phase_table():
    """Only the Salie closed form reads the root-phase table: the Gauss rows and sweep
    build neither it nor its buffer, and the Salie sweep builds it once."""
    sqrt_phase_table.cache_clear()
    for q in (3, 101, 997):
        gauss_all(q)
        gauss_rows(q, np.arange(1, min(q, 5)))
    assert sqrt_phase_table.cache_info().misses == 0
    salie_all(101)
    assert sqrt_phase_table.cache_info().misses == 1


@pytest.mark.parametrize("sweep", [gauss_all, salie_all], ids=["gauss", "salie"])
def test_sweeps_hold_no_full_matrix(sweep, heap_peak):
    """At q = 997 one (q-1) x q complex128 matrix is 15.2 MiB; a check peaks under 512 KiB."""
    _, peak = heap_peak(sweep, 997)
    assert peak < 512 * 2**10


def test_all_pairs_limit_is_the_memory_of_one_modulus(heap_peak):
    """ALL_PAIRS_LIMIT is 64 MiB over _PAIR_BYTES_PER_Q: from empty table caches, the two
    checks of one modulus together peak under _PAIR_BYTES_PER_Q * q bytes."""
    assert ALL_PAIRS_LIMIT * _PAIR_BYTES_PER_Q <= 1 << 26
    q = 10007
    _clear_tables()

    def both_checks():
        gauss_all(q)
        salie_all(q)

    _, peak = heap_peak(both_checks)
    assert peak < _PAIR_BYTES_PER_Q * q
    assert peak < 170 * q  # no log-ordered buffer (64 q bytes each) is built

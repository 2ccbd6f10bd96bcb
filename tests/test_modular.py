"""Field arithmetic: symbols, inverses, square roots, phases."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootsums.expsums import exp_table, salie_closed_form, sqrt_phase_table
from rootsums.modular import (
    e_q,
    eps_q,
    inv_mod,
    inverse_table,
    kronecker,
    legendre_table,
    log_tables,
    primitive_root,
    read_products,
    reduced_residue,
    residue_roots,
    root_table,
    sqrt_mod,
    tonelli_shanks,
)
from rootsums import primes
from rootsums.primes import is_prime, iter_prime_blocks, primes_between, sieve_primes

SMALL_PRIMES = [int(q) for q in sieve_primes(500) if q % 2 == 1]


class TestKronecker:
    def test_divisible(self):
        assert kronecker(0, 7) == 0
        assert kronecker(14, 7) == 0

    def test_euler_criterion_examples(self):
        # 2^3 = 1 (mod 7), 5^3 = 6 (mod 7)
        assert kronecker(2, 7) == 1
        assert kronecker(5, 7) == -1

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            kronecker(3, 0)

    def test_even_and_negative_arguments(self):
        # (a/2) is 0 for even a and +-1 by a mod 8
        assert kronecker(7, 2) == 1
        assert kronecker(3, 2) == -1
        assert kronecker(4, 2) == 0
        assert kronecker(-7, 2) == 1  # -7 = 1 (mod 8)
        assert kronecker(-67, 2) == -1  # -67 = 5 (mod 8)

    @given(st.integers(min_value=-10**6, max_value=10**6), st.sampled_from(SMALL_PRIMES))
    def test_matches_euler_criterion(self, a, q):
        expected = pow(a % q, (q - 1) // 2, q)
        if expected == q - 1:
            expected = -1
        assert kronecker(a, q) == expected

    @pytest.mark.parametrize("q", [int(p) for p in sieve_primes(200) if p % 2 == 1])
    def test_multiplicative_exhaustive(self, q):
        leg = legendre_table(q).astype(np.int64)
        a = np.arange(q, dtype=np.int64)
        assert np.array_equal(leg[a[:, None] * a[None, :] % q], leg[:, None] * leg[None, :])

    @pytest.mark.parametrize("q", [int(p) for p in sieve_primes(1000) if p % 2 == 1])
    def test_symbol_sums_to_zero(self, q):
        assert int(legendre_table(q).astype(np.int64).sum()) == 0


class TestInverse:
    def test_examples(self):
        assert inv_mod(1, 101) == 1
        assert inv_mod(2, 7) == 4
        assert inv_mod(3, 11) == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            inv_mod(0, 7)
        with pytest.raises(ValueError):
            inv_mod(14, 7)

    @given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=10**9))
    def test_inverse_property(self, q, a):
        if a % q == 0:
            return
        inv = inv_mod(a, q)
        assert 1 <= inv <= q - 1
        assert a * inv % q == 1


class TestSqrt:
    def test_examples(self):
        assert sqrt_mod(1, 7) == (1, 6)
        assert sqrt_mod(2, 7) == (3, 4)
        assert sqrt_mod(3, 7) == ()
        assert sqrt_mod(0, 7) == (0,)

    @pytest.mark.parametrize("q", [int(p) for p in sieve_primes(1000) if p % 2 == 1])
    def test_exhaustive_against_table(self, q):
        """Tonelli-Shanks agrees with the exhaustive root table for every residue."""
        rt = root_table(q)
        leg = legendre_table(q)
        for a in range(q):
            roots = sqrt_mod(a, q)
            t = int(rt[a])
            assert roots == (() if t < 0 else (0,) if t == 0 else (t, q - t))
            for r in roots:
                assert r * r % q == a
            if a != 0:
                assert len(roots) == 1 + int(leg[a])

    def test_tonelli_none_for_nonresidue(self):
        assert tonelli_shanks(3, 7) is None

    @given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=0, max_value=10**6))
    def test_roots_square_back(self, q, a):
        for r in sqrt_mod(a % q, q):
            assert r * r % q == a % q

    def test_large_modulus_path(self):
        # beyond the range of the cached tables the scalar path still works
        q = (1 << 31) - 1  # Mersenne prime
        a = 123456789
        roots = sqrt_mod(a * a % q, q)
        assert a in roots or q - a in roots

    def test_rejects_bad_moduli(self):
        for bad in (1, 2, 9, 15, 21, 1 << 62):
            with pytest.raises(ValueError):
                sqrt_mod(1, bad)
        with pytest.raises(ValueError):
            sqrt_mod(2, 15)  # the scan would answer (1, 14)
        with pytest.raises(ValueError):
            salie_closed_form(1, 1, 9)
        with pytest.raises(ValueError):
            salie_closed_form(2, 1, 21)  # (2/21) = -1 would short-cut to 0
        with pytest.raises(ValueError):
            tonelli_shanks(2, 15)  # would answer 1, and 1 != 2 (mod 15)


class TestPhases:
    def test_eps(self):
        assert eps_q(5) == 1
        assert eps_q(7) == 1j
        assert eps_q(13) == 1

    def test_e_q_examples(self):
        assert e_q(0, 11) == pytest.approx(1.0)
        assert e_q(11, 11) == pytest.approx(1.0)
        assert e_q(1, 5) == pytest.approx(cmath.exp(2j * math.pi / 5))
        assert e_q(1, 5).real == pytest.approx(0.30902, abs=1e-5)
        assert e_q(1, 5).imag == pytest.approx(0.95106, abs=1e-5)

    @given(
        st.sampled_from(SMALL_PRIMES),
        st.integers(min_value=-10**9, max_value=10**9),
        st.integers(min_value=-10**9, max_value=10**9),
    )
    def test_additive(self, q, x, y):
        assert abs(e_q(x, q) * e_q(y, q) - e_q(x + y, q)) < 1e-12

    def test_reduced_residue(self):
        assert reduced_residue(0, 7) == 7
        assert reduced_residue(7, 7) == 7
        assert reduced_residue(9, 7) == 2


class TestTables:
    def test_tables_match_scalar_path(self):
        q = 211
        leg = legendre_table(q)
        inv = inverse_table(q)
        for a in range(1, q):
            assert leg[a] == kronecker(a, q)
            assert inv[a] == inv_mod(a, q)

    @pytest.mark.parametrize("q", [3, 13, 23, 101])
    def test_residue_roots_match_sqrt_mod(self, q):
        """Every residue, with repeats, expands to exactly its sqrt_mod roots."""
        residues = np.concatenate([np.arange(q), np.arange(q)[::3], [0, 0]])
        expected = sorted(r for a in residues for r in sqrt_mod(int(a), q))
        assert sorted(residue_roots(residues, q).tolist()) == expected

    @pytest.mark.parametrize("q", [3, 5, 7, 17, 101, 4001, 8009])
    def test_log_tables_are_inverse_permutations(self, q):
        g = primitive_root(q)
        pw, lg = log_tables(q)
        assert pw.tolist() == [pow(g, k, q) for k in range(q - 1)]
        assert sorted(pw.tolist()) == list(range(1, q))
        x = np.arange(1, q)
        assert np.array_equal(pw[lg[x]], x)
        assert np.array_equal(lg[pw], np.arange(q - 1))
        # g is the least generator: every smaller candidate has a smaller order
        assert all(len({pow(c, k, q) for k in range(q - 1)}) < q - 1 for c in range(2, min(g, 50)))

    @pytest.mark.parametrize("q", [3, 5, 101, 4001])
    def test_read_products_is_the_index_product_read(self, q):
        """Each entry is the table read at the int64 index product, bit for bit, whatever the factors."""
        # 0, units, multiples of q, negatives and values past q, as rows and as columns
        factors = np.array([0, 1, 2, q - 1, q, 2 * q, 3 * q + 1, -1, -q, -(q + 2), 7 * q - 3])
        every = np.arange(-q, 2 * q + 1) if q < 1000 else np.arange(-3, q + 3)
        grids = [(factors, factors), (factors, every), (every, factors),
                 (factors[:1], factors), (factors, factors[3:4]), (factors[4:5], factors[7:8])]
        for table in (exp_table(q), sqrt_phase_table(q)):
            for rows, cols in grids:
                got = read_products(table, rows, cols)
                assert got.shape == (len(rows), len(cols))
                assert np.array_equal(got, table[np.multiply.outer(rows, cols) % q])

    @pytest.mark.parametrize("q", [3, 5, 101, 4001])
    def test_log_of_zero_points_into_the_run_of_table_zero(self, q):
        """lg[0] = 2(q-1): past both periods, so a factor 0 reads table[0] against every log."""
        _, lg = log_tables(q)
        assert lg[0] == 2 * (q - 1)
        assert lg[1:].max() == q - 2
        table = np.arange(q) + 7  # every entry distinct, table[0] = 7
        units = np.arange(1, q)
        assert np.array_equal(read_products(table, np.array([0]), units), np.full((1, q - 1), 7))
        assert np.array_equal(read_products(table, units, np.array([0, q])), np.full((q - 1, 2), 7))
        assert np.array_equal(read_products(table, np.array([0]), np.array([0])), [[7]])

    def test_primitive_root_rejects_bad_moduli(self):
        for bad in (2, 9, 15):
            with pytest.raises(ValueError):
                primitive_root(bad)


class TestPrimes:
    def test_is_prime(self):
        assert is_prime(2) and is_prime(67) and is_prime((1 << 61) - 1)
        assert not is_prime(1) and not is_prime(561) and not is_prime(67 * 71)

    def test_sieve_matches_mr(self):
        sieved = set(int(p) for p in sieve_primes(2000))
        assert sieved == {n for n in range(2001) if is_prime(n)}

    @pytest.mark.parametrize("limit", [0, 1, 2, 97, 12345])
    def test_prime_blocks_concatenate_to_the_sieve(self, limit, monkeypatch):
        monkeypatch.setattr(primes, "_BLOCK", 7)
        blocks = list(iter_prime_blocks(limit))
        assert all(len(b) <= 7 for b in blocks)
        joined = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
        assert np.array_equal(joined, sieve_primes(limit))

    def test_primes_between(self):
        assert primes_between(0, 20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_between(14, 16).size == 0
        assert primes_between(5, 3).size == 0

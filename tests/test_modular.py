"""Field arithmetic: symbols, inverses, square roots, phases."""

import cmath
import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootsums
from rootsums.errors import SizeGuardError
from rootsums.expsums import exp_table, salie_closed_form, sqrt_phase_table
from rootsums.modular import (
    _READ_CHUNK,
    TABLE_CACHE_SIZE,
    TABLE_LIMIT,
    _check_log_range,
    e_q,
    eps_q,
    inv_mod,
    inverse_table,
    kronecker,
    legendre_table,
    log_grid,
    log_ordered,
    log_tables,
    primitive_root,
    reduced_residue,
    residue_roots,
    root_table,
    sqrt_mod,
    table_cache,
    tonelli_shanks,
)
from rootsums import modular, primes
from rootsums.primes import is_prime, iter_prime_blocks, primes_between, sieve_primes

SMALL_PRIMES = [int(q) for q in sieve_primes(500) if q % 2 == 1]
ODD_PRIMES_3000 = [int(q) for q in sieve_primes(3000) if q % 2 == 1]


@st.composite
def product_reads(draw):
    """(table, rows, cols) for an odd prime q < 3000: a complex or int64 table of length q
    and int64 factors with 0, negatives and multiples of q among them.  The column count is
    small or near _READ_CHUNK, so some grids are built in chunks."""
    q = draw(st.sampled_from(ODD_PRIMES_3000))
    table = draw(st.sampled_from([exp_table(q), sqrt_phase_table(q), root_table(q), np.arange(q) * 3 - q]))
    factor = st.one_of(st.integers(-3 * q, 3 * q), st.integers(-3, 3).map(lambda k: k * q))
    rows = np.array(draw(st.lists(factor, max_size=6)), dtype=np.int64)
    width = draw(st.sampled_from([1, 2, 7, _READ_CHUNK - 1, _READ_CHUNK, _READ_CHUNK + 1]))
    head = np.array(draw(st.lists(factor, min_size=1, max_size=8)), dtype=np.int64)
    tail = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(-3 * q, 3 * q + 1, width)
    return table, rows, np.concatenate([head, tail])[:width]


@st.composite
def shifted_grids(draw):
    """(q, rows, cols, shifts) for an odd prime q < 500: int64 factors and shifts with 0,
    negatives and multiples of q among them.  The column count is small or above half of
    _READ_CHUNK or above all of it, so the grid is built in one chunk or a row at a time."""
    q = draw(st.sampled_from(SMALL_PRIMES))
    factor = st.one_of(st.integers(-3 * q, 3 * q), st.integers(-3, 3).map(lambda k: k * q))
    rows = np.array(draw(st.lists(factor, max_size=6)), dtype=np.int64)
    width = draw(st.sampled_from([1, 2, 7, _READ_CHUNK // 2 + 1, _READ_CHUNK + 1]))
    head = np.array(draw(st.lists(factor, min_size=1, max_size=8)), dtype=np.int64)
    tail = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(-3 * q, 3 * q + 1, width)
    shifts = draw(st.lists(st.one_of(st.just(0), factor), min_size=1, max_size=4))
    return q, rows, np.concatenate([head, tail])[:width], shifts


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
    def test_log_grid_take_is_the_index_product_read(self, q):
        """Each entry taken from log_ordered(table) at log_grid(rows, cols) is the table read
        at the int64 index product, bit for bit, whatever the factors: for the unit-root,
        root-phase and root tables and for tables built by hand."""
        # 0, units, multiples of q, negatives and values past q, as rows and as columns
        factors = np.array([0, 1, 2, q - 1, q, 2 * q, 3 * q + 1, -1, -q, -(q + 2), 7 * q - 3])
        every = np.arange(-q, 2 * q + 1) if q < 1000 else np.arange(-3, q + 3)
        grids = [(factors, factors), (factors, every), (every, factors),
                 (factors[:1], factors), (factors, factors[3:4]), (factors[4:5], factors[7:8])]
        by_hand = sqrt_phase_table(q) * (1 + 2j)
        for table in (exp_table(q), sqrt_phase_table(q), root_table(q), by_hand, np.arange(q) - 5):
            buf = log_ordered(table)
            assert buf.shape == (4 * q - 3,) and buf.dtype == table.dtype and not buf.flags.writeable
            for rows, cols in grids:
                got = buf.take(log_grid(rows, cols, q), mode="clip")
                assert got.shape == (len(rows), len(cols))
                assert np.array_equal(got, table[np.multiply.outer(rows, cols) % q])

    @settings(max_examples=80, deadline=None)
    @given(product_reads())
    def test_log_grid_take_property(self, read):
        """The take equals the int64 index product read of the table, in its dtype."""
        table, rows, cols = read
        q = len(table)
        buf = log_ordered(table)
        assert len(buf) == 4 * q - 3
        expected = table[np.multiply.outer(rows, cols) % q]
        got = buf.take(log_grid(rows, cols, q), mode="clip")
        assert got.dtype == table.dtype and np.array_equal(got, expected)

    @settings(max_examples=80, deadline=None)
    @given(shifted_grids())
    def test_log_grid_is_a_shifted_product_read(self, grid_read):
        """For every shift c, the take of the buffer shifted by lg[c] at log_grid(rows, cols)
        is the table read at the int64 index products c * rows * cols mod q, byte for byte,
        and its largest index lg[c] + max(L) is at most len(buf) - 1, so mode="clip" clips
        nothing."""
        q, rows, cols, shifts = grid_read
        grid = log_grid(rows, cols, q)
        assert grid.dtype == np.int64 and grid.shape == (len(rows), len(cols))
        _, lg = log_tables(q)
        for table in (sqrt_phase_table(q), np.arange(q) * 3 - q):
            buf = log_ordered(table)
            for c in shifts:
                got = buf[lg[c % q] :].take(grid, mode="clip")
                assert got.tobytes() == table[np.multiply.outer(c * rows % q, cols) % q].tobytes()
                if grid.size:
                    assert 0 <= grid.min() and lg[c % q] + grid.max() <= len(buf) - 1

    @pytest.mark.parametrize("q", [3, 5, 101, 4001, 8009])
    def test_log_range_is_checked_when_built(self, q, monkeypatch):
        """log_tables checks lg's range, so a shift plus a log_grid entry indexes a buffer of
        4q - 3; each way a copy of lg can leave that range raises."""
        checked = []
        monkeypatch.setattr(modular, "_check_log_range", lambda lg: checked.append(lg.copy()))
        _, lg = log_tables.__wrapped__(q)  # the uncached build
        assert len(checked) == 1 and np.array_equal(checked[0], lg)
        monkeypatch.undo()
        _check_log_range(lg)
        for at, value in ((0, 2 * q - 3), (0, 2 * q - 1), (1, -1), (q - 1, q - 1), (q // 2, 2 * (q - 1))):
            bad = lg.copy()
            bad[at] = value
            with pytest.raises(ValueError, match="out of range"):
                _check_log_range(bad)

    @pytest.mark.parametrize("q", [3, 5, 101, 4001])
    def test_log_of_zero_points_into_the_run_of_table_zero(self, q):
        """lg[0] = 2(q-1): past both periods, so a factor 0 reads table[0] against every log,
        and so does the shift lg[0] at the last index of the 4q - 3 entries."""
        _, lg = log_tables(q)
        assert lg[0] == 2 * (q - 1)
        assert lg[1:].max() == q - 2
        buf = log_ordered(np.arange(q) + 7)  # every entry distinct, table[0] = 7
        assert len(buf) == 4 * q - 3
        units, zero = np.arange(1, q), np.array([0])

        def read(rows, cols, shift=0):
            return buf[shift:].take(log_grid(rows, cols, q), mode="clip")

        assert np.array_equal(read(zero, units), np.full((1, q - 1), 7))
        assert np.array_equal(read(units, np.array([0, q])), np.full((q - 1, 2), 7))
        assert np.array_equal(read(zero, zero), [[7]])
        assert np.array_equal(read(units, zero, shift=lg[0]), np.full((q - 1, 1), 7))

    def test_primitive_root_rejects_bad_moduli(self):
        for bad in (2, 9, 15):
            with pytest.raises(ValueError):
                primitive_root(bad)


def _package_caches() -> dict:
    """'module.function' -> function, for every function of the package with a ``cache_info``."""
    found = {}
    for info in pkgutil.iter_modules(rootsums.__path__):
        mod = importlib.import_module(f"rootsums.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


# Two caches hold no table: the fixture, one parsed file, and the BLAS library lookup.
# Every other cache follows the policy.
NOT_TABLES = {"calibration.load", "bilinear._openblas_threads"}
TABLE_CACHES = {name: fn for name, fn in _package_caches().items() if name not in NOT_TABLES}
# A key each cache accepts (101 unless named); every cache's limit is TABLE_LIMIT.
SMALL_KEYS = {"quadforms.enumerate_reduced_forms": 23}


def _arrays(result) -> list:
    return [part for part in (result if isinstance(result, tuple) else (result,)) if isinstance(part, np.ndarray)]


class TestTableCache:
    def test_every_table_is_found(self):
        """The exact set of memoised tables: a cache added without declaring it here fails."""
        assert TABLE_CACHES.keys() == {
            "modular.inverse_table", "modular.legendre_table", "modular.root_table",
            "modular.log_tables", "expsums.exp_table", "expsums.sqrt_phase_table",
            "expsums.sqrt_phase_buffer", "quadforms.enumerate_reduced_forms",
        }
        assert NOT_TABLES <= _package_caches().keys()
        assert TABLE_LIMIT == 1 << 24

    @pytest.mark.parametrize("name", sorted(TABLE_CACHES))
    def test_cache_follows_the_policy(self, name):
        """TABLE_CACHE_SIZE entries, read-only arrays, and a refusal above the limit."""
        cached = TABLE_CACHES[name]
        assert cached.cache_info().maxsize == TABLE_CACHE_SIZE
        for array in _arrays(cached(SMALL_KEYS.get(name, 101))):
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(SizeGuardError):
            cached(TABLE_LIMIT + 1)

    def test_refusal_comes_before_the_build(self):
        built = []

        @table_cache(10)
        def table(n):
            built.append(n)
            return np.arange(n), np.zeros(n), "label"

        first = table(10)
        assert table(10) is first and built == [10]
        assert [a.flags.writeable for a in _arrays(first)] == [False, False]
        with pytest.raises(SizeGuardError, match="table refused for 11 > 10"):
            table(11)
        assert built == [10]
        assert table.cache_info().maxsize == TABLE_CACHE_SIZE and table.__name__ == "table"


class TestPrimes:
    def test_is_prime(self):
        assert is_prime(2) and is_prime(67) and is_prime((1 << 61) - 1)
        assert not is_prime(1) and not is_prime(561) and not is_prime(67 * 71)

    def test_sieve_matches_mr(self):
        sieved = set(int(p) for p in sieve_primes(2000))
        assert sieved == {n for n in range(2001) if is_prime(n)}

    def test_every_tier_bound_is_composite(self):
        """psi_k passes Miller-Rabin for each of the first k primes, so each bound is
        tested with the next tier's witnesses; psi_12 and psi_13 passed all 12 of the
        former witness set."""
        for k, psi in enumerate(primes._PSI[:-1], start=1):
            assert not is_prime(psi), k
        with pytest.raises(ValueError):
            is_prime(primes._PSI[-1])
        with pytest.raises(ValueError):
            is_prime(10**30)

    def test_tiers_agree_with_the_sieve(self):
        """Below 2 * 10^5 every answer, on the one- and two-witness tiers, is the sieve's."""
        sieved = primes_between(0, 2 * 10**5 - 1).tolist()
        assert [n for n in range(2 * 10**5) if is_prime(n)] == sieved

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

    def test_narrow_window_refuses_its_base_primes_past_the_window_limit(self, heap_peak):
        """The base primes of [10^15, 10^15 + 10] are those up to 3.2 * 10^7: their window is
        refused like any other, before a mask is allocated."""

        def refused():
            with pytest.raises(SizeGuardError, match=r"prime window \[2, 31622776\]"):
                primes_between(10**15, 10**15 + 10)

        _, peak = heap_peak(refused)
        assert peak < 1 << 20

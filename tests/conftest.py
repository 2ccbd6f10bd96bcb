import contextlib
import tracemalloc

import numpy as np
import pytest

from rootsums import bilinear, equidist
from rootsums.bilinear import BilinearInstance, bilinear_weyl_sum, weyl_envelopes
from rootsums.expsums import exp_table
from rootsums.primes import sieve_primes
from rootsums.weights import WeightVector, dyadic_starts


@pytest.fixture(scope="session")
def phase_table_oracle():
    """The oracle for every read of the one root-phase table as T[h^2 c]."""

    def twisted_phase_table(q, h):
        """T_h[c] = sum over x^2 = c (mod q) of e_q(h x), built for one h by np.add.at."""
        x = np.arange(q, dtype=np.int64)
        table = np.zeros(q, dtype=np.complex128)
        np.add.at(table, x * x % q, exp_table(q)[h % q * x % q])
        return table

    return twisted_phase_table


@pytest.fixture(scope="session")
def weyl_sweep_oracle():
    """The oracle for ``weyl_sweep``: every cell on its own, from its own default_rng
    through WeightVector.make and bilinear_weyl_sum to weyl_envelopes."""

    def per_cell_sweep(q_values, kinds=("indicator", "pm1", "phase"), instances=20, seed=42,
                       only_m=None, only_n=None):
        rows = []
        for q in q_values:
            starts = dyadic_starts(q)
            for m_start in [s for s in starts if only_m in (None, s)]:
                for n_start in [s for s in starts if only_n in (None, s)]:
                    for kind_idx, kind in enumerate(kinds):
                        for k in range(instances):
                            rng = np.random.default_rng([seed, q, m_start, n_start, kind_idx, k])
                            a = int(rng.integers(1, q))
                            h = int(rng.integers(1, q))
                            alpha = WeightVector.make(kind, q, m_start, rng)
                            beta = WeightVector.make(kind, q, n_start, rng)
                            measured = abs(bilinear_weyl_sum(BilinearInstance(q, a, h, alpha, beta)))
                            env1, env2 = weyl_envelopes(
                                alpha.norm2, beta.norm_inf, beta.norm1, m_start, n_start, q
                            )
                            rows.append({
                                "q": q, "M": m_start, "N": n_start, "kind": kind, "seed": k,
                                "a": a, "h": h, "measured": measured,
                                "envelope1": env1, "envelope2": env2,
                                "ratio1": measured / env1, "ratio2": measured / env2,
                            })
        return rows

    return per_cell_sweep


@pytest.fixture(scope="session")
def heap_peak():
    """heap_peak(fn, *args) -> (fn(*args), the tracemalloc peak of the call in bytes)."""

    def traced(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return traced


@pytest.fixture(scope="session")
def blas_threads():
    """blas_threads(count): a context that runs its body at ``count`` OpenBLAS threads and
    yields the count getter; it skips the test where numpy's OpenBLAS is not found."""

    @contextlib.contextmanager
    def at(count):
        blas = bilinear._openblas_threads()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, set_ = blas
        before = get()
        set_(count)
        try:
            yield get
        finally:
            set_(before)

    return at


@pytest.fixture(scope="session")
def odd_primes_200():
    return [int(q) for q in sieve_primes(200) if q % 2 == 1]


@pytest.fixture(scope="session")
def odd_primes_1000():
    return [int(q) for q in sieve_primes(1000) if q % 2 == 1]


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


@pytest.fixture
def prime_walks(monkeypatch):
    """The cutoffs that ``equidist`` walks the primes to, one entry per walk, in call order."""
    walks = []
    walk = equidist.iter_prime_blocks

    def spy(limit):
        walks.append(limit)
        return walk(limit)

    monkeypatch.setattr(equidist, "iter_prime_blocks", spy)
    return walks

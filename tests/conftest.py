import numpy as np
import pytest

from rootsums.expsums import exp_table
from rootsums.primes import sieve_primes


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
def odd_primes_200():
    return [int(q) for q in sieve_primes(200) if q % 2 == 1]


@pytest.fixture(scope="session")
def odd_primes_1000():
    return [int(q) for q in sieve_primes(1000) if q % 2 == 1]


@pytest.fixture
def rng():
    return np.random.default_rng(2026)

"""The acceptance gate: every headline criterion at its stated tolerance.

Each test runs one criterion on its full grid, holds it to its stated
runtime budget if it has one, and prints the pass/fail line, so
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
``rootsums verify`` executes the same functions.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rootsums import acceptance

CRITERIA = {check.__name__: check for check in acceptance.ALL_CRITERIA}

# The benchmark's reference output; its keys are the detail contract of ``verify``.
VERIFY_REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify.json").read_text()
)

# Stated runtime budgets (seconds) of the clock-bounded criteria.
BUDGETS = {"check_salie_identity": 60.0, "check_weyl_envelopes": 600.0}


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name):
    result = CRITERIA[name]()
    print(result.line())
    assert result.passed, result.line()
    assert result.seconds < BUDGETS.get(name, math.inf), result.line()
    assert set(result.detail) | {"passed"} == VERIFY_REFERENCE[result.name].keys(), result.line()


def test_class_numbers_need_a_certified_tail(monkeypatch):
    """With the series cut at n <= sqrt(q/pi)/2 its bound passes 0.5, so the rounding is
    unproven and the criterion fails."""
    from rootsums import quadforms

    monkeypatch.setattr(quadforms, "_SERIES_SPAN", 0.5)
    assert quadforms.class_number_series(9967)[1] >= 0.5
    result = acceptance.check_class_numbers()
    assert not result.passed and result.detail["disagreements"] > 0


def test_class_numbers_fail_on_one_flipped_character_value(monkeypatch):
    """chi(2) negated in the series of q = 9967 alone makes that one modulus disagree."""
    from rootsums import quadforms

    chi_at = quadforms.chi_at

    def flipped(q, n):
        values = chi_at(q, n)
        return np.where((n == 2) & (q == 9967), -values, values)

    monkeypatch.setattr(quadforms, "chi_at", flipped)
    result = acceptance.check_class_numbers()
    assert not result.passed and result.detail["disagreements"] == 1


def every_j_energy_counts(q_max):
    """(cells, mismatches) of the energy identity with both groupings run at every j."""
    from rootsums.primes import primes_between
    from rootsums.weights import window_energies

    cells = mismatches = 0
    for q in primes_between(3, q_max).tolist():
        for j in range(1, q):
            sums, diffs = window_energies(q, j, 1), window_energies(q, j, -1)
            cells += sums.size
            mismatches += int(np.count_nonzero(sums != diffs))
    return cells, mismatches


def test_energy_identity_counts_every_j():
    """Weighting each square class by (q - 1)/2 gives the every-j loop's cells and mismatches."""
    result = acceptance.check_energy_identity(q_max=31)
    assert result.passed
    assert (result.detail["cells"], result.detail["mismatches"]) == every_j_energy_counts(31)


def test_energy_identity_fails_on_one_window(monkeypatch):
    """One window of the difference grouping at q = 31, j = 1 off by 1 fails the criterion,
    counted once for each of the (q - 1)/2 members of its square class."""
    from rootsums import weights

    window_energies = weights.window_energies

    def faulty(q, j, sign):
        energies = window_energies(q, j, sign)
        if (q, j, sign) == (31, 1, -1):
            energies[3] += 1
        return energies

    monkeypatch.setattr(weights, "window_energies", faulty)
    result = acceptance.check_energy_identity()
    assert not result.passed and result.detail["mismatches"] == 15


def test_heegner_window_enumerates_each_modulus_once():
    """One pass per modulus: its forms are enumerated once, even with more moduli than cache entries."""
    from rootsums.modular import TABLE_CACHE_SIZE
    from rootsums.quadforms import enumerate_reduced_forms

    count = TABLE_CACHE_SIZE + 4
    enumerate_reduced_forms.cache_clear()
    assert acceptance.check_heegner_window(count).passed
    assert enumerate_reduced_forms.cache_info().misses == count


def test_line_reports_cpu_seconds():
    """A criterion's line shows its CPU seconds, every thread counted, beside its wall seconds."""
    result = acceptance.check_congruence_dichotomy()
    assert result.cpu_seconds > 0
    assert f"({result.seconds:.1f}s, cpu {result.cpu_seconds:.1f}s) " in result.line()

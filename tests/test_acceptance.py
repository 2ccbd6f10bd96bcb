"""The acceptance gate: every headline criterion at its stated tolerance.

Each test runs one criterion on its full grid, holds it to its stated
runtime budget if it has one, and prints the pass/fail line, so
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
``rootsums verify`` executes the same functions.
"""

import json
import math
from pathlib import Path

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


def test_class_numbers_need_a_certified_tail():
    """At T = 10^5 the tail bound reaches 3.2 near q = 10^4, so the rounding is unproven."""
    result = acceptance.check_class_numbers(q_max=10**4, truncation=10**5)
    assert not result.passed and result.detail["disagreements"] > 0


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

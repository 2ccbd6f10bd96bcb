"""The acceptance gate: every headline criterion at its stated tolerance.

Each test runs one criterion on its full grid, holds it to its stated
runtime budget if it has one, and prints the pass/fail line, so
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
``rootsums verify`` executes the same functions.
"""

import errno
import functools
import json
import math
import os
import re
import time
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


@pytest.fixture
def cpus(monkeypatch):
    """cpus(count): ``os.sched_getaffinity`` reports ``count`` CPUs; returns the list
    that records each ``os.fork`` call."""
    forks = []
    fork = os.fork

    def spy():
        forks.append(os.getpid())
        return fork()

    def at(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(os, "fork", spy)
        return forks

    return at


@pytest.fixture
def weyl_sweep_does(monkeypatch, cpus):
    """weyl_sweep_does(action): the Weyl criterion's sweep runs ``action`` in its forked
    worker, and ``run_all`` reads a short battery with the Weyl criterion in two lanes."""
    from rootsums import bilinear

    parent = os.getpid()

    def install(action):
        def sweep(**grid):
            assert os.getpid() != parent, "the Weyl criterion ran in the calling process"
            action()

        cpus(2)
        monkeypatch.setattr(bilinear, "weyl_sweep", sweep)
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", (
            acceptance.check_energy_identity, acceptance.check_weyl_envelopes, acceptance.check_curve_sum_bound
        ))

    return install


def test_two_lanes_match_one(cpus, capsys):
    """With two CPUs the Weyl criterion runs in one forked worker; the details and the
    lines, timings aside, are those of the inline run on one CPU, in ALL_CRITERIA order."""
    runs = {}
    for count in (2, 1):
        forks = cpus(count)
        results = acceptance.run_all(quick=True)
        text = re.sub(r"\(\d+\.\ds, cpu \d+\.\ds\)", "(s, cpu s)", capsys.readouterr().out)
        runs[count] = [(r.name, r.passed, r.detail) for r in results], text
        assert len(forks) == (count == 2)
        forks.clear()
    assert runs[2] == runs[1]
    results, text = runs[2]
    names = [name for name, _, _ in results]
    assert sorted(names) == sorted(VERIFY_REFERENCE)
    assert names.index("bilinear weyl-sum envelopes") == list(CRITERIA).index("check_weyl_envelopes")
    lines = text.splitlines()
    assert len(lines) == len(results)
    assert all(line.startswith(f"[PASS] {name} (") for line, (name, _, _) in zip(lines, results))


def test_worker_exception_is_raised_again(weyl_sweep_does):
    from rootsums.errors import SizeGuardError

    def refuse():
        raise SizeGuardError("Weyl sweep refused: injected")

    weyl_sweep_does(refuse)
    with pytest.raises(SizeGuardError, match="^Weyl sweep refused: injected$"):
        acceptance.run_all(quick=True)


def test_worker_exception_that_cannot_be_pickled(weyl_sweep_does):
    class Local(Exception):
        pass

    def fail():
        raise Local("not importable")

    weyl_sweep_does(fail)
    with pytest.raises(RuntimeError, match=re.escape(repr(Local("not importable")))):
        acceptance.run_all(quick=True)


def test_worker_ending_without_a_result(weyl_sweep_does):
    weyl_sweep_does(lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="check_weyl_envelopes .* exit code 3"):
        acceptance.run_all(quick=True)


def test_calling_lane_exception_reaps_the_worker(weyl_sweep_does, monkeypatch):
    """The worker, still running when the calling process's lane raises, is ended and
    reaped (the conftest guard checks that no child is left)."""
    from rootsums import bilinear

    weyl_sweep_does(lambda: time.sleep(60))

    def broken():
        raise ArithmeticError("curve sweep: injected")

    monkeypatch.setattr(bilinear, "curve_sweep", broken)
    start = time.monotonic()
    with pytest.raises(ArithmeticError, match="injected"):
        acceptance.run_all(quick=True)
    assert time.monotonic() - start < 30


def test_fork_failure_runs_the_worker_criterion_here(cpus, monkeypatch, capsys):
    """Where no process can be had, the Weyl criterion runs in the calling process after
    the others: the same details and lines as on one CPU, and no pipe end left open."""
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (
        acceptance.check_energy_identity, acceptance.check_weyl_envelopes, acceptance.check_curve_sum_bound
    ))
    runs = []
    for count in (1, 2):
        cpus(count)
        if count == 2:
            def refuse():
                raise OSError(errno.EAGAIN, "no process to be had")

            monkeypatch.setattr(os, "fork", refuse)
        fds = sorted(os.listdir("/dev/fd"))
        results = acceptance.run_all(quick=True)
        assert sorted(os.listdir("/dev/fd")) == fds
        text = re.sub(r"\(\d+\.\ds, cpu \d+\.\ds\)", "(s, cpu s)", capsys.readouterr().out)
        runs.append(([(r.name, r.passed, r.detail) for r in results], text))
    assert runs[0] == runs[1]


def test_wrapped_weyl_criterion_runs_in_the_calling_process(cpus, monkeypatch):
    """A wrapper around the Weyl criterion (a tracer's, say) sees all of its work: the
    criterion runs here, on its quick grid, and nothing is forked."""
    calls = []
    check = acceptance.check_weyl_envelopes

    @functools.wraps(check)
    def wrapped(**kwargs):
        calls.append((os.getpid(), kwargs))
        return check(**kwargs)

    forks = cpus(2)
    # rebound as a tracer rebinds them: the module's name and the criteria tuple
    monkeypatch.setattr(acceptance, "check_weyl_envelopes", wrapped)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (acceptance.check_energy_identity, wrapped))
    results = acceptance.run_all(quick=True)
    assert forks == [] and calls == [(os.getpid(), acceptance._QUICK_OVERRIDES["check_weyl_envelopes"])]
    assert [r.passed for r in results] == [True, True]

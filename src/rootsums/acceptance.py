"""The acceptance suite: every headline check, runnable as a library call.

Each criterion function returns a CriterionResult; run_all executes the
whole battery and prints one pass/fail line per criterion.  The same
functions back ``tests/test_acceptance.py`` and the ``rootsums verify``
subcommand.  Identity checks are exact (up to stated float tolerances);
asymptotic bounds are held against the frozen calibration constants.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import calibration
from .primes import primes_between


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0
    # CPU seconds, every thread counted (BLAS threads included), of the process
    # that ran the criterion: under ``run_all`` the Weyl criterion's are its
    # worker's.  Printed by ``line``, not written by ``verify --out``.
    cpu_seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        info = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{status}] {self.name} ({self.seconds:.1f}s, cpu {self.cpu_seconds:.1f}s) {info}"


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> CriterionResult:
        start, cpu_start = time.perf_counter(), time.process_time()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - start
        result.cpu_seconds = time.process_time() - cpu_start
        return result

    return wrapper


@_timed
def check_salie_identity(q_max: int = 200) -> CriterionResult:
    """Direct Salie sums equal the closed form within IDENTITY_BUDGET*sqrt(q) and vanish where
    (mn/q) = -1, at every pair m, n: exhaustive by exact substitution (``salie_all``)."""
    from .expsums import IDENTITY_BUDGET, salie_all

    worst = 0.0
    worst_vanish = 0.0
    for q in primes_between(3, q_max).tolist():
        err, vanish = salie_all(q)
        worst = max(worst, err / math.sqrt(q))
        worst_vanish = max(worst_vanish, vanish / math.sqrt(q))
    ok = worst <= IDENTITY_BUDGET and worst_vanish <= IDENTITY_BUDGET
    return CriterionResult(
        "salie evaluation identity",
        ok,
        {"max_err_over_sqrtq": f"{worst:.2e}", "max_vanish": f"{worst_vanish:.2e}"},
    )


@_timed
def check_gauss_identity(q_max: int = 200) -> CriterionResult:
    """Direct Gauss sums equal the closed form and have modulus sqrt(q) within
    IDENTITY_BUDGET*sqrt(q), at every pair a, b: exhaustive by exact substitution (``gauss_all``)."""
    from .expsums import IDENTITY_BUDGET, gauss_all

    worst = 0.0
    worst_mod = 0.0
    for q in primes_between(3, q_max).tolist():
        err, modulus_err = gauss_all(q)
        worst = max(worst, err / math.sqrt(q))
        worst_mod = max(worst_mod, modulus_err / math.sqrt(q))
    ok = worst <= IDENTITY_BUDGET and worst_mod <= IDENTITY_BUDGET
    return CriterionResult(
        "gauss evaluation identity",
        ok,
        {"max_err_over_sqrtq": f"{worst:.2e}", "max_modulus_err": f"{worst_mod:.2e}"},
    )


@_timed
def check_energy_identity(q_max: int = 101) -> CriterionResult:
    """Sum-histogram energy equals sum of Q_lambda^2, with the pinned instance: exhaustive
    by exact substitution.

    For t invertible, u -> t u maps the squares of j to those of j t^2 and
    each pair's key u + sign * v to t times it, so both groupings of every
    window depend on j only through its square class.  Both are computed,
    each from one pass over the pairs of F_q, for j = 1 and the least
    non-residue, and each class's cells and mismatches count (q - 1)/2 times.
    """
    from .modular import least_nonresidue
    from .weights import q_fourth_moment_indicator, unweighted_energy, window_energies

    mismatches = 0
    cells = 0
    for q in primes_between(3, q_max).tolist():
        for j in (1, least_nonresidue(q)):
            sums = window_energies(q, j, 1)
            diffs = window_energies(q, j, -1)
            cells += sums.size * (q - 1) // 2
            mismatches += int(np.count_nonzero(sums != diffs)) * (q - 1) // 2
    pinned = unweighted_energy(1, 5, 1) == 6 and q_fourth_moment_indicator(5, 1, 1) == 2
    return CriterionResult(
        "energy identity",
        mismatches == 0 and pinned,
        {"cells": cells, "mismatches": mismatches, "pinned_instance": pinned},
    )


@_timed
def check_small_energy_bound(**grid) -> CriterionResult:
    """Unweighted energy stays below the frozen multiple of N^6/q + N^2."""
    from .weights import small_energy_sweep, unweighted_energy

    rows = small_energy_sweep(**grid)
    worst = calibration.worst(rows, "small_energy")
    limit = calibration.frozen("small_energy")
    pinned = unweighted_energy(1, 5) == 6
    return CriterionResult(
        "small-interval energy bound",
        worst <= limit and pinned,
        {"cells": len(rows), "max_ratio": f"{worst:.4f}", "frozen": limit},
    )


@_timed
def check_weyl_envelopes(**grid) -> CriterionResult:
    """|W| stays below both frozen envelope multiples over the seeded grid."""
    from .bilinear import weyl_sweep

    # one pass over the sweep's iterator: one (q, M, N) group of rows is held at a time
    cells, worst = calibration.scan(weyl_sweep(**grid), ("weyl_envelope1", "weyl_envelope2"))
    worst1, worst2 = worst["weyl_envelope1"], worst["weyl_envelope2"]
    lim1 = calibration.frozen("weyl_envelope1")
    lim2 = calibration.frozen("weyl_envelope2")
    return CriterionResult(
        "bilinear weyl-sum envelopes",
        worst1 <= lim1 and worst2 <= lim2,
        {
            "cells": cells,
            "max_ratio1": f"{worst1:.4f}",
            "frozen1": lim1,
            "max_ratio2": f"{worst2:.4f}",
            "frozen2": lim2,
        },
    )


@_timed
def check_congruence_dichotomy() -> CriterionResult:
    """Every sampled cell is dense or reconstructible within the frozen constant,
    and Minkowski's inequality holds on every instance."""
    from .lattice import dichotomy_sweep

    rows = dichotomy_sweep()
    worst = calibration.worst(rows, "congruence_dichotomy")
    limit = calibration.frozen("congruence_dichotomy")
    minkowski_ok = all(r["minkowski_ok"] for r in rows)
    return CriterionResult(
        "congruence dichotomy",
        worst <= limit and minkowski_ok,
        {
            "samples": len(rows),
            "max_constant": f"{worst:.3f}",
            "frozen": limit,
            "minkowski_ok": minkowski_ok,
        },
    )


@_timed
def check_curve_sum_bound() -> CriterionResult:
    """Completed kernel sums stay O(q) and variety counts stay within C*sqrt(q) of A(c)*q."""
    from .bilinear import curve_sweep

    rows = curve_sweep()
    worst_sigma = calibration.worst(rows, "curve_sum")
    worst_dev = calibration.worst(rows, "variety_deviation")
    lim_sigma = calibration.frozen("curve_sum")
    lim_dev = calibration.frozen("variety_deviation")
    return CriterionResult(
        "curve-sum bound",
        worst_sigma <= lim_sigma and worst_dev <= lim_dev,
        {
            "quadruples": len(rows),
            "max_sigma_over_q": f"{worst_sigma:.3f}",
            "frozen_sigma": lim_sigma,
            "max_variety_dev": f"{worst_dev:.3f}",
            "frozen_dev": lim_dev,
        },
    )


@_timed
def check_effective_split_count(**grid) -> CriterionResult:
    """Every q = 3 (mod 16) in [67, q_max] beats the effective bound; all factors split."""
    from .splitprimes import effective_split_count, effective_sweep

    reports = effective_sweep(**grid)  # raises on any non-split factor
    fails = [r.q for r in reports if not r.passed]
    first = effective_split_count(67)
    pinned = first.omega >= 6 and first.omega > first.bound and abs(first.bound - 0.4618) < 5e-4
    return CriterionResult(
        "effective split-prime count",
        not fails and pinned,
        {
            "moduli": len(reports),
            "failures": len(fails),
            "q67_omega": first.omega,
            "q67_bound": f"{first.bound:.4f}",
        },
    )


@_timed
def check_class_numbers(**grid) -> CriterionResult:
    """h(-7) = 1, h(-23) = 3, and for all q = 3 (mod 4) enumeration matches the
    finite formula and the convergent series, whose rounding its stated bound certifies."""
    from .quadforms import class_number, class_number_consistency_sweep

    pinned = class_number(7) == 1 and class_number(23) == 3
    rows = class_number_consistency_sweep(**grid)
    disagreements = sum(1 for r in rows if not r["agrees"])
    return CriterionResult(
        "class numbers",
        pinned and disagreements == 0,
        {"pinned": pinned, "moduli": len(rows), "disagreements": disagreements},
    )


@_timed
def check_heegner_window(count: int = 50) -> CriterionResult:
    """Mean window fraction near 27/(10 pi), and the coefficient bound exactly."""
    from .quadforms import DUKE_LIMIT_FRACTION, form_moduli, forms_in_window, heegner_fraction

    fractions = []
    coeff_ok = True
    for q in form_moduli(10**5, count):  # one pass per modulus, while its forms are cached
        fractions.append(heegner_fraction(q))
        bound = (20.0 / 3.0) * math.sqrt(q)
        coeff_ok &= all(max(abs(f.a), abs(f.b), abs(f.c)) <= bound for f in forms_in_window(q))
    mean = float(np.mean(fractions))
    dev = abs(mean - DUKE_LIMIT_FRACTION)
    return CriterionResult(
        "heegner window fraction",
        dev <= 0.05 and coeff_ok,
        {"mean": f"{mean:.4f}", "target": f"{DUKE_LIMIT_FRACTION:.4f}", "coeff_bound_ok": coeff_ok},
    )


@_timed
def check_discrepancy_engine(multisets: int = 500, q_max: int = 2003, h_max: int = 200) -> CriterionResult:
    """Sweep formula equals the endpoint oracle; Erdos-Turan holds for every root sequence.

    A root sequence's points are t/q, so its exact discrepancy and its |S_h|
    (one FFT) both come from its integer root counts.
    """
    from .equidist import (
        count_discrepancy,
        discrepancy,
        discrepancy_oracle,
        erdos_turan_bound,
        grid_exponential_sums,
        prime_root_counts,
    )

    rng = np.random.default_rng(123)
    worst_gap = 0.0
    for _ in range(multisets):
        n = int(rng.integers(1, 201))
        pts = rng.random(n)
        if n > 3 and rng.random() < 0.5:
            k = int(rng.integers(1, n // 2))
            pts[:k] = pts[n - k : n]
        worst_gap = max(worst_gap, abs(discrepancy(pts).value - discrepancy_oracle(pts)))

    et_violations = 0
    sequences = 0
    for q in primes_between(5, q_max).tolist():
        counts = prime_root_counts(q, q)
        if not counts.any():
            continue
        sequences += 1
        d_val = count_discrepancy(counts)[0] / q
        bounds = erdos_turan_bound(grid_exponential_sums(counts, h_max), int(counts.sum()))
        if np.any(d_val > bounds * (1 + 1e-12) + 1e-9):
            et_violations += 1
    passed = worst_gap <= 1e-12 and et_violations == 0
    return CriterionResult(
        "discrepancy engine",
        passed,
        {
            "oracle_gap": f"{worst_gap:.2e}",
            "sequences": sequences,
            "et_violations": et_violations,
        },
    )


@_timed
def check_mean_value(**grid) -> CriterionResult:
    """|sum_{n<=q} r(n) - L(1,chi) q| / q <= 0.05, read from the x = q rows of r_mean_sweep."""
    from .quadforms import r_mean_sweep

    devs = {r["q"]: r["ratio_linear"] for r in r_mean_sweep(**grid) if r["x"] == r["q"]}
    worst = max(devs.values())
    return CriterionResult(
        "representation mean value",
        worst <= 0.05,
        {f"dev_q{q}": f"{d:.4f}" for q, d in devs.items()},
    )


ALL_CRITERIA = (
    check_salie_identity,
    check_gauss_identity,
    check_energy_identity,
    check_small_energy_bound,
    check_weyl_envelopes,
    check_congruence_dichotomy,
    check_curve_sum_bound,
    check_effective_split_count,
    check_class_numbers,
    check_heegner_window,
    check_discrepancy_engine,
    check_mean_value,
)

_QUICK_OVERRIDES = {
    "check_salie_identity": {"q_max": 101},
    "check_gauss_identity": {"q_max": 101},
    "check_energy_identity": {"q_max": 31},
    "check_small_energy_bound": {"q_max": 101},
    "check_weyl_envelopes": {"q_values": (101, 211), "instances": 5},
    "check_effective_split_count": {"q_max": 1000},
    "check_class_numbers": {"q_max": 500},
    "check_heegner_window": {"count": 5},
    "check_discrepancy_engine": {"multisets": 50, "q_max": 211, "h_max": 50},
}

# The criterion run in a forked worker: this module's own function only, so that a
# wrapper put in its place in ``ALL_CRITERIA`` runs in the calling process and sees
# all of its work.  Held in a tuple, which a rebinding of module names leaves alone.
_WORKER_CRITERIA = (check_weyl_envelopes,)


@contextlib.contextmanager
def _worker(check, kwargs: dict):
    """Run ``check(**kwargs)`` in a forked child; yields a function that waits for
    its CriterionResult.

    The child prints nothing: it pickles ("ok", result) or ("err", exception)
    into a pipe and ends with ``os._exit``, so it never returns into its
    caller's stack.  An exception whose pickle cannot be read back is sent as
    a RuntimeError carrying its repr.  The function raises the child's
    exception again, or a RuntimeError naming the criterion and the wait
    status if the child ended without a result.  On leaving the context a
    child still running is killed; the child is always reaped.  Where no pipe
    or no process can be had (``os.pipe`` or ``os.fork`` raises OSError, say
    under a process limit), the function runs ``check`` in the calling
    process instead, when it is called.

    The fork copies only the calling thread; numpy's OpenBLAS shuts its
    thread pool down before a fork (its ``pthread_atfork`` handler) and starts
    it again when next needed, on each side.
    """
    import os
    import pickle
    import signal

    fds = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        yield functools.partial(check, **kwargs)
        return
    read_fd, write_fd = fds
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = ("ok", check(**kwargs))
            except BaseException as exc:  # sent to the parent, which raises it again
                payload = ("err", exc)
            try:
                data = pickle.dumps(payload)
                pickle.loads(data)
            except Exception:
                data = pickle.dumps(("err", RuntimeError(repr(payload[1]))))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    status = None

    def result() -> CriterionResult:
        nonlocal status
        with open(read_fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        if status or not data:
            code = os.waitstatus_to_exitcode(status)
            ended = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise RuntimeError(
                f"{check.__name__} ended in its worker without a result (wait status {status}, {ended})"
            )
        kind, value = pickle.loads(data)
        if kind == "err":
            raise value
        return value

    try:
        yield result
    finally:
        os.close(read_fd)
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run every criterion, printing one line per result, in ``ALL_CRITERIA`` order.

    Quick mode shrinks the grids for a fast smoke run; it exercises the same
    code paths but is not the acceptance gate.  The bound criteria compare
    against the same frozen constants either way: their ratios are grid
    maxima, so a sub-grid stays below the limits frozen on the full grid.

    Where ``os.sched_getaffinity`` reports two CPUs or more, the battery runs
    in two lanes: ``check_weyl_envelopes``, about half of it and reading only
    ``calibration`` and ``bilinear``, in a forked child (``_worker``), the
    other criteria here, in order, at the same time.  The lines before the
    Weyl criterion's print as each criterion ends; its line and the ones after
    it print together, once both lanes have ended.  Elsewhere every criterion
    runs here, each line printed as it ends.  The count is the affinity mask's
    alone: a CPU quota (a cgroup's ``cpu.max``) below two CPUs is not seen, and
    there the two lanes cost the fork and the worker's CPU for no wall time.
    A wrapper around the Weyl criterion in ``ALL_CRITERIA`` (a tracer's, say)
    runs here too, so that it sees all of the criterion's work.  The results and
    lines are those of a serial run apart from the timings: a result's
    ``seconds`` and ``cpu_seconds`` are measured in the process that ran its
    criterion.  An exception in either lane is raised here.
    """
    import os

    import numpy.random  # noqa: F401  (both lanes use it: imported before the fork, it is paid once)

    def kwargs(check) -> dict:
        return _QUICK_OVERRIDES.get(check.__name__, {}) if quick else {}

    two_lanes = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    forked = next((check for check in ALL_CRITERIA if two_lanes and check in _WORKER_CRITERIA), None)
    results: list[CriterionResult | None] = []
    with (_worker(forked, kwargs(forked)) if forked else contextlib.nullcontext()) as worker:
        for check in ALL_CRITERIA:
            if check is forked:
                results.append(None)
                continue
            results.append(check(**kwargs(check)))
            if None not in results:
                print(results[-1].line(), flush=True)
        if forked is not None:
            at = results.index(None)
            results[at] = worker()
            for result in results[at:]:
                print(result.line(), flush=True)
    return results

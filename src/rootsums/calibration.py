"""Frozen calibration constants for every calibrated-ratio bound check.

Asymptotic bounds with inexplicit constants are tested by measuring the
worst measured/envelope ratio over a fixed, seeded grid and freezing that
value (with 15% headroom) into ``calibration.json``, which ships with the
package.  Tests then rerun the identical deterministic grid and assert the
measured maximum never exceeds the frozen constant.

Each family's grid is the default arguments of its sweep in ``FAMILIES``;
nothing else restates it.  A sweep's rows are read once, as a list or an
iterator (``scan``), so a streamed sweep is never held whole.

The fixture is only ever rewritten explicitly, via
``rootsums verify --recalibrate`` or :func:`recalibrate`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from collections.abc import Iterable
from importlib import resources
from pathlib import Path

# (log q)^SLACK_EXPONENT stands in for every q^{o(1)} factor of the paper's
# bounds (weights.slack_factor); each constant is frozen at this exponent.
SLACK_EXPONENT = 2.0
HEADROOM = 1.15
# Frozen constants are rounded up to this many significant digits.
FROZEN_DIGITS = 4

# Family name -> (sweep, ratio keys).  The sweep is named "module.function" and
# imported only when it runs; its measured value is the largest of the named
# keys over all of its rows.
FAMILIES = {
    "incomplete_sqrt": ("expsums.incomplete_sqrt_sweep", ("ratio",)),
    "small_energy": ("weights.small_energy_sweep", ("ratio",)),
    "fourth_moment": ("weights.fourth_moment_sweep", ("ratio",)),
    "energy_short": ("weights.weighted_energy_sweep", ("ratio_short",)),
    "energy_long": ("weights.weighted_energy_sweep", ("ratio_long",)),
    "congruence_dichotomy": ("lattice.dichotomy_sweep", ("needed",)),
    "weyl_envelope1": ("bilinear.weyl_sweep", ("ratio1",)),
    "weyl_envelope2": ("bilinear.weyl_sweep", ("ratio2",)),
    "curve_sum": ("bilinear.curve_sweep", ("max_sigma_over_q",)),
    "variety_deviation": ("bilinear.curve_sweep", ("dev_u", "dev_w")),
    "type1_envelope": ("bilinear.type1_sweep", ("ratio",)),
    "salie_correlation1": ("bilinear.salie_correlation_sweep", ("ratio1",)),
    "salie_correlation2": ("bilinear.salie_correlation_sweep", ("ratio2",)),
    "root_discrepancy": ("equidist.gamma_sweep", ("ratio",)),
    "product_discrepancy": ("equidist.product_discrepancy_sweep", ("ratio",)),
    "r_mean_power": ("quadforms.r_mean_sweep", ("ratio_power",)),
}

def scan(rows: Iterable[dict], names: Iterable[str]) -> tuple[int, dict[str, float]]:
    """The number of ``rows`` and the worst ratio of each family in ``names``,
    in one pass: ``rows`` may be any iterable, a sweep's iterator included.
    No rows raise ValueError, since no worst ratio was measured."""
    pairs = [(name, key) for name in names for key in FAMILIES[name][1]]
    maxima = {name: -math.inf for name, _ in pairs}
    count = 0
    for count, row in enumerate(rows, 1):
        for name, key in pairs:
            if row[key] > maxima[name]:
                maxima[name] = row[key]
    if not count:
        raise ValueError("no rows to scan")
    return count, maxima


def worst(rows: Iterable[dict], name: str) -> float:
    """The measured value of family ``name`` over sweep rows: its worst ratio."""
    return scan(rows, (name,))[1][name]


def _run_sweep(sweep: str) -> Iterable[dict]:
    module, function = sweep.split(".")
    return getattr(importlib.import_module(f".{module}", __package__), function)()


def _fixture_path() -> Path:
    return Path(str(resources.files("rootsums").joinpath("calibration.json")))


@functools.cache
def load() -> dict:
    """The calibration fixture as a dict (cached after the first read)."""
    with _fixture_path().open() as fh:
        return json.load(fh)


def frozen(name: str) -> float:
    """The frozen constant for a named bound family."""
    constants = load()["constants"]
    if name not in constants:
        raise KeyError(f"no frozen constant named {name!r}; run verify --recalibrate")
    return float(constants[name]["frozen"])


def _round_up(value: float) -> float:
    if value == 0.0:
        return 0.0
    scale = 10.0 ** (FROZEN_DIGITS - 1 - math.floor(math.log10(abs(value))))
    return math.ceil(value * scale) / scale


def recalibrate(out_path: str | Path | None = None) -> dict:
    """Re-run every sweep once and rewrite the fixture file with exactly the
    ``FAMILIES`` constants; a family no longer listed there is dropped.

    Frozen values get 15% headroom over the measured maxima so that harmless
    floating-point jitter across platforms never flips a check.  ``measured``
    is stored at 12 significant digits, as the CSV writes floats, so that a
    rerun on another machine rewrites the same bytes; ``frozen`` is computed
    from the unrounded value.
    """
    path = Path(out_path) if out_path else _fixture_path()
    constants = {}
    by_sweep: dict[str, list[str]] = {}
    for name, (sweep, _) in FAMILIES.items():
        by_sweep.setdefault(sweep, []).append(name)
    for sweep, names in by_sweep.items():
        _, maxima = scan(_run_sweep(sweep), names)  # one pass serves every family of the sweep
        for name, measured in maxima.items():
            constants[name] = {
                "frozen": _round_up(measured * HEADROOM),
                "measured": float(f"{measured:.12g}"),
            }
    payload = {
        "generated_by": "rootsums verify --recalibrate",
        "slack_exponent": SLACK_EXPONENT,
        "headroom": HEADROOM,
        "constants": dict(sorted(constants.items())),
    }
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    load.cache_clear()
    return payload

"""Frozen constants that no acceptance criterion gates, checked on their own grids."""

import math

import pytest

from rootsums import calibration
from rootsums.weights import slack_factor

UNGATED = [
    "incomplete_sqrt",
    "fourth_moment",
    "energy_short",
    "energy_long",
    "type1_envelope",
    "salie_correlation1",
    "salie_correlation2",
    "root_discrepancy",
    "product_discrepancy",
    "r_mean_power",
]


@pytest.mark.parametrize("name", UNGATED)
def test_worst_ratio_within_frozen(name):
    rows = calibration._run_sweep(calibration.FAMILIES[name][0])
    assert calibration.worst(rows, name) <= calibration.frozen(name)


def test_fixture_holds_exactly_the_families():
    assert set(calibration.load()["constants"]) == set(calibration.FAMILIES)


def test_fixture_was_frozen_at_the_slack_in_use():
    """Every constant was frozen at the one (log q)^SLACK_EXPONENT stand-in and headroom."""
    fixture = calibration.load()
    assert fixture["slack_exponent"] == calibration.SLACK_EXPONENT
    assert fixture["headroom"] == calibration.HEADROOM
    for q in (5, 101, 10007):
        assert slack_factor(q) == math.log(q) ** calibration.SLACK_EXPONENT


def test_scan_reads_rows_once():
    """One pass over an iterator gives the row count and every family's worst ratio, over
    all of a family's keys; no rows raise, as no worst ratio was measured."""
    rows = [{"ratio1": 0.5, "ratio2": 0.1, "dev_u": 1.0, "dev_w": 3.0},
            {"ratio1": 0.2, "ratio2": 0.7, "dev_u": 2.0, "dev_w": 0.5}]
    names = ("weyl_envelope1", "weyl_envelope2", "variety_deviation")
    assert calibration.scan(iter(rows), names) == (
        2, {"weyl_envelope1": 0.5, "weyl_envelope2": 0.7, "variety_deviation": 3.0}
    )
    assert calibration.worst(iter(rows), "weyl_envelope2") == 0.7
    with pytest.raises(ValueError, match="no rows"):
        calibration.worst(iter([]), "weyl_envelope1")

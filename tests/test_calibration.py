"""Frozen constants that no acceptance criterion gates, checked on their own grids."""

import pytest

from rootsums import calibration

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

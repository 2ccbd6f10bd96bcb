"""Frozen constants that no acceptance criterion gates, checked on their own grids."""

import pytest

from rootsums import calibration


@pytest.mark.parametrize("name", ["root_discrepancy", "product_discrepancy", "r_mean_power"])
def test_worst_ratio_within_frozen(name):
    rows = calibration._run_sweep(calibration.FAMILIES[name][0])
    assert calibration.worst(rows, name) <= calibration.frozen(name)

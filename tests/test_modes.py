import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from penning_gyro.core import CA40, TrapConfig
from penning_gyro.modes import (
    UnstableTrapError,
    compute_modes,
    freq_difference_sweep,
    write_sweep_csv,
)

from instruments import max_stable_voltage


def test_mode_triplet_10v(modes10):
    assert modes10.f_m == pytest.approx(8.13e3, rel=0.01)
    assert modes10.f_z == pytest.approx(78.2e3, rel=0.01)
    assert modes10.f_cap_m == pytest.approx(376.1e3, rel=0.01)
    assert modes10.f_c == pytest.approx(384.26e3, rel=0.001)


def test_mode_ordering(modes100):
    assert modes100.omega_m < modes100.omega_z < modes100.omega_cap_m < modes100.omega_c


def test_unstable_raises():
    with pytest.raises(UnstableTrapError):
        compute_modes(CA40, TrapConfig(1.0, 125.0, 0.01))


def test_stability_margin_positive_at_the_edge():
    # at the edge voltage and its two floating-point neighbours round-off
    # decides the sign of omega_c^2 - 2 omega_z^2; wherever compute_modes
    # returns modes, their margin must not round to zero or below
    returned = 0
    for b in np.linspace(0.5, 3.0, 200).tolist():
        v_edge = max_stable_voltage(CA40, b, 0.01)
        for v in (math.nextafter(v_edge, 0.0), v_edge,
                  math.nextafter(v_edge, math.inf)):
            try:
                modes = compute_modes(CA40, TrapConfig(b, v, 0.01))
            except UnstableTrapError:
                continue
            returned += 1
            assert modes.stability_margin > 0.0, (b, v, modes.stability_margin)
    assert returned > 0


@given(st.floats(min_value=0.5, max_value=5.0),
       st.floats(min_value=1e-4, max_value=0.999))
def test_frequency_identities(b, v_frac):
    trap = TrapConfig(b, v_frac * max_stable_voltage(CA40, b, 0.01), 0.01)
    m = compute_modes(CA40, trap)
    assert m.omega_m + m.omega_cap_m == pytest.approx(m.omega_c, rel=1e-12)
    assert m.omega_m * m.omega_cap_m == pytest.approx(m.omega_z ** 2 / 2.0,
                                                      rel=1e-12)


def test_sweep_order_and_gaps():
    points = freq_difference_sweep(CA40, 0.01, [2.0, 1.0], [50.0, 100.0, 130.0])
    assert [(p.b_field, p.voltage) for p in points] == [
        (1.0, 50.0), (1.0, 100.0), (1.0, 130.0),
        (2.0, 50.0), (2.0, 100.0), (2.0, 130.0)]
    by_key = {(p.b_field, p.voltage): p.fz_minus_fm for p in points}
    assert by_key[(1.0, 130.0)] is None        # unstable at 1 T
    assert by_key[(2.0, 130.0)] is not None    # stable at 2 T
    for value in by_key.values():
        if value is not None:
            assert value > 0.0


def test_sweep_all_unstable_warns():
    with pytest.warns(UserWarning):
        points = freq_difference_sweep(CA40, 0.01, [1.0], [200.0, 300.0])
    assert all(p.fz_minus_fm is None for p in points)


def test_sweep_empty_grid_rejected():
    with pytest.raises(ValueError):
        freq_difference_sweep(CA40, 0.01, [], [10.0])


def test_sweep_csv_schema(tmp_path):
    points = freq_difference_sweep(CA40, 0.01, [1.0], [10.0, 130.0])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "b_tesla,v_volts,fz_minus_fm_hz"
    assert lines[2].endswith(",")  # gap row has an empty value
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[1] == ["1.0", "130.0", ""]
    assert float(rows[0][2]) == points[0].fz_minus_fm


def test_hz_properties_are_angular_over_2pi(modes100):
    assert modes100.f_z == pytest.approx(modes100.omega_z / (2 * math.pi),
                                         rel=1e-15)

import math

import pytest
from hypothesis import given, strategies as st

from penning_gyro.response import (
    OscillatorParams,
    rotation_scale_factor,
    transfer_gain,
    z_amplitude,
)

OMEGA_Z = 2.0 * math.pi * 247.3e3


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(omega_z=-1.0, omega_r=1.0, quality_factor=10.0)
    with pytest.raises(ValueError):
        OscillatorParams(omega_z=1.0, omega_r=1.0, quality_factor=0.0)


def test_zeta_from_q():
    p = OscillatorParams(omega_z=1.0, omega_r=1.0, quality_factor=50.0)
    assert p.zeta == pytest.approx(0.01)
    undamped = OscillatorParams(omega_z=1.0, omega_r=0.5,
                                quality_factor=math.inf)
    assert undamped.zeta == 0.0


def test_gain_resonance_equals_q():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    assert transfer_gain(p) == pytest.approx(1e6, rel=1e-9)


def test_gain_static_limit():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=1e-6 * OMEGA_Z,
                         quality_factor=1e4)
    assert transfer_gain(p) == pytest.approx(1.0, rel=1e-9)


@given(st.floats(min_value=0.01, max_value=0.9),
       st.floats(min_value=1.0, max_value=1e7))
def test_gain_below_resonance_bounded(ratio, q):
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=ratio * OMEGA_Z,
                         quality_factor=q)
    g = transfer_gain(p)
    assert 1.0 <= g <= 1.0 / (1.0 - ratio ** 2) + 1e-9


def test_resonant_amplitude_anchor():
    # Omega = 1 rad/s, Y = 0.022 cm, Q = 1e6 at the 247 kHz axial mode
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    assert z_amplitude(1.0, 0.022e-2, p) == pytest.approx(0.028e-2, rel=0.05)
    assert rotation_scale_factor(0.022e-2, p) == pytest.approx(0.014e-2, rel=0.05)


def test_amplitude_linear_in_rotation():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=0.3 * OMEGA_Z,
                         quality_factor=1e5)
    a1 = z_amplitude(1.0, 1e-4, p)
    a5 = z_amplitude(5.0, 1e-4, p)
    assert a5 == pytest.approx(5.0 * a1, rel=1e-12, abs=0)
    # sign of the rotation does not change the magnitude
    assert z_amplitude(-1.0, 1e-4, p) == pytest.approx(a1, rel=1e-12, abs=0)


def test_cloud_average_is_half_outermost():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    assert rotation_scale_factor(2.2e-4, p) == 0.5 * z_amplitude(1.0, 2.2e-4, p)


def test_scale_factor_matches_unit_rotation():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    scale = rotation_scale_factor(2.2e-4, p)
    assert scale == pytest.approx(1e6 * 2.2e-4 / OMEGA_Z, rel=1e-9)


def test_bad_inputs_rejected():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    with pytest.raises(ValueError):
        z_amplitude(1.0, -1e-4, p)
    with pytest.raises(ValueError):
        rotation_scale_factor(0.0, p)

import math

import pytest
from hypothesis import given, strategies as st

from penning_gyro.core import RotationInput
from penning_gyro.dynamics import (
    IntegratorConfig,
    default_time_step,
    integrate,
    magnetron_orbit_state,
)
from penning_gyro.response import OscillatorParams, rotation_scale_factor

from instruments import driven_amplitude

OMEGA_Z = 2.0 * math.pi * 247.3e3


def gain(p: OscillatorParams) -> float:
    """Magnification G = 1/sqrt((1-g^2)^2 + (2 zeta g)^2), g = omega_r/omega_z."""
    g = p.omega_r / p.omega_z
    return 1.0 / math.hypot(1.0 - g * g, 2.0 * p.zeta * g)


def gain_of(scale: float, r_cl: float, p: OscillatorParams) -> float:
    """G read back from a scale factor, half of Z at r_cl: omega_r G r_cl / omega_z^2."""
    return scale * p.omega_z ** 2 / (p.omega_r * r_cl)


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(omega_z=-1.0, omega_r=1.0, quality_factor=10.0)
    with pytest.raises(ValueError):
        OscillatorParams(omega_z=1.0, omega_r=1.0, quality_factor=0.0)


def test_zeta_from_q():
    p = OscillatorParams(omega_z=1.0, omega_r=1.0, quality_factor=50.0)
    assert p.zeta == pytest.approx(0.01)
    # Q is finite: an undamped oscillator is not a valid input
    with pytest.raises(ValueError, match="quality_factor"):
        OscillatorParams(omega_z=1.0, omega_r=0.5, quality_factor=math.inf)
    # ... and no finite Q gives zeta = 0, whose gain at resonance is unbounded
    assert OscillatorParams(omega_z=1.0, omega_r=1.0, quality_factor=1e308).zeta > 0.0


def test_gain_resonance_equals_q():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    assert gain_of(rotation_scale_factor(2.2e-4, p), 2.2e-4, p) == pytest.approx(1e6, rel=1e-9)


def test_gain_static_limit():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=1e-6 * OMEGA_Z,
                         quality_factor=1e4)
    assert gain_of(rotation_scale_factor(2.2e-4, p), 2.2e-4, p) == pytest.approx(1.0, rel=1e-9)


@given(st.floats(min_value=0.01, max_value=0.9),
       st.floats(min_value=1.0, max_value=1e7))
def test_gain_below_resonance_bounded(ratio, q):
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=ratio * OMEGA_Z,
                         quality_factor=q)
    g = gain_of(rotation_scale_factor(2.2e-4, p), 2.2e-4, p)
    assert 1.0 <= g <= 1.0 / (1.0 - ratio ** 2) + 1e-9


def test_resonant_amplitude_anchor():
    # Omega = 1 rad/s, Y = 0.022 cm, Q = 1e6 at the 247 kHz axial mode
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    assert 2.0 * rotation_scale_factor(0.022e-2, p) == pytest.approx(0.028e-2, rel=0.05)
    assert rotation_scale_factor(0.022e-2, p) == pytest.approx(0.014e-2, rel=0.05)


def test_amplitude_linear_in_rotation(ca40, trap10, modes10):
    # the integrated ion of criterion 8 (10 V, 25 um magnetron orbit, driven
    # at omega_m): its axial response scales with |Omega_x|, which is what
    # lets one scale factor per rad/s stand for every rotation rate
    state0 = magnetron_orbit_state(25e-6, modes10)
    cfg = IntegratorConfig(time_step=default_time_step(ca40, trap10),
                           total_time=3.0 * 2.0 * math.pi / modes10.omega_m)

    def measured(omega_x):
        traj = integrate(state0, ca40, trap10, RotationInput(omega_x), cfg)
        return driven_amplitude(traj, modes10.omega_m)

    a1 = measured(1.0)
    assert measured(5.0) == pytest.approx(5.0 * a1, rel=1e-9, abs=0)
    # sign of the rotation does not change the magnitude
    assert measured(-1.0) == pytest.approx(a1, rel=1e-12, abs=0)
    # off resonance Q = 1e12 gives the undamped gain of the integrator's ion
    high_q = OscillatorParams(omega_z=modes10.omega_z, omega_r=modes10.omega_m,
                              quality_factor=1e12)
    assert a1 == pytest.approx(2.0 * rotation_scale_factor(25e-6, high_q), rel=0.05)


def test_cloud_average_is_half_outermost():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    # the outermost ion, at Y = r_cl, moves by Z = (2 omega_r / omega_z^2) G Y
    outermost = (2.0 * p.omega_r * gain(p) / p.omega_z ** 2) * 2.2e-4
    assert rotation_scale_factor(2.2e-4, p) == 0.5 * outermost


def test_scale_factor_matches_unit_rotation():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    scale = rotation_scale_factor(2.2e-4, p)
    assert scale == pytest.approx(1e6 * 2.2e-4 / OMEGA_Z, rel=1e-9)


def test_bad_inputs_rejected():
    p = OscillatorParams(omega_z=OMEGA_Z, omega_r=OMEGA_Z, quality_factor=1e6)
    with pytest.raises(ValueError):
        rotation_scale_factor(-1e-4, p)
    with pytest.raises(ValueError):
        rotation_scale_factor(0.0, p)

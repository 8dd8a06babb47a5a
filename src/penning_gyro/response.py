"""Driven-damped oscillator transfer from rotation rate to axial amplitude.

The axial mode is a damped harmonic oscillator with spring constant
k_z = m omega_z^2 driven by the Coriolis force at the crystal rotation
frequency; Q is an input (the damping mechanism behind it is not modeled).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OscillatorParams:
    omega_z: float          # rad/s
    omega_r: float          # rad/s, drive (crystal rotation) frequency
    quality_factor: float   # Q = 1/(2 zeta); math.inf allowed (undamped)

    def __post_init__(self):
        if not (0.0 < self.omega_z < math.inf and 0.0 < self.omega_r < math.inf):
            raise ValueError("omega_z and omega_r must be positive and finite")
        if not 0.0 < self.quality_factor <= math.inf:
            raise ValueError("quality_factor must be positive (math.inf allowed)")

    @property
    def zeta(self) -> float:
        return 0.0 if math.isinf(self.quality_factor) else 1.0 / (2.0 * self.quality_factor)

    @property
    def gamma_ratio(self) -> float:
        """Drive-to-resonance frequency ratio."""
        return self.omega_r / self.omega_z


def transfer_gain(params: OscillatorParams) -> float:
    """Dimensionless magnification 1/sqrt((1-G^2)^2 + (2 zeta G)^2)."""
    g = params.gamma_ratio
    z = params.zeta
    denominator = math.hypot(1.0 - g * g, 2.0 * z * g)
    if denominator == 0.0:  # only Q = inf at omega_r = omega_z reaches zero
        raise ValueError("quality_factor is inf at resonance: an undamped "
                         "oscillator driven at resonance has unbounded gain")
    return 1.0 / denominator


def z_amplitude(omega_x: float, y_amp: float, params: OscillatorParams) -> float:
    """Axial amplitude in m of one ion whose radial projection amplitude is y_amp.

    Z = (2 omega_r / omega_z^2) * gain * |Omega_x| * Y; at resonance this
    reduces exactly to Z = (2 Q / omega_z) * Omega_x * Y.
    """
    if not -math.inf < omega_x < math.inf:
        raise ValueError("omega_x must be finite")
    if not 0.0 <= y_amp < math.inf:
        raise ValueError("y_amp must be non-negative and finite")
    return (2.0 * params.omega_r * transfer_gain(params)
            / params.omega_z ** 2) * abs(omega_x) * y_amp


def rotation_scale_factor(r_cl: float, params: OscillatorParams) -> float:
    """Cloud-average axial amplitude per unit rotation rate, m per rad/s.

    The cloud average is half of the outermost-ion amplitude.  (A uniform
    disk's mean radius would be 2 r_cl/3; the half-the-outermost rule is
    kept deliberately as the cruder but standard bookkeeping.)
    """
    if not 0.0 < r_cl < math.inf:
        raise ValueError("r_cl must be positive and finite")
    return 0.5 * z_amplitude(1.0, r_cl, params)

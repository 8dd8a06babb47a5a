"""Driven-damped oscillator transfer from rotation rate to axial amplitude.

The axial mode is a damped harmonic oscillator with spring constant
k_z = m omega_z^2 driven by the Coriolis force at the crystal rotation
frequency; Q is an input (the damping mechanism behind it is not modeled).
"""
from __future__ import annotations

import math

from .core import Positive, Record


class OscillatorParams(Record):
    omega_z: Positive          # rad/s
    omega_r: Positive          # rad/s, drive (crystal rotation) frequency
    quality_factor: Positive   # Q = 1/(2 zeta)

    @property
    def zeta(self) -> float:
        # 1/(2Q) to the bit, but never 0 for a finite Q: 2Q can overflow
        return 0.5 / self.quality_factor

    @property
    def gamma_ratio(self) -> float:
        """Drive-to-resonance frequency ratio."""
        return self.omega_r / self.omega_z


def rotation_scale_factor(r_cl: float, params: OscillatorParams) -> float:
    """Cloud-average axial amplitude per unit rotation rate, m per rad/s.

    One ion at radius Y driven by a rotation Omega_x moves axially by
    Z = (2 omega_r / omega_z^2) G |Omega_x| Y, with the magnification
    G = 1/sqrt((1-g^2)^2 + (2 zeta g)^2) at g = omega_r/omega_z; at
    resonance this reduces exactly to Z = (2 Q / omega_z) Omega_x Y.
    The cloud average is half of the outermost-ion amplitude.  (A uniform
    disk's mean radius would be 2 r_cl/3; the half-the-outermost rule is
    kept deliberately as the cruder but standard bookkeeping.)  A result
    that overflows raises a ValueError naming Q and r_cl.
    """
    if not 0.0 < r_cl < math.inf:
        raise ValueError("r_cl must be positive and finite")
    g = params.gamma_ratio
    denominator = math.hypot(1.0 - g * g, 2.0 * params.zeta * g)
    scale = 0.5 * ((2.0 * params.omega_r * (1.0 / denominator) / params.omega_z ** 2) * r_cl)
    if not scale < math.inf:
        raise ValueError(f"quality_factor={params.quality_factor:g} and r_cl={r_cl:g} m give "
                         f"an infinite rotation scale factor")
    return scale

"""Spin-dependent-force Ramsey readout chain and the sensitivity budget.

The spin readout enters as one closed form, the amplitude at which the paired
Ramsey measurement reaches unit signal-to-noise; the drive is taken exactly on
the beat resonance, in phase with the force: theta = (F0/hbar) Z_c tau.
The "e" in the single-shot resolution is Euler's number: it enters as
exp(Gamma tau) evaluated at the optimum Gamma tau = 1, not as the
elementary charge.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import CONST, require_finite

SECONDS_PER_SQRT_HOUR = 60.0  # sqrt(3600 s/h)


@dataclass(frozen=True)
class ODFParams:
    f0: float     # N, per-ion spin-dependent force
    tau: float    # s, precession duration
    gamma: float  # 1/s, spontaneous decay rate

    def __post_init__(self):
        if not 0.0 < self.f0 < math.inf:
            raise ValueError("f0 must be positive and finite")
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be non-negative and finite")


@dataclass(frozen=True)
class EnsembleSpec:
    n_ions: int

    def __post_init__(self):
        if not 1 <= self.n_ions < math.inf:
            raise ValueError("need a finite count of at least one ion")


def precession_angle(odf: ODFParams, zc: float) -> float:
    """theta = (F0/hbar) Z_c tau, rad."""
    if not -math.inf < zc < math.inf:
        raise ValueError("zc must be finite")
    return (odf.f0 / CONST.reduced_planck) * zc * odf.tau


def single_shot_amplitude_resolution(ens: EnsembleSpec, odf: ODFParams) -> float:
    """Amplitude giving SNR = 1: hbar exp(Gamma tau) / (F0 tau sqrt(2N)), m."""
    return (CONST.reduced_planck * math.exp(odf.gamma * odf.tau)
            / (odf.f0 * odf.tau * math.sqrt(2.0 * ens.n_ions)))


def averaged_sensitivity(single_shot: float, cycle_time: float) -> float:
    """Amplitude spectral density after repetition averaging, m/sqrt(Hz).

    single_shot * sqrt(cycle_time) == single_shot / sqrt(reps per second).
    """
    if not 0.0 <= single_shot < math.inf:
        raise ValueError("single_shot must be non-negative and finite")
    if not 0.0 < cycle_time < math.inf:
        raise ValueError("cycle_time must be positive and finite")
    return single_shot * math.sqrt(cycle_time)


def rotation_sensitivity(amplitude_asd: float, scale_factor: float) -> float:
    """rad/s/sqrt(Hz) from amplitude ASD and m-per-(rad/s) scale factor."""
    if not 0.0 <= amplitude_asd < math.inf:
        raise ValueError("amplitude_asd must be non-negative and finite")
    if not 0.0 < scale_factor < math.inf:
        raise ValueError("scale_factor must be positive and finite")
    return amplitude_asd / scale_factor


def angle_random_walk(rotation_asd: float) -> float:
    """ARW in rad/sqrt(h); exactly rotation ASD times 60."""
    if not 0.0 <= rotation_asd < math.inf:
        raise ValueError("rotation_asd must be non-negative and finite")
    return rotation_asd * SECONDS_PER_SQRT_HOUR


@dataclass(frozen=True)
class SensitivityBudget:
    theta_max: float                # rad, angle at the resolution floor
    delta_zc_single_shot: float     # m
    amplitude_asd: float            # m/sqrt(Hz)
    scale_factor: float             # m per rad/s
    rotation_asd: float             # rad/s/sqrt(Hz)
    arw: float                      # rad/sqrt(h)
    repetitions_per_s: float        # Hz
    cycle_time: float               # s

    def __post_init__(self):
        require_finite(self, ("theta_max", "delta_zc_single_shot", "amplitude_asd",
                              "scale_factor", "rotation_asd", "arw", "repetitions_per_s",
                              "cycle_time"))

    def as_dict(self) -> dict:
        return {
            "theta_max_rad": self.theta_max,
            "delta_zc_single_shot_m": self.delta_zc_single_shot,
            "amplitude_asd_m_per_sqrt_hz": self.amplitude_asd,
            "scale_factor_m_per_rad_s": self.scale_factor,
            "rotation_asd_rad_s_per_sqrt_hz": self.rotation_asd,
            "arw_rad_per_sqrt_h": self.arw,
            "repetitions_per_s": self.repetitions_per_s,
            "cycle_time_s": self.cycle_time,
        }


def build_budget(ens: EnsembleSpec, odf: ODFParams, scale_factor: float,
                 cycle_time: float) -> SensitivityBudget:
    """Full deterministic chain from ODF/ensemble inputs to ARW."""
    single_shot = single_shot_amplitude_resolution(ens, odf)
    asd = averaged_sensitivity(single_shot, cycle_time)
    rot_asd = rotation_sensitivity(asd, scale_factor)
    return SensitivityBudget(
        theta_max=precession_angle(odf, single_shot),
        delta_zc_single_shot=single_shot,
        amplitude_asd=asd,
        scale_factor=scale_factor,
        rotation_asd=rot_asd,
        arw=angle_random_walk(rot_asd),
        repetitions_per_s=1.0 / cycle_time,
        cycle_time=cycle_time,
    )


def budget_json(budget: SensitivityBudget, extra: dict) -> str:
    payload = {"schema_version": 1, **budget.as_dict(), **extra}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

"""Spin-dependent-force Ramsey readout and the sensitivity budget.

``build_budget`` runs the whole chain.  The spin readout enters as one
closed form, the amplitude at which the paired Ramsey measurement reaches
unit signal-to-noise, hbar exp(Gamma tau) / (F0 tau sqrt(2N)); the drive is
taken exactly on the beat resonance, in phase with the force, so the
precession angle is theta = (F0/hbar) Z_c tau.  The "e" of that resolution
at the optimum Gamma tau = 1 is Euler's number, not the elementary charge.
Averaging multiplies the resolution by sqrt(cycle_time), i.e. divides it by
sqrt(reps per second); the scale factor (m per rad/s) turns it into a
rotation ASD, and 60 times that is the angle random walk in rad/sqrt(h).
"""
from __future__ import annotations

import json
import math

from .core import CONST, Positive, Record

SECONDS_PER_SQRT_HOUR = 60.0  # sqrt(3600 s/h)


class ODFParams(Record):
    f0: Positive   # N, per-ion spin-dependent force
    tau: Positive  # s, precession duration
    gamma: float   # 1/s, spontaneous decay rate

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")


class EnsembleSpec(Record):
    n_ions: int

    def __post_init__(self):
        if not 1 <= self.n_ions < math.inf:
            raise ValueError("need a finite count of at least one ion")


class SensitivityBudget(Record):
    theta_max: float                # rad, angle at the resolution floor
    delta_zc_single_shot: float     # m
    amplitude_asd: float            # m/sqrt(Hz)
    scale_factor: float             # m per rad/s
    rotation_asd: float             # rad/s/sqrt(Hz)
    arw: float                      # rad/sqrt(h)
    repetitions_per_s: float        # Hz
    cycle_time: float               # s

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
    """Full deterministic chain from ODF/ensemble inputs to ARW.

    ODF inputs whose resolution overflows are rejected by name; any other
    non-finite step of the chain is rejected by ``SensitivityBudget``.
    """
    if not 0.0 < cycle_time < math.inf:
        raise ValueError("cycle_time must be positive and finite")
    if not 0.0 < scale_factor < math.inf:
        raise ValueError("scale_factor must be positive and finite")
    try:
        single_shot = (CONST.reduced_planck * math.exp(odf.gamma * odf.tau)
                       / (odf.f0 * odf.tau * math.sqrt(2.0 * ens.n_ions)))
    except (OverflowError, ZeroDivisionError):  # exp(gamma tau) overflows or f0 tau underflows
        single_shot = math.inf
    if single_shot == math.inf:
        raise ValueError(f"gamma={odf.gamma:g} 1/s, tau={odf.tau:g} s and f0={odf.f0:g} N give "
                         f"an infinite resolution hbar exp(gamma tau) / (f0 tau sqrt(2N))")
    asd = single_shot * math.sqrt(cycle_time)
    rot_asd = asd / scale_factor
    return SensitivityBudget(
        theta_max=(odf.f0 / CONST.reduced_planck) * single_shot * odf.tau,
        delta_zc_single_shot=single_shot,
        amplitude_asd=asd,
        scale_factor=scale_factor,
        rotation_asd=rot_asd,
        arw=rot_asd * SECONDS_PER_SQRT_HOUR,
        repetitions_per_s=1.0 / cycle_time,
        cycle_time=cycle_time,
    )


def budget_json(budget: SensitivityBudget, extra: dict) -> str:
    payload = {"schema_version": 1, **budget.as_dict(), **extra}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

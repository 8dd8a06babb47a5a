"""Single-particle motion in the trap with a rotation-rate input.

Force model (acceleration form, SI):

    a = -2 Omega x v                       Coriolis, Omega = (Omega_x, 0, 0)
      + (omega_z^2/2) * (x, y, -2z)        quadrupole electric field
      + (q/m) v x B                        Lorentz, B = (0, 0, B)

Sign convention: for a positive ion in B = +z the electric field defocuses
radially and restores axially, and the magnetron rotation is the ExB drift
(clockwise seen from +z).  This is the one arrangement that reproduces the
~8/78/384 kHz Ca+ mode triplet at 1 T / 10 V / z0 = 1 cm.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    IonSpecies,
    NumericalError,
    Positive,
    Record,
    RotationInput,
    TrapConfig,
    axial_frequency_squared,
    write_csv,
)
from .modes import ModeFrequencies, compute_modes


class IntegrationError(NumericalError, RuntimeError):
    pass


class ParticleState(Record):
    position: np.ndarray  # (3,) m
    velocity: np.ndarray  # (3,) m/s

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        vel = np.asarray(self.velocity, dtype=float)
        if pos.shape != (3,) or vel.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise ValueError("state components must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)


class IntegratorConfig(Record):
    time_step: Positive            # s, the RK4 step
    total_time: float              # s
    sample_stride: int = 1         # keep every n-th step

    def __post_init__(self):
        if self.total_time < self.time_step:
            raise ValueError("total_time must be >= time_step")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


class Trajectory(Record):
    times: np.ndarray       # (n,) s, strictly increasing
    positions: np.ndarray   # (n, 3) m
    velocities: np.ndarray  # (n, 3) m/s

    @property
    def uniform(self) -> bool:
        dt = np.diff(self.times)
        return bool(dt.size == 0 or np.allclose(dt, dt[0], rtol=1e-9, atol=0.0))

    def coordinate(self, name: str) -> np.ndarray:
        idx = {"x": 0, "y": 1, "z": 2}[name]
        return self.positions[:, idx]


def _generator(species: IonSpecies, trap: TrapConfig, rot: RotationInput) -> np.ndarray:
    """The force law as the 6x6 generator A of du/dt = A u, u = (r, v).

    This is the only copy of the equation of motion: the RK4 integrator
    reads its coefficients from it.
    """
    wz2 = axial_frequency_squared(species, trap)
    # signed Lorentz coefficient: q/m * B, sign of the charge kept
    wc = species.charge * trap.b_field / species.mass
    cor = 2.0 * rot.omega_x
    gen = np.zeros((6, 6))
    gen[:3, 3:] = np.eye(3)
    gen[3:, :3] = np.diag([0.5 * wz2, 0.5 * wz2, -wz2])
    gen[3:, 3:] = [[0.0, wc, 0.0],
                   [-wc, 0.0, cor],
                   [0.0, -cor, 0.0]]
    return gen


def magnetron_orbit_state(radius: float, modes: ModeFrequencies) -> ParticleState:
    """Pure magnetron orbit of given radius, cold axial/cyclotron modes.

    Starting at (r, 0, 0) with velocity (0, -omega_m r, 0) excites the
    magnetron eigenmode only (clockwise ExB rotation).
    """
    if not -math.inf < radius < math.inf:
        raise ValueError("radius must be finite")
    return ParticleState(
        position=np.array([radius, 0.0, 0.0]),
        velocity=np.array([0.0, -modes.omega_m * radius, 0.0]),
    )


def _rk4_samples(gen: np.ndarray, u0: np.ndarray, dt: float, n_samples: int,
                 stride: int) -> np.ndarray:
    """Classical RK4 applied as its step matrix, sampled every stride steps.

    For du/dt = A u one RK4 step is exactly u <- M u with
    M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, and sample k is S^k u
    with S = M^stride.  The samples are filled by repeated squaring (the
    scaling-and-squaring idea of Moler & Van Loan, SIAM Rev. 45, 3
    (2003)): with the first k written and S^k in hand, the next k are
    S^k times the first k; then S^k is squared and k doubles.
    """
    ha = dt * gen
    eye = np.eye(6)
    step = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
    jump = np.linalg.matrix_power(step, stride)
    out = np.empty((n_samples, 6))
    out[0] = u0
    k = 1
    while k < n_samples:
        take = min(k, n_samples - k)
        out[k:k + take] = out[:take] @ jump.T
        jump = jump @ jump
        k += take
    return out


def integrate(state0: ParticleState, species: IonSpecies, trap: TrapConfig,
              rot: RotationInput, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 integration of the equation of motion, sampled at
    exactly time_step * sample_stride spacing."""
    y0 = np.concatenate([state0.position, state0.velocity])
    n_steps = int(round(cfg.total_time / cfg.time_step))
    times = np.arange(n_steps // cfg.sample_stride + 1) * (
        cfg.time_step * cfg.sample_stride)
    samples = _rk4_samples(_generator(species, trap, rot), y0, cfg.time_step,
                           times.size, cfg.sample_stride)
    if not np.all(np.isfinite(samples)):
        bad = int(np.argmax(~np.all(np.isfinite(samples), axis=1)))
        raise IntegrationError(f"non-finite state at t={times[bad]:.6g} s")
    return Trajectory(times=times, positions=samples[:, :3],
                      velocities=samples[:, 3:])


def default_time_step(species: IonSpecies, trap: TrapConfig) -> float:
    """dt = T_fastest / 200 with T_fastest the modified-cyclotron period."""
    modes = compute_modes(species, trap)
    return (2.0 * math.pi / modes.omega_cap_m) / 200


def periodogram(traj: Trajectory, coordinate: str = "z"):
    """One-sided power spectrum of a coordinate; requires uniform sampling."""
    if not traj.uniform:
        raise ValueError("trajectory must be uniformly sampled")
    if traj.times.size < 4096:
        raise ValueError("need at least 4096 uniform samples for the spectrum")
    signal = traj.coordinate(coordinate)
    dt = traj.times[1] - traj.times[0]
    amplitudes = np.fft.rfft(signal - signal.mean())
    freqs = np.fft.rfftfreq(signal.size, dt)
    power = np.abs(amplitudes) ** 2 / signal.size
    return freqs, power


class SpectralPeak(Record):
    frequency: float  # Hz
    power: float


def extract_spectrum(traj: Trajectory, coordinate: str = "z") -> list[SpectralPeak]:
    """Dominant spectral peaks of one coordinate, sorted by power.

    A bin is a peak if it is a local maximum above 100 times the median
    spectral power.  Frequency resolution is 1/total_time.
    """
    freqs, power = periodogram(traj, coordinate)
    floor = 100.0 * np.median(power)
    if floor <= 0.0:
        return []
    peaks = []
    for i in range(1, power.size - 1):
        if power[i] > floor and power[i] >= power[i - 1] and power[i] > power[i + 1]:
            peaks.append(SpectralPeak(float(freqs[i]), float(power[i])))
    peaks.sort(key=lambda p: p.power, reverse=True)
    return peaks


def write_trajectory_csv(traj: Trajectory, path) -> None:
    write_csv(path, ["t", "x", "y", "z", "vx", "vy", "vz"],
              np.column_stack([traj.times, traj.positions, traj.velocities]))


def write_spectrum_csv(traj: Trajectory, coordinate: str, path) -> None:
    write_csv(path, ["freq_hz", "power"],
              np.column_stack(periodogram(traj, coordinate)))

"""Measuring instruments the tests apply to the package's outputs.

They stay out of ``penning_gyro`` because no program path runs them: the
lock-in reads the response of an integrated run, the voltage edge is a
closed form that checks ``compute_modes``' stability decision from outside,
the arctan form of the shape relation does the same for the shape solve,
and the Ramsey population model is the reference that the budget's
single-shot resolution (``build_budget``'s ``delta_zc_single_shot``) is
checked against.  It computes its precession angle itself, so it shares no
readout formula with ``penning_gyro.sensing``.
"""
import math

import numpy as np
# scipy's trapezoid, not np.trapezoid: the latter needs numpy >= 2
from scipy.integrate import trapezoid
from scipy.optimize import brentq

from penning_gyro.core import CONST
from penning_gyro.dynamics import Trajectory
from penning_gyro.sensing import EnsembleSpec, ODFParams


def driven_amplitude(traj: Trajectory, drive_omega: float) -> float:
    """Lock-in amplitude of z at the drive frequency.

    The first fifth of the run is skipped and the demodulation window is
    truncated to an integer number of drive periods, which keeps leakage
    from the free oscillation at the per-mille level.
    """
    if not traj.uniform:
        raise ValueError("trajectory must be uniformly sampled")
    t = traj.times
    signal = traj.coordinate("z")
    start = int(0.2 * t.size)
    t, signal = t[start:], signal[start:]
    period = 2.0 * math.pi / drive_omega
    n_periods = int((t[-1] - t[0]) / period)
    if n_periods < 1:
        raise ValueError("window shorter than one drive period")
    keep = t - t[0] <= n_periods * period
    t, signal = t[keep], signal[keep]
    in_phase = trapezoid(signal * np.cos(drive_omega * t), t)
    quadrature = trapezoid(signal * np.sin(drive_omega * t), t)
    window = t[-1] - t[0]
    return 2.0 * math.hypot(in_phase, quadrature) / window


def max_stable_voltage(species, b_field: float, z0: float) -> float:
    """Voltage at which omega_z = omega_c/sqrt(2) exactly (instability edge):
    m z0^2 omega_c^2 / (2q)."""
    omega_c = abs(species.charge) * b_field / species.mass
    return species.mass * z0 ** 2 * omega_c ** 2 / (2.0 * abs(species.charge))


def closed_form_alpha(beta: float) -> float:
    """Oblate cold-fluid aspect ratio solving A_z(alpha) = 1/(2 beta + 1).

    Uses the arctan form of the axial depolarization of an oblate spheroid,
    A_z = (1 + e^2)/e^3 (e - arctan e) with e = sqrt(1/alpha^2 - 1), so it
    shares no code with the package's shape solvers.
    """
    def residual(alpha):
        e = math.sqrt(1.0 / alpha ** 2 - 1.0)
        return ((1.0 + e * e) / e ** 3 * (e - math.atan(e))
                - 1.0 / (2.0 * beta + 1.0))
    return brentq(residual, 1e-9, 1.0 - 1e-9, xtol=1e-15, rtol=8.9e-16)


def ramsey_population(theta: float, gamma: float, tau: float) -> float:
    """Bright-state population (1 - exp(-Gamma tau) cos(theta)) / 2."""
    if not -math.inf < theta < math.inf:
        raise ValueError("theta must be finite")
    if not (0.0 <= gamma < math.inf and 0.0 <= tau < math.inf):
        raise ValueError("gamma and tau must be non-negative and finite")
    return 0.5 * (1.0 - math.exp(-gamma * tau) * math.cos(theta))


def population_difference(theta_max: float, gamma: float, tau: float) -> float:
    """Background-free signal from the delta=0 / delta=pi measurement pair."""
    if not -math.inf < theta_max < math.inf:
        raise ValueError("theta_max must be finite")
    if not (0.0 <= gamma < math.inf and 0.0 <= tau < math.inf):
        raise ValueError("gamma and tau must be non-negative and finite")
    return math.exp(-gamma * tau) * math.sin(theta_max)


def population_snr(ens: EnsembleSpec, odf: ODFParams, zc: float) -> float:
    """Signal-to-noise of the paired population measurement at amplitude zc,
    whose precession angle is theta = F0 zc tau / hbar."""
    if not -math.inf < zc < math.inf:
        raise ValueError("zc must be finite")
    theta_max = odf.f0 * zc * odf.tau / CONST.reduced_planck
    return population_difference(theta_max, odf.gamma, odf.tau) * math.sqrt(
        2.0 * ens.n_ions)

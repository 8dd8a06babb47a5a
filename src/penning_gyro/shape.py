"""Cold-fluid spheroid model of the rotating crystal.

One relation fixes the shape: the axial depolarization coefficient of the
uniform spheroid equals the confinement it balances,
A_z(alpha) = 1/(2 beta + 1).  ``aspect_ratio_from_beta`` is its only
solver; it works on ``cold_fluid_residual``, the relation written with the
k0/k1 intermediates.  The published grouping of that relation,
k1 * [(1-k0^2)^(-1/2) * asin(k0)/k0], simplifies to 3*asin(k0)/k0^3 which
is >= 3pi/2 on the whole oblate branch and therefore can never equal
3/(2*beta+1) <= 3 for beta > 0: it has no root.  The single repaired
reading that admits roots inserts the evidently dropped minus,
k1 * [(1-k0^2)^(-1/2) - asin(k0)/k0], and that is what is solved here.

The repaired residual equals 3/(2 beta + 1) - 3 * ``axial_depolarization``
(to 1e-14 in floating point).  A_z falls from 1 to 1/3 as alpha goes from
0 to 1, so the residual rises strictly with alpha and has at most one
root.  The independent checks are the arctan closed form of A_z that
acceptance criterion 5 solves without this module, and the second moments
of the relaxed N-body crystal in ``equilibrium``.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Sequence

from .core import K_COULOMB, IonSpecies, NumericalError, write_csv
from .modes import ModeFrequencies


class WallFrequencyError(ValueError):
    """omega_r outside the (omega_m, Omega_m) validity window."""


class AspectRatioBracketError(NumericalError, ValueError):
    """No sign change found when scanning the shape relation residual."""


@dataclass(frozen=True)
class RotatingWallConfig:
    omega_r: float          # rad/s, crystal rotation frequency
    delta: float            # relative wall strength

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")
        if not 0.0 < self.omega_r < math.inf:
            raise ValueError("omega_r must be positive and finite")


@dataclass(frozen=True)
class SpheroidGeometry:
    r_cl: float        # m, equatorial radius
    z_cl: float        # m, axial half-extent
    density_n: float   # m^-3

    def __post_init__(self):
        if not (self.r_cl > self.z_cl > 0.0):
            raise ValueError("oblate branch requires r_cl > z_cl > 0")


def shape_beta(modes: ModeFrequencies, omega_r: float) -> float:
    """Radial-to-axial confinement ratio in the rotating frame."""
    if not (modes.omega_m < omega_r < modes.omega_cap_m):
        raise WallFrequencyError(
            f"omega_r={omega_r:.6g} rad/s outside the validity window "
            f"({modes.omega_m:.6g}, {modes.omega_cap_m:.6g}) rad/s")
    wz2 = modes.omega_z ** 2
    return (omega_r * (modes.omega_c - omega_r) - 0.5 * wz2) / wz2


def cold_fluid_residual(alpha: float, beta: float) -> float:
    """Residual of the k0/k1 shape relation at a trial aspect ratio."""
    k0 = math.sqrt(1.0 - alpha * alpha)
    k1 = 3.0 * math.sqrt(1.0 - k0 * k0) / k0 ** 2
    bracket = 1.0 / math.sqrt(1.0 - k0 * k0) - math.asin(k0) / k0
    return 3.0 / (2.0 * beta + 1.0) - k1 * bracket


def axial_depolarization(alpha: float) -> float:
    """A_z of a uniform oblate spheroid with aspect ratio alpha in (0, 1)."""
    ecc = math.sqrt(1.0 - alpha * alpha)
    return (1.0 - alpha * math.asin(ecc) / ecc) / ecc ** 2


# the 1001 trial aspect ratios: 1e-3 steps from 1e-6, then 1 - 1e-6
_ALPHA_GRID = tuple([1e-6 + i * 1e-3 for i in range(1000)] + [1.0 - 1e-6])


def aspect_ratio_from_beta(beta: float) -> float:
    """Aspect ratio alpha = z_cl/r_cl on the oblate branch: the root of
    ``cold_fluid_residual``.

    Walks the grid to the first cell where the residual changes sign (or
    is exactly zero) and refines that cell with brentq.
    """
    from scipy.optimize import brentq

    if not (0.0 < beta < 1.0):
        raise ValueError("oblate branch requires 0 < beta < 1")
    previous = 0.0  # 0 * value is never < 0: no cell ends at the first point
    for i, alpha in enumerate(_ALPHA_GRID):
        value = cold_fluid_residual(alpha, beta)
        if previous * value < 0.0:
            return brentq(cold_fluid_residual, _ALPHA_GRID[i - 1], alpha,
                          args=(beta,), xtol=1e-15, rtol=8.9e-16)
        if value == 0.0:
            return alpha
        previous = value
    raise AspectRatioBracketError(
        f"shape relation has no sign change on ({_ALPHA_GRID[0]}, "
        f"{_ALPHA_GRID[-1]}) for beta={beta:.6g}")


def oracle_aspect_ratio_depolarization(beta: float) -> float:
    """The same solve as ``aspect_ratio_from_beta``, kept as its own
    function for the callers that name it."""
    return aspect_ratio_from_beta(beta)


def coulomb_trap_length(species: IonSpecies, omega_z: float) -> float:
    """a0 = (q^2 / (4 pi eps0 m omega_z^2))^(1/3).

    The m in the denominator is required for a0 to be a length; the
    mass-less variant sometimes quoted is dimensionally inconsistent.
    """
    k = species.charge ** 2 * K_COULOMB
    return (k / (species.mass * omega_z ** 2)) ** (1.0 / 3.0)


def spheroid_dimensions(n_ions: float, alpha: float, beta: float,
                        omega_z: float, species: IonSpecies) -> SpheroidGeometry:
    """Equatorial radius, half-height and density of the uniform spheroid."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 1 <= n_ions < math.inf:
        raise ValueError("n_ions must be finite and at least 1")
    a0 = coulomb_trap_length(species, omega_z)
    r_cl = a0 * (3.0 / (2.0 * beta + 1.0) * n_ions / alpha) ** (1.0 / 3.0)
    z_cl = alpha * r_cl
    density = n_ions / (4.0 / 3.0 * math.pi * z_cl * r_cl ** 2)
    return SpheroidGeometry(r_cl=r_cl, z_cl=z_cl, density_n=density)


PLANARITY_THRESHOLD = 0.1  # "much less than 1" pinned to a usable number


@dataclass(frozen=True)
class PlanarityReport:
    passes: bool               # delta < beta < threshold


def planarity_check(beta: float, delta: float) -> PlanarityReport:
    return PlanarityReport(delta < beta < PLANARITY_THRESHOLD)


@dataclass(frozen=True)
class ShapeSweepRow:
    omega_r: float
    omega_r_over_omega_z: float
    normalized_freq: float
    beta: float
    alpha: float | None   # None when beta leaves the oblate branch
    r_cl: float | None
    z_cl: float | None


def shape_sweep(species: IonSpecies, modes: ModeFrequencies,
                omega_r_grid: Sequence[float],
                n_ions: float = 1000.0) -> list[ShapeSweepRow]:
    """One row per grid point; beta outside (0, 1) yields gap markers."""
    rows = []
    for omega_r in omega_r_grid:
        beta = shape_beta(modes, omega_r)
        if 0.0 < beta < 1.0:
            alpha = aspect_ratio_from_beta(beta)
            geom = spheroid_dimensions(n_ions, alpha, beta, modes.omega_z, species)
            r_cl, z_cl = geom.r_cl, geom.z_cl
        else:
            alpha = r_cl = z_cl = None
        rows.append(ShapeSweepRow(
            omega_r=omega_r,
            omega_r_over_omega_z=omega_r / modes.omega_z,
            normalized_freq=1.0 / (2.0 * beta + 1.0),
            beta=beta, alpha=alpha, r_cl=r_cl, z_cl=z_cl))
    return rows


def write_shape_csv(rows: Sequence[ShapeSweepRow], path) -> None:
    write_csv(path, ["omega_r_rad_s", "omega_r_over_omega_z", "normalized_freq",
                     "beta", "alpha", "r_cl_m", "z_cl_m"], map(astuple, rows))

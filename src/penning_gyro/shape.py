"""Cold-fluid spheroid model of the rotating crystal.

One relation fixes the shape: the axial depolarization coefficient of the
uniform spheroid equals the confinement it balances,
A_z(alpha) = 1/(2 beta + 1).  ``aspect_ratio_from_beta`` is its only
solver; it works on ``_cold_fluid_residual``, the relation written with the
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
from collections.abc import Sequence

from .core import K_COULOMB, IonSpecies, NumericalError, Positive, Record, write_csv
from .modes import ModeFrequencies


class WallFrequencyError(ValueError):
    """omega_r outside the (omega_m, Omega_m) validity window, or a beta
    that rounds to <= 0 at its edge."""


class AspectRatioBracketError(NumericalError, ValueError):
    """No sign change found when scanning the shape relation residual."""


class RotatingWallConfig(Record):
    omega_r: Positive       # rad/s, crystal rotation frequency
    delta: float            # relative wall strength

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")


class SpheroidGeometry(Record):
    r_cl: float           # m, equatorial radius
    z_cl: Positive        # m, axial half-extent
    density_n: Positive   # m^-3

    def __post_init__(self):
        if self.r_cl <= self.z_cl:
            raise ValueError("oblate branch requires r_cl > z_cl")


def shape_beta(modes: ModeFrequencies, omega_r: float) -> float:
    """Radial-to-axial confinement ratio in the rotating frame, and the one
    validity decision on a wall frequency: omega_r must lie in
    (omega_m, Omega_m) and the computed beta, which can round to <= 0 a few
    ulps inside either edge, must be positive."""
    wz2 = modes.omega_z ** 2
    beta = (omega_r * (modes.omega_c - omega_r) - 0.5 * wz2) / wz2
    if not (modes.omega_m < omega_r < modes.omega_cap_m and beta > 0.0):
        raise WallFrequencyError(
            f"omega_r={omega_r:.6g} rad/s outside the validity window "
            f"({modes.omega_m:.6g}, {modes.omega_cap_m:.6g}) rad/s (beta={beta:.6g})")
    return beta


def _cold_fluid_residual(alpha: float, beta: float) -> float:
    """Residual of the k0/k1 shape relation at a trial aspect ratio."""
    k0 = math.sqrt(1.0 - alpha * alpha)
    k1 = 3.0 * math.sqrt(1.0 - k0 * k0) / k0 ** 2
    bracket = 1.0 / math.sqrt(1.0 - k0 * k0) - math.asin(k0) / k0
    return 3.0 / (2.0 * beta + 1.0) - k1 * bracket


def axial_depolarization(alpha: float) -> float:
    """A_z of a uniform oblate spheroid with aspect ratio alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    ecc = math.sqrt(1.0 - alpha * alpha)
    return (1.0 - alpha * math.asin(ecc) / ecc) / ecc ** 2


# the 1001 trial aspect ratios: 1e-3 steps from 1e-6, then 1 - 1e-6
_ALPHA_STEP = 1e-3
_ALPHA_GRID = tuple([1e-6 + i * _ALPHA_STEP for i in range(1000)] + [1.0 - 1e-6])


def _alpha_guess(beta: float) -> float:
    """First guess at the root, within 7e-4 of it for beta in (1e-5, 1).

    4 beta/pi is the small-beta limit (A_z ~ 1 - pi alpha/2 for small
    alpha); the two constants make the curve pass through the roots
    alpha(0.3) = 0.3473 and alpha(1) = 1.  The solve only starts its search
    here, so the root it returns does not depend on this guess.
    """
    return beta * (4.0 / math.pi + 0.4281 * beta) / (1.0 + 0.7013 * beta)


# Brent's tolerances and iteration cap
_XTOL = 1e-15
_RTOL = 8.9e-16
_MAXITER = 100


class BrentConvergenceError(NumericalError):
    """Brent's method reached its iteration cap without converging."""


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float) -> float:
    """Root of f in the bracket (xpre, xcur), given f(xpre) < 0 < f(xcur).

    A port of scipy's brentq.c (Brent 1973; scipy is BSD-3 licensed):
    the same arithmetic in the same order, so it returns the same bits
    as ``scipy.optimize.brentq`` with these tolerances.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        # brentq.c also asks fpre != 0 and fcur != 0: fpre never is, and at
        # fcur == 0 the loop returns xcur below either way
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise BrentConvergenceError(
        f"Brent's method did not converge in {_MAXITER} iterations (x={xcur!r})")


def aspect_ratio_from_beta(beta: float) -> float:
    """Aspect ratio alpha = z_cl/r_cl on the oblate branch: the root of
    ``_cold_fluid_residual``.

    The residual rises strictly on the grid, so it has one first grid point
    where it is >= 0.  The search walks to it one grid point at a time from
    the grid point of ``_alpha_guess``, which lies within one cell of the
    root, so it makes 2 or 3 residual evaluations; ``_brentq`` refines the
    cell that ends there unless the residual is exactly zero at that point.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"oblate branch requires 0 < beta < 1 (beta={beta:.6g})")

    def residual(alpha):
        return _cold_fluid_residual(alpha, beta)

    lo, hi = -1, len(_ALPHA_GRID)  # residual < 0 up to lo, >= 0 from hi
    f_lo = f_hi = math.nan  # until a grid point is evaluated
    probe = min(max(int((_alpha_guess(beta) - _ALPHA_GRID[0]) / _ALPHA_STEP), 0), hi - 1)
    while lo < probe < hi:  # one grid point at a time toward the sign change
        value = residual(_ALPHA_GRID[probe])
        if value < 0.0:
            lo, f_lo, probe = probe, value, probe + 1
        else:
            hi, f_hi, probe = probe, value, probe - 1
    if f_hi == 0.0:
        return _ALPHA_GRID[hi]
    if lo < 0 or hi == len(_ALPHA_GRID):
        raise AspectRatioBracketError(
            f"shape relation has no sign change on ({_ALPHA_GRID[0]}, "
            f"{_ALPHA_GRID[-1]}) for beta={beta:.6g}")
    return _brentq(residual, _ALPHA_GRID[lo], _ALPHA_GRID[hi], f_lo, f_hi)


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
    try:
        a0 = (k / (species.mass * omega_z ** 2)) ** (1.0 / 3.0)
    except (OverflowError, ZeroDivisionError):  # m omega_z^2 left the float range
        a0 = math.nan
    if not (omega_z > 0.0 and 0.0 < a0 < math.inf):  # an infinite omega_z gives a0 = 0
        raise ValueError(f"omega_z must be positive and put a0 in the float range "
                         f"(omega_z={omega_z} rad/s)")
    return a0


def spheroid_dimensions(n_ions: float, alpha: float, beta: float,
                        omega_z: float, species: IonSpecies) -> SpheroidGeometry:
    """Equatorial radius, half-height and density of the uniform spheroid;
    one that leaves the float range raises a ValueError naming the inputs."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 1 <= n_ions < math.inf:
        raise ValueError("n_ions must be finite and at least 1")
    # no upper bound: relax sizes its start from beta >= 1 too
    if not -0.5 < beta < math.inf:
        raise ValueError("beta must be finite and above -1/2")
    if not 0.0 < omega_z < math.inf:
        raise ValueError("omega_z must be positive and finite")
    try:
        a0 = coulomb_trap_length(species, omega_z)
        r_cl = a0 * (3.0 / (2.0 * beta + 1.0) * n_ions / alpha) ** (1.0 / 3.0)
        z_cl = alpha * r_cl
        density = n_ions / (4.0 / 3.0 * math.pi * z_cl * r_cl ** 2)
    except (OverflowError, ZeroDivisionError, ValueError):  # a step left the float range
        density = math.nan
    if not 0.0 < density < math.inf:  # in range, it puts r_cl and z_cl in range
        raise ValueError(f"spheroid out of float range: n_ions={n_ions}, alpha={alpha}, "
                         f"beta={beta}, omega_z={omega_z} rad/s")
    return SpheroidGeometry(r_cl=r_cl, z_cl=z_cl, density_n=density)


PLANARITY_THRESHOLD = 0.1  # "much less than 1" pinned to a usable number


class PlanarityReport(Record):
    passes: bool               # delta < beta < threshold


def planarity_check(beta: float, delta: float) -> PlanarityReport:
    if not -math.inf < beta < math.inf:
        raise ValueError("beta must be finite")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    return PlanarityReport(delta < beta < PLANARITY_THRESHOLD)


class ShapeSweepRow(Record):
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
    """One row per grid point; beta >= 1, off the oblate branch, yields gaps."""
    rows = []
    for omega_r in omega_r_grid:
        beta = shape_beta(modes, omega_r)
        if beta < 1.0:
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
                     "beta", "alpha", "r_cl_m", "z_cl_m"], map(ShapeSweepRow.field_values, rows))

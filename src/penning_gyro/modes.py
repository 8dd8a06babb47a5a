"""Closed-form trap mode frequencies and the frequency-difference sweep.

Convention note: all omega_* values are angular frequencies in rad/s; the
f_* properties are their Hz mirrors.  The magnetron root is the canonical
omega_m = (omega_c - sqrt(omega_c^2 - 2 omega_z^2)) / 2; this is the form
that lands the Ca+/1T/10V magnetron mode at ~8 kHz.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Sequence

from .core import (
    IonSpecies,
    Record,
    TrapConfig,
    axial_frequency,
    cyclotron_frequency,
    write_csv,
)

TWO_PI = 2.0 * math.pi


class UnstableTrapError(ValueError):
    """Raised when omega_z >= omega_c/sqrt(2) (discriminant not positive)."""


class ModeFrequencies(Record):
    omega_c: float       # true cyclotron, rad/s
    omega_z: float       # axial, rad/s
    omega_m: float       # magnetron, rad/s
    omega_cap_m: float   # modified cyclotron, rad/s

    @property
    def f_c(self) -> float:
        return self.omega_c / TWO_PI

    @property
    def f_z(self) -> float:
        return self.omega_z / TWO_PI

    @property
    def f_m(self) -> float:
        return self.omega_m / TWO_PI

    @property
    def f_cap_m(self) -> float:
        return self.omega_cap_m / TWO_PI

    @property
    def stability_margin(self) -> float:
        """omega_c/sqrt(2) - omega_z in rad/s; positive for every returned mode set."""
        disc = self.omega_c ** 2 - 2.0 * self.omega_z ** 2
        # written through disc: the plain difference can round to the other
        # sign at the edge
        return 0.5 * disc / (self.omega_c / math.sqrt(2.0) + self.omega_z)


def compute_modes(species: IonSpecies, trap: TrapConfig) -> ModeFrequencies:
    """All four characteristic frequencies of a stable configuration.

    The one stability decision: the radial discriminant omega_c^2 - 2 omega_z^2
    must be positive (at zero the two radial roots meet), else UnstableTrapError.
    Inputs whose omega_c^2, omega_z^2 or z0^2 leave the float range raise a
    ValueError that names them.
    Exact identities (used as invariants downstream):
    omega_m + omega_cap_m = omega_c and omega_m * omega_cap_m = omega_z^2/2.
    """
    try:
        omega_c = cyclotron_frequency(species, trap)
        omega_z = axial_frequency(species, trap)
        disc = omega_c ** 2 - 2.0 * omega_z ** 2
    except (OverflowError, ZeroDivisionError):
        disc = math.nan
    if not -math.inf < disc < math.inf:  # a step raised, or overflowed to inf
        raise ValueError(
            f"trap inputs out of float range: b_field={trap.b_field} T, "
            f"trap_voltage={trap.trap_voltage} V, char_length_z0={trap.char_length_z0} m")
    if not disc > 0.0:
        raise UnstableTrapError(
            f"unstable trap: omega_z={omega_z:.6g} rad/s is not below "
            f"omega_c/sqrt(2)={omega_c / math.sqrt(2):.6g} rad/s"
        )
    root = math.sqrt(disc)
    # omega_m written as omega_z^2/(omega_c + root) instead of the textbook
    # (omega_c - root)/2: same number, but free of the catastrophic
    # cancellation that otherwise spoils the product identity at low V
    omega_m = 0.5 * omega_z ** 2 / (0.5 * (omega_c + root))
    return ModeFrequencies(
        omega_c=omega_c,
        omega_z=omega_z,
        omega_m=omega_m,
        omega_cap_m=0.5 * (omega_c + root),
    )


class SweepPoint(Record):
    b_field: float              # T
    voltage: float              # V
    fz_minus_fm: float | None   # Hz; None marks an unstable gap point


def freq_difference_sweep(
    species: IonSpecies,
    z0: float,
    b_list: Sequence[float],
    v_grid: Sequence[float],
) -> list[SweepPoint]:
    """f_z - f_m on a (B, V) grid, ordered by (B, V).

    Unstable grid points are emitted as explicit gap markers (value None)
    rather than dropped, so the stability boundary is visible in the
    exported table.
    """
    if len(b_list) == 0 or len(v_grid) == 0:
        raise ValueError("sweep grid must be non-empty")
    if not 0.0 < z0 < math.inf:
        raise ValueError("z0 must be positive and finite")
    points: list[SweepPoint] = []
    any_stable = False
    for b in sorted(b_list):
        for v in sorted(v_grid):
            trap = TrapConfig(b_field=b, trap_voltage=v, char_length_z0=z0)
            try:
                m = compute_modes(species, trap)
            except UnstableTrapError:
                points.append(SweepPoint(b, v, None))
            else:
                points.append(SweepPoint(b, v, m.f_z - m.f_m))
                any_stable = True
    if not any_stable:
        warnings.warn("all sweep points unstable; table contains only gaps")
    return points


def write_sweep_csv(points: Sequence[SweepPoint], path) -> None:
    write_csv(path, ["b_tesla", "v_volts", "fz_minus_fm_hz"], map(SweepPoint.field_values, points))

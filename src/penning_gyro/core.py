"""Ion species, static trap configuration, shared physical constants, the
base type of numerical failures, and the one writer of output tables.

Everything in here is immutable after construction and safe to share
across concurrent sweep workers.
"""
from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence


def require_finite(record, names: Iterable[str]) -> None:
    """Raise a ValueError naming the first of the record's fields that is
    NaN or infinite; None, the gap of a ``float | None`` field, passes."""
    for name in names:
        value = getattr(record, name)
        if value is not None and not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PhysicalConstants:
    """Pinned CODATA-2018 values. Printed by the CLI ``constants`` command
    so numeric drift between environments is auditable."""

    elementary_charge: float = 1.602176634e-19     # C (exact)
    atomic_mass_unit: float = 1.66053906660e-27    # kg
    vacuum_permittivity: float = 8.8541878128e-12  # F/m
    reduced_planck: float = 1.054571817e-34        # J s (exact)
    euler_number: float = math.e

    def __post_init__(self):
        require_finite(self, ("elementary_charge", "atomic_mass_unit", "vacuum_permittivity",
                              "reduced_planck", "euler_number"))


CONST = PhysicalConstants()

# Coulomb constant, q-independent prefactor of the pair potential
K_COULOMB = 1.0 / (4.0 * math.pi * CONST.vacuum_permittivity)


class NumericalError(Exception):
    """A computation failed on valid inputs; the CLI exits 3 on it."""


@dataclass(frozen=True)
class IonSpecies:
    name: str
    mass: float    # kg
    charge: float  # C

    def __post_init__(self):
        if not 0.0 < self.mass < math.inf:
            raise ValueError("ion mass must be positive and finite")
        if not (math.isfinite(self.charge) and self.charge != 0.0):
            raise ValueError("ion charge must be finite and nonzero")


# Bare atomic mass of 40Ca; no electron-mass correction is applied
# (relative effect < 2e-5, below every tolerance used downstream).
CA40 = IonSpecies(
    name="Ca+",
    mass=39.9626 * CONST.atomic_mass_unit,
    charge=+CONST.elementary_charge,
)


@dataclass(frozen=True)
class TrapConfig:
    """Static axial magnetic field (+z) plus quadrupole electric trap."""

    b_field: float          # T
    trap_voltage: float     # V
    char_length_z0: float   # m

    def __post_init__(self):
        if not 0.0 < self.b_field < math.inf:
            raise ValueError("b_field must be positive and finite")
        if not 0.0 < self.trap_voltage < math.inf:
            raise ValueError("trap_voltage must be positive and finite")
        if not 0.0 < self.char_length_z0 < math.inf:
            raise ValueError("char_length_z0 must be positive and finite")


@dataclass(frozen=True)
class RotationInput:
    """Angular-velocity input about the x axis (the measurand)."""

    omega_x: float = 0.0  # rad/s; may be zero or negative

    def __post_init__(self):
        if not math.isfinite(self.omega_x):
            raise ValueError("omega_x must be finite")


def cyclotron_frequency(species: IonSpecies, trap: TrapConfig) -> float:
    """True cyclotron angular frequency qB/m in rad/s."""
    return abs(species.charge) * trap.b_field / species.mass


def axial_frequency_squared(species: IonSpecies, trap: TrapConfig) -> float:
    """omega_z^2 = qV/(m z0^2) in (rad/s)^2."""
    return (abs(species.charge) * trap.trap_voltage
            / (species.mass * trap.char_length_z0 ** 2))


def axial_frequency(species: IonSpecies, trap: TrapConfig) -> float:
    return math.sqrt(axial_frequency_squared(species, trap))


# rows formatted, checked and written at a time, so no string holds a whole table
_BLOCK_ROWS = 1024


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one output table in the csv module's default format.

    Every table goes through here.  A cell is its ``str()``, so a float is
    its shortest repr and reads back bit for bit; None is the empty cell
    that marks a gap; lines end in CRLF.  No cell is quoted: a ValueError
    rejects a header of fewer than two names, a ragged row, and a cell that
    holds a comma, quote, CR or LF.  The table goes to ``<path>.part`` and
    replaces ``path`` only once its last row has passed, so a rejected table
    leaves the directory as it was.  Pass arrays as ``.tolist()``: same
    text, faster.
    """
    width = len(header)
    if width < 2:
        raise ValueError(f"{path}: a table needs at least two columns, got {width}")
    rows = iter(rows)
    part = f"{path}.part"
    try:
        with open(part, "w", newline="\r\n") as fh:
            block = [header]
            while block:
                text = "\n".join([",".join(["" if cell is None else str(cell) for cell in row])
                                  for row in block])
                if set(map(len, block)) != {width}:
                    raise ValueError(f"{path}: every row must have the header's {width} cells")
                # with every row `width` wide, any other count of commas or LFs is a cell's
                if (text.count(",") != len(block) * (width - 1)
                        or text.count("\n") != len(block) - 1 or '"' in text or "\r" in text):
                    raise ValueError(f"{path}: a cell holds a comma, quote, CR or LF")
                fh.write(text + "\n")
                block = list(islice(rows, _BLOCK_ROWS))
        os.replace(part, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(part)
        raise

"""The base of the package's records, ion species, static trap
configuration, shared physical constants, the base type of numerical
failures, and the one way an output file reaches disk.

Every record in the package is immutable after construction.
"""
from __future__ import annotations

import math
import os
from collections.abc import Iterable, Sequence
from contextlib import contextmanager, suppress
from itertools import islice


class Record:
    """Base of the package's immutable records, built without ``dataclasses``.

    A subclass declares its fields as annotated class attributes, in order;
    a default is the attribute's value, and a ``ClassVar`` is not a field.
    It gets one generated ``__init__`` with the fields as parameters.  That
    rejects NaN and +-inf in each field annotated ``float`` with
    ``ValueError("<field> must be finite")`` (a ``float | None`` field also
    takes None, a gap), reading the annotation as the string ``from
    __future__ import annotations`` leaves; then it stores the fields and
    calls ``__post_init__``, if the class has one; that may normalise a
    field with ``object.__setattr__``.  Assignment and deletion raise
    AttributeError; equality, hash and repr go by the fields.
    """

    field_names: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        notes = cls.__annotations__
        names = tuple(name for name, kind in notes.items()
                      if not str(kind).startswith(("ClassVar", "typing.ClassVar")))
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in cls.__dict__ else name
                           for name in names)
        fields = ", ".join(f"{name!r}: {name}" for name in names)
        guards = {"float": "", "float | None": "{} is not None and "}
        checks = "".join(f"    if {guards[notes[name]].format(name)}not -_inf < {name} < _inf:\n"
                         f"        raise ValueError('{name} must be finite')\n"
                         for name in names if notes[name] in guards)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        scope = {"_setattr": object.__setattr__, "_defaults": cls.__dict__, "_inf": math.inf}
        exec(f"def __init__(self, {params}):\n{checks}"
             f"    _setattr(self, '__dict__', {{{fields}}}){post}", scope)
        init = scope["__init__"]
        init.__annotations__ = {**{name: notes[name] for name in names}, "return": None}
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls.field_names = init, names

    def field_values(self) -> tuple:
        """The field values in declaration order."""
        return tuple(self.__dict__.values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.field_values() == other.field_values()

    def __hash__(self):
        return hash(self.field_values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.field_names, self.field_values()))
        return f"{type(self).__qualname__}({fields})"


class PhysicalConstants(Record):
    """Pinned CODATA-2018 values. Printed by the CLI ``constants`` command
    so numeric drift between environments is auditable."""

    elementary_charge: float = 1.602176634e-19     # C (exact)
    atomic_mass_unit: float = 1.66053906660e-27    # kg
    vacuum_permittivity: float = 8.8541878128e-12  # F/m
    reduced_planck: float = 1.054571817e-34        # J s (exact)
    euler_number: float = math.e


CONST = PhysicalConstants()

# Coulomb constant, q-independent prefactor of the pair potential
K_COULOMB = 1.0 / (4.0 * math.pi * CONST.vacuum_permittivity)


class NumericalError(Exception):
    """A computation failed on valid inputs; the CLI exits 3 on it."""


class IonSpecies(Record):
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


class TrapConfig(Record):
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


class RotationInput(Record):
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


@contextmanager
def open_output(path, newline=None):
    """Open ``<path>.part`` for writing text; it replaces ``path`` once the
    block exits cleanly and is removed on any failure, so ``path`` holds
    its old bytes or the whole new file."""
    part = f"{path}.part"
    try:
        with open(part, "w", newline=newline) as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(part)
        raise


# rows formatted, checked and written at a time, so no string holds a whole
# table; a block's buffers stay near 20 kB, because blocks of ~150 kB left
# megabytes of freed holes in the C heap that the process kept
_BLOCK_ROWS = 128


def _cell_blocks(path, header: Sequence[str], rows) -> Iterable[list]:
    """The header's cells, then each block of up to ``_BLOCK_ROWS`` rows, as
    one flat list of cells per block; a row not the header's width raises."""
    width = len(header)
    ragged = f"{path}: every row must have the header's {width} cells"
    yield ["" if cell is None else cell for cell in header]
    if hasattr(rows, "ndim"):  # an array, read without importing numpy
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(ragged)
        for start in range(0, rows.shape[0], _BLOCK_ROWS):
            yield rows[start:start + _BLOCK_ROWS].ravel().tolist()
        return
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_ROWS)):
        if set(map(len, block)) != {width}:
            raise ValueError(ragged)
        yield ["" if cell is None else cell for row in block for cell in row]


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one output table in the csv module's default format.

    Every table goes through here.  ``rows`` is an iterable of rows or a
    2-D array; pass an array as it is, not as ``.tolist()``: the text is
    the same, and each block of it is formatted in one call.  A cell is its
    ``str()``, so a float is its shortest repr and reads back bit for bit;
    None in a row that is not an array is the empty cell that marks a gap;
    lines end in CRLF.  No cell is quoted: a ValueError rejects a header of
    fewer than two names, a ragged row or an array of another width or
    dimension, and a cell that holds a comma, quote, CR or LF.  The table is
    written through ``open_output``, so a rejected table leaves the
    directory as it was.
    """
    width = len(header)
    if width < 2:
        raise ValueError(f"{path}: a table needs at least two columns, got {width}")
    line = ",".join(["%s"] * width) + "\n"
    with open_output(path, newline="\r\n") as fh:
        for cells in _cell_blocks(path, header, rows):
            n = len(cells) // width
            text = (line * n) % tuple(cells)
            # with n lines of `width` cells, any other count of commas or LFs is a cell's
            if (text.count(",") != n * (width - 1)
                    or text.count("\n") != n or '"' in text or "\r" in text):
                raise ValueError(f"{path}: a cell holds a comma, quote, CR or LF")
            fh.write(text)

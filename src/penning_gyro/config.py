"""Flat key=value run configuration shared by every CLI subcommand.

The file format is intentionally plain: one ``key = value`` per line,
``#`` comments, everything else rejected.  Each CLI ``--set`` flag is one
more such line, read after the file; a later line wins over an earlier
one, and every line wins over the built-in defaults (the 1 T / 100 V /
z0 = 1 cm Ca+ operating point with the wall locked to the axial
frequency).
"""
from __future__ import annotations

from collections.abc import Sequence

from .core import CA40, IonSpecies, Record, TrapConfig
from .modes import ModeFrequencies, compute_modes


class ConfigError(ValueError):
    pass


class RunConfig(Record):
    b_field_t: float = 1.0
    trap_voltage_v: float = 100.0
    char_length_m: float = 0.01
    wall_ratio: float = 1.0          # rotating wall: omega_r = wall_ratio * omega_z
    wall_delta: float = 0.01
    # crystal size used for geometry; spin count used for the readout
    n_crystal: int = 1000
    n_spins: int = 10000
    q_factor: float = 1e6
    odf_force_n: float = 1e-22       # 100 yN
    decay_rate_hz: float = 100.0
    precession_s: float = 0.01
    cycle_s: float = 0.05
    seed: int = 0

    def ion(self) -> IonSpecies:
        return CA40

    def trap(self) -> TrapConfig:
        return TrapConfig(b_field=self.b_field_t, trap_voltage=self.trap_voltage_v,
                          char_length_z0=self.char_length_m)

    def modes(self) -> ModeFrequencies:
        return compute_modes(self.ion(), self.trap())

    def wall(self, modes: ModeFrequencies) -> RotatingWallConfig:
        from .shape import RotatingWallConfig

        return RotatingWallConfig(omega_r=self.wall_ratio * modes.omega_z,
                                  delta=self.wall_delta)


_FIELD_TYPES = {name: RunConfig.__annotations__[name] for name in RunConfig.field_names}


def _coerce(key: str, raw: str):
    if _FIELD_TYPES[key] == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"field {key!r} expects an integer, got {raw!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"field {key!r} expects a number, got {raw!r}") from None


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_config(path: str | None, overrides: Sequence[str] = ()) -> RunConfig:
    """Defaults, then the file, then one config line per override; later lines win."""
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                values.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
    values.update(parse_config_text("\n".join(overrides)))
    return RunConfig(**values)

"""Design-chain simulator for a trapped-ion vibration gyroscope.

The chain from constants to the sensing budget (trap modes, crystal shape,
rotation response, readout) is pure Python.  The numpy layers, single-ion
``dynamics`` and the N-body ``equilibrium``, are imported on first access
to one of their names (PEP 562), so ``import penning_gyro`` loads neither
numpy nor scipy.  scipy is imported inside the functions that call it:
only the N-body crystal loads it.
"""

import importlib

from .core import (
    CA40,
    CONST,
    IonSpecies,
    PhysicalConstants,
    RotationInput,
    TrapConfig,
)
from .modes import ModeFrequencies, UnstableTrapError, compute_modes, freq_difference_sweep
from .shape import (
    RotatingWallConfig,
    SpheroidGeometry,
    aspect_ratio_from_beta,
    oracle_aspect_ratio_depolarization,
    planarity_check,
    shape_beta,
    shape_sweep,
    spheroid_dimensions,
)
from .response import OscillatorParams
from .sensing import EnsembleSpec, ODFParams, SensitivityBudget, build_budget

__version__ = "0.1.0"

# the numpy layers' public names -> the module that defines each
_LAZY = {
    **dict.fromkeys(("IntegratorConfig", "ParticleState", "Trajectory", "extract_spectrum",
                     "integrate", "magnetron_orbit_state"), "dynamics"),
    **dict.fromkeys(("IonConfiguration", "RelaxationConfig", "forces", "measured_shape",
                     "relax", "rotating_frame_potential"), "equilibrium"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *_LAZY])

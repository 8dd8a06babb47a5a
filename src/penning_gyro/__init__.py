"""Design-chain simulator for a trapped-ion vibration gyroscope.

The chain from constants to the sensing budget (trap modes, crystal shape,
rotation response, readout) is pure Python; the single-ion ``dynamics``
and the N-body ``equilibrium`` use numpy.  Every public name resolves on
first access (PEP 562), so ``import penning_gyro`` loads no submodule:
a program loads the modules whose names it uses, and neither numpy nor
scipy until it uses a numpy layer.  scipy is imported inside the
functions that call it: only the N-body crystal loads it, and only
``scipy.spatial`` (its L-BFGS is in-package).  The records derive from
``core.Record``, so no module imports ``dataclasses``.
"""

import importlib

__version__ = "0.1.0"

# every public name -> the module that defines it
_LAZY = {
    **dict.fromkeys(("CA40", "CONST", "IonSpecies", "PhysicalConstants", "RotationInput",
                     "TrapConfig"), "core"),
    **dict.fromkeys(("ModeFrequencies", "UnstableTrapError", "compute_modes",
                     "freq_difference_sweep"), "modes"),
    **dict.fromkeys(("RotatingWallConfig", "SpheroidGeometry", "aspect_ratio_from_beta",
                     "oracle_aspect_ratio_depolarization", "planarity_check", "shape_beta",
                     "shape_sweep", "spheroid_dimensions"), "shape"),
    "OscillatorParams": "response",
    **dict.fromkeys(("EnsembleSpec", "ODFParams", "SensitivityBudget", "build_budget"),
                    "sensing"),
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

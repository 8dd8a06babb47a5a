"""Design-chain simulator for a trapped-ion vibration gyroscope.

scipy is imported inside the functions that call it, so the paths that
never need it (trap modes, single-ion dynamics and its spectrum, figures
1-6, the sensing budget) start without loading it; only the N-body crystal
loads it.
"""

from .core import (
    CA40,
    CONST,
    IonSpecies,
    PhysicalConstants,
    RotationInput,
    StabilityReport,
    TrapConfig,
    validate_stability,
)
from .modes import ModeFrequencies, UnstableTrapError, compute_modes, freq_difference_sweep
from .dynamics import (
    IntegratorConfig,
    ParticleState,
    Trajectory,
    extract_spectrum,
    integrate,
    magnetron_orbit_state,
)
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
from .equilibrium import (
    IonConfiguration,
    RelaxationConfig,
    forces,
    measured_shape,
    relax,
    rotating_frame_potential,
)
from .response import OscillatorParams, transfer_gain, z_amplitude
from .sensing import (
    EnsembleSpec,
    ODFParams,
    SensitivityBudget,
    angle_random_walk,
    averaged_sensitivity,
    build_budget,
    population_difference,
    precession_angle,
    ramsey_population,
    rotation_sensitivity,
    single_shot_amplitude_resolution,
)

__version__ = "0.1.0"

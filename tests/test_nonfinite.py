"""Non-finite floats are rejected as a class.

Every public dataclass and public function of the package that takes a
float is found with ``inspect``; each float parameter gets NaN, +inf and
-inf in turn, the others held at a valid baseline, and must raise a
``ValueError`` whose message names it.  A new float field or parameter
fails here until the table below gives it a baseline.
"""
import dataclasses
import importlib
import inspect
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import penning_gyro
from penning_gyro.core import CA40, CONST, TrapConfig
from penning_gyro.modes import compute_modes
from penning_gyro.response import OscillatorParams
from penning_gyro.sensing import EnsembleSpec, ODFParams, build_budget

MODES = compute_modes(CA40, TrapConfig(1.0, 100.0, 0.01))
OSC = OscillatorParams(omega_z=1.55e6, omega_r=1.5e6, quality_factor=1e6)
ODF = ODFParams(f0=1e-22, tau=0.01, gamma=100.0)
ENSEMBLE = EnsembleSpec(10000)
BUDGET_ARGS = {"ens": ENSEMBLE, "odf": ODF, "scale_factor": 1e-3, "cycle_time": 0.05}

# a valid call of each target; every float parameter must appear here
BASELINES = {
    "config.RunConfig": {"b_field_t": 1.0, "trap_voltage_v": 100.0, "char_length_m": 0.01,
                         "wall_ratio": 1.0, "wall_delta": 0.01, "q_factor": 1e6,
                         "odf_force_n": 1e-22, "decay_rate_hz": 100.0, "precession_s": 0.01,
                         "cycle_s": 0.05},
    "core.PhysicalConstants": dataclasses.asdict(CONST),
    "core.IonSpecies": {"name": "Ca+", "mass": CA40.mass, "charge": CA40.charge},
    "core.TrapConfig": {"b_field": 1.0, "trap_voltage": 100.0, "char_length_z0": 0.01},
    "core.RotationInput": {"omega_x": 10.0},
    "dynamics.IntegratorConfig": {"time_step": 1e-9, "total_time": 1e-6},
    "dynamics.magnetron_orbit_state": {"radius": 25e-6, "modes": MODES},
    "dynamics.SpectralPeak": {"frequency": 1e5, "power": 1.0},
    "equilibrium.RelaxationConfig": {"force_tolerance": 1e-21},
    "equilibrium.ConvergenceReport": {"converged": True, "final_energy": 1e-20,
                                      "max_force": 1e-22, "iterations": 10,
                                      "restarts_used": 0},
    "equilibrium.ShapeStats": {"alpha": 0.05, "r_cl": 4e-4, "spacing_median": 2.6e-5,
                               "spacing_spread": 1e-6, "low_confidence": False},
    "modes.ModeFrequencies": dataclasses.asdict(MODES),
    "modes.SweepPoint": {"b_field": 1.0, "voltage": 100.0, "fz_minus_fm": 1e5},
    "modes.freq_difference_sweep": {"species": CA40, "z0": 0.01, "b_list": [1.0],
                                    "v_grid": [100.0]},
    "response.OscillatorParams": dataclasses.asdict(OSC),
    "response.z_amplitude": {"omega_x": 10.0, "y_amp": 1e-4, "params": OSC},
    "response.rotation_scale_factor": {"r_cl": 2.2e-4, "params": OSC},
    "sensing.ODFParams": dataclasses.asdict(ODF),
    "sensing.precession_angle": {"odf": ODF, "zc": 1e-9},
    "sensing.ramsey_population": {"theta": 0.1, "gamma": 100.0, "tau": 0.01},
    "sensing.population_difference": {"theta_max": 0.1, "gamma": 100.0, "tau": 0.01},
    "sensing.population_snr": {"ens": ENSEMBLE, "odf": ODF, "zc": 1e-9},
    "sensing.averaged_sensitivity": {"single_shot": 1e-9, "cycle_time": 0.05},
    "sensing.rotation_sensitivity": {"amplitude_asd": 1e-12, "scale_factor": 1e-3},
    "sensing.angle_random_walk": {"rotation_asd": 1e-9},
    "sensing.SensitivityBudget": dataclasses.asdict(build_budget(**BUDGET_ARGS)),
    "sensing.build_budget": BUDGET_ARGS,
    "shape.RotatingWallConfig": {"omega_r": 1.55e6, "delta": 0.01},
    "shape.SpheroidGeometry": {"r_cl": 1e-4, "z_cl": 1e-5, "density_n": 1e12},
    "shape.shape_beta": {"modes": MODES, "omega_r": MODES.omega_z},
    "shape.axial_depolarization": {"alpha": 0.5},
    "shape.aspect_ratio_from_beta": {"beta": 0.05},
    "shape.oracle_aspect_ratio_depolarization": {"beta": 0.05},
    "shape.coulomb_trap_length": {"species": CA40, "omega_z": 1.55e6},
    "shape.spheroid_dimensions": {"n_ions": 1000, "alpha": 0.07, "beta": 0.05,
                                  "omega_z": 1.55e6, "species": CA40},
    "shape.planarity_check": {"beta": 0.05, "delta": 0.01},
    "shape.ShapeSweepRow": {"omega_r": 1.5e6, "omega_r_over_omega_z": 1.0,
                            "normalized_freq": 0.5, "beta": 0.05, "alpha": 0.07,
                            "r_cl": 4e-4, "z_cl": 3e-5},
    "shape.shape_sweep": {"species": CA40, "modes": MODES,
                          "omega_r_grid": [MODES.omega_z], "n_ions": 1000.0},
}

# the explicit exceptions, each with its reason
ALLOWED = {
    # Q = inf means undamped; transfer_gain raises for it at omega_r = omega_z
    ("response.OscillatorParams", "quality_factor", math.inf),
}
UNGUARDED = {
    # runs ~20 times per shape solve, always from aspect_ratio_from_beta,
    # which checks beta first and feeds grid alphas
    "shape.cold_fluid_residual",
}

SOURCES = sorted(p.stem for p in Path(penning_gyro.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


def _is_float(annotation) -> bool:
    # annotations are strings (from __future__ import annotations); a
    # float | None field is a float with a gap marker
    return "float" in str(annotation).split(" | ")


def _targets() -> dict:
    """module.name -> (object, its float parameters) for every public
    dataclass and function that takes a float."""
    found = {}
    for stem in SOURCES:
        module = importlib.import_module(f"penning_gyro.{stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj)
                    or inspect.isclass(obj) and dataclasses.is_dataclass(obj)):
                continue
            floats = [p.name for p in inspect.signature(obj).parameters.values()
                      if _is_float(p.annotation)]
            if floats:
                found[f"{stem}.{name}"] = (obj, floats)
    return found


TARGETS = _targets()
CASES = [(key, param) for key, (_, floats) in TARGETS.items() if key not in UNGUARDED
         for param in floats]


def test_every_float_parameter_has_a_baseline():
    assert len(TARGETS) >= 35  # the walk found the package
    missing = [f"{key}({param})" for key, param in CASES
               if param not in BASELINES.get(key, {})]
    assert missing == []
    assert UNGUARDED <= set(TARGETS)  # no stale exception
    assert set(BASELINES) == set(TARGETS) - UNGUARDED


@pytest.mark.parametrize("key", sorted(set(TARGETS) - UNGUARDED))
def test_baseline_is_valid(key):
    TARGETS[key][0](**BASELINES[key])


@pytest.mark.parametrize("key, param", CASES, ids=[f"{k}.{p}" for k, p in CASES])
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_float_is_rejected_by_name(key, param, bad):
    if (key, param, bad) in ALLOWED:
        return
    target = TARGETS[key][0]
    with pytest.raises(ValueError, match=rf"(?<!\w){re.escape(param)}(?!\w)"):
        target(**{**BASELINES[key], param: bad})

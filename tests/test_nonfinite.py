"""Non-finite floats are rejected as a class.

Every public record and public function of the package that takes a
float is found with ``inspect``; each float parameter gets NaN, +inf and
-inf in turn, the others held at a valid baseline, and must raise a
``ValueError`` whose message names it; none is exempt.  A new float
field or parameter fails here until the table below gives it a baseline.
"""
import importlib
import inspect
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import penning_gyro
from penning_gyro.core import CA40, CONST, Record, TrapConfig
from penning_gyro.modes import compute_modes
from penning_gyro.response import OscillatorParams
from penning_gyro.sensing import EnsembleSpec, ODFParams, build_budget

MODES = compute_modes(CA40, TrapConfig(1.0, 100.0, 0.01))
OSC = OscillatorParams(omega_z=1.55e6, omega_r=1.5e6, quality_factor=1e6)
ODF = ODFParams(f0=1e-22, tau=0.01, gamma=100.0)
ENSEMBLE = EnsembleSpec(10000)
BUDGET_ARGS = {"ens": ENSEMBLE, "odf": ODF, "scale_factor": 1e-3, "cycle_time": 0.05}


def _fields(record: Record) -> dict:
    return dict(zip(record.field_names, record.field_values()))


# a valid call of each target; every float parameter must appear here
BASELINES = {
    "config.RunConfig": {"b_field_t": 1.0, "trap_voltage_v": 100.0, "char_length_m": 0.01,
                         "wall_ratio": 1.0, "wall_delta": 0.01, "q_factor": 1e6,
                         "odf_force_n": 1e-22, "decay_rate_hz": 100.0, "precession_s": 0.01,
                         "cycle_s": 0.05},
    "core.PhysicalConstants": _fields(CONST),
    "core.IonSpecies": {"name": "Ca+", "mass": CA40.mass, "charge": CA40.charge},
    "core.TrapConfig": {"b_field": 1.0, "trap_voltage": 100.0, "char_length_z0": 0.01},
    "core.RotationInput": {"omega_x": 10.0},
    "dynamics.IntegratorConfig": {"time_step": 1e-9, "total_time": 1e-6},
    "dynamics.magnetron_orbit_state": {"radius": 25e-6, "modes": MODES},
    "dynamics.SpectralPeak": {"frequency": 1e5, "power": 1.0},
    "equilibrium.ConvergenceReport": {"converged": True, "final_energy": 1e-20,
                                      "max_force": 1e-22, "iterations": 10,
                                      "evaluations": 12, "restarts_used": 0},
    "equilibrium.ShapeStats": {"alpha": 0.05, "r_cl": 4e-4, "spacing_median": 2.6e-5,
                               "spacing_spread": 1e-6, "low_confidence": False},
    "modes.ModeFrequencies": _fields(MODES),
    "modes.SweepPoint": {"b_field": 1.0, "voltage": 100.0, "fz_minus_fm": 1e5},
    "modes.freq_difference_sweep": {"species": CA40, "z0": 0.01, "b_list": [1.0],
                                    "v_grid": [100.0]},
    "response.OscillatorParams": _fields(OSC),
    "response.rotation_scale_factor": {"r_cl": 2.2e-4, "params": OSC},
    "sensing.ODFParams": _fields(ODF),
    "sensing.SensitivityBudget": _fields(build_budget(**BUDGET_ARGS)),
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

SOURCES = sorted(p.stem for p in Path(penning_gyro.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


def _is_float(annotation) -> bool:
    # annotations are strings (from __future__ import annotations); a
    # float | None field is a float with a gap marker, and Positive is a float
    return not {"float", "Positive"}.isdisjoint(str(annotation).split(" | "))


def _targets() -> dict:
    """module.name -> (object, its float parameters) for every public
    record and function that takes a float."""
    found = {}
    for stem in SOURCES:
        module = importlib.import_module(f"penning_gyro.{stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj)
                    or inspect.isclass(obj) and issubclass(obj, Record) and obj is not Record):
                continue
            floats = [p.name for p in inspect.signature(obj).parameters.values()
                      if _is_float(p.annotation)]
            if floats:
                found[f"{stem}.{name}"] = (obj, floats)
    return found


TARGETS = _targets()
CASES = [(key, param) for key, (_, floats) in TARGETS.items() for param in floats]


def test_every_float_parameter_has_a_baseline():
    assert len(TARGETS) >= 29  # the walk found the package
    missing = [f"{key}({param})" for key, param in CASES
               if param not in BASELINES.get(key, {})]
    assert missing == []
    assert set(BASELINES) == set(TARGETS)


@pytest.mark.parametrize("key", sorted(TARGETS))
def test_baseline_is_valid(key):
    TARGETS[key][0](**BASELINES[key])


@pytest.mark.parametrize("key, param", CASES, ids=[f"{k}.{p}" for k, p in CASES])
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_float_is_rejected_by_name(key, param, bad):
    target = TARGETS[key][0]
    with pytest.raises(ValueError, match=rf"(?<!\w){re.escape(param)}(?!\w)"):
        target(**{**BASELINES[key], param: bad})

"""Canned study datasets behind the CLI ``fig`` subcommand.

Each generator writes deterministic CSV files into an output directory
and returns the list of paths.  Scenario constants that are pinned by the
study design (the 10 V / 10 rad/s single-particle runs, the 1/2/3 T sweep,
the 10/50/100 V shape comparisons) live here and are documented in the
README plotting recipes.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .config import RunConfig
from .core import RotationInput, TrapConfig, write_csv
from .dynamics import (
    IntegratorConfig,
    default_time_step,
    integrate,
    magnetron_orbit_state,
    write_spectrum_csv,
    write_trajectory_csv,
)
from .modes import compute_modes, freq_difference_sweep, write_sweep_csv
from .shape import aspect_ratio_from_beta, shape_beta, shape_sweep, write_shape_csv

SINGLE_PARTICLE_VOLTAGE = 10.0    # V
SINGLE_PARTICLE_OMEGA_X = 10.0    # rad/s
SINGLE_PARTICLE_RADIUS = 25e-6    # m (50 um orbit diameter)
SWEEP_B_FIELDS = (1.0, 2.0, 3.0)  # T
SWEEP_VOLTAGE_GRID = np.linspace(2.5, 125.0, 50)
SHAPE_VOLTAGES = (10.0, 50.0, 100.0)  # V


def _single_particle_run(config: RunConfig, total_time: float | None, stride: int):
    """Pinned 10 V / 10 rad/s magnetron-orbit run; total_time=None means
    three magnetron periods."""
    species = config.ion()
    trap = TrapConfig(b_field=config.b_field_t,
                      trap_voltage=SINGLE_PARTICLE_VOLTAGE,
                      char_length_z0=config.char_length_m)
    modes = compute_modes(species, trap)
    if total_time is None:
        total_time = 3.0 * 2.0 * math.pi / modes.omega_m
    state0 = magnetron_orbit_state(SINGLE_PARTICLE_RADIUS, modes)
    cfg = IntegratorConfig(time_step=default_time_step(species, trap),
                           total_time=total_time, sample_stride=stride)
    rot = RotationInput(omega_x=SINGLE_PARTICLE_OMEGA_X)
    return integrate(state0, species, trap, rot, cfg)


def fig1_orbit(config: RunConfig, outdir: str) -> list[str]:
    """xy magnetron orbit of the pinned single-particle scenario."""
    traj = _single_particle_run(config, total_time=None, stride=4)
    path = os.path.join(outdir, "fig1_trajectory.csv")
    write_trajectory_csv(traj, path)
    return [path]


def fig2_axial_response(config: RunConfig, outdir: str) -> list[str]:
    """Axial oscillation driven by the rotation input: t vs z plus its
    power spectrum."""
    traj = _single_particle_run(config, total_time=2e-3, stride=8)
    path = os.path.join(outdir, "fig2_axial.csv")
    write_csv(path, ["t", "z"],
              np.column_stack([traj.times, traj.positions[:, 2]]))
    spec_path = os.path.join(outdir, "fig2_spectrum.csv")
    write_spectrum_csv(traj, "z", spec_path)
    return [path, spec_path]


def fig3_freq_difference(config: RunConfig, outdir: str) -> list[str]:
    """f_z - f_m over the B x V grid, gaps at unstable points."""
    points = freq_difference_sweep(config.ion(), config.char_length_m,
                                   SWEEP_B_FIELDS, SWEEP_VOLTAGE_GRID)
    path = os.path.join(outdir, "fig3_freq_difference.csv")
    write_sweep_csv(points, path)
    return [path]


def _omega_r_from_beta(modes, beta: float) -> float:
    """Lower root of omega_r (omega_c - omega_r) = (beta + 1/2) omega_z^2."""
    disc = modes.omega_c ** 2 - 4.0 * (beta + 0.5) * modes.omega_z ** 2
    return 0.5 * (modes.omega_c - math.sqrt(disc))


def fig4_shape_collapse(config: RunConfig, outdir: str) -> list[str]:
    """Aspect ratio vs normalized frequency for three voltages.

    The three curves are evaluated at matched normalized frequency; the
    last column carries the maximum pairwise relative deviation so the
    collapse onto one line is a computed fact in the file.
    """
    species = config.ion()
    beta_grid = np.linspace(0.005, 0.10, 39)
    all_modes = [compute_modes(species, TrapConfig(config.b_field_t, v,
                                                   config.char_length_m))
                 for v in SHAPE_VOLTAGES]
    rows = []
    for beta in beta_grid:
        alphas = [aspect_ratio_from_beta(shape_beta(m, _omega_r_from_beta(m, beta)))
                  for m in all_modes]
        spread = max(abs(a - b) / a for a in alphas for b in alphas)
        rows.append([1.0 / (2.0 * beta + 1.0), beta, *alphas, spread])
    path = os.path.join(outdir, "fig4_shape_collapse.csv")
    write_csv(path, ["normalized_freq", "beta"]
              + [f"alpha_v{int(v)}" for v in SHAPE_VOLTAGES]
              + ["max_pairwise_rel_dev"], rows)
    return [path]


def _wall_grid(modes):
    """80 wall frequencies just inside the (omega_m, Omega_m) window."""
    return np.linspace(modes.omega_m * 1.001, modes.omega_cap_m * 0.999, 80)


def fig5_shape_vs_wall(config: RunConfig, outdir: str) -> list[str]:
    """Aspect ratio vs omega_r/omega_z for three voltages (long format)."""
    species = config.ion()
    rows = []
    for v in SHAPE_VOLTAGES:
        modes = compute_modes(species, TrapConfig(config.b_field_t, v,
                                                  config.char_length_m))
        rows += [(v, r.omega_r, r.omega_r_over_omega_z, r.beta, r.alpha)
                 for r in shape_sweep(species, modes, _wall_grid(modes))]
    path = os.path.join(outdir, "fig5_shape_vs_wall.csv")
    write_csv(path, ["v_volts", "omega_r_rad_s", "omega_r_over_omega_z",
                     "beta", "alpha"], rows)
    return [path]


def fig6_cloud_dimensions(config: RunConfig, outdir: str) -> list[str]:
    """Spheroid dimensions vs wall frequency at the 100 V operating point."""
    species = config.ion()
    modes = compute_modes(species, TrapConfig(config.b_field_t, 100.0,
                                              config.char_length_m))
    rows = shape_sweep(species, modes, _wall_grid(modes),
                       n_ions=config.n_crystal)
    path = os.path.join(outdir, "fig6_cloud_dimensions.csv")
    write_shape_csv(rows, path)
    return [path]


FIGURES = {
    1: fig1_orbit,
    2: fig2_axial_response,
    3: fig3_freq_difference,
    4: fig4_shape_collapse,
    5: fig5_shape_vs_wall,
    6: fig6_cloud_dimensions,
}


def generate_figure(figure_id: int, config: RunConfig, outdir: str) -> list[str]:
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id}; valid: 1..6")
    return FIGURES[figure_id](config, outdir)

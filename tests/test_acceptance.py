"""End-to-end acceptance gate.

One test per release criterion; each prints a single PASS/FAIL line with
the measured numbers before asserting, so the tee'd pytest log doubles as
the sign-off sheet.  Criterion 5 checks the aspect-ratio maximum against
the Brillouin limit of the stated 1 T / 100 V / z0 = 1 cm trap: since
omega_r (omega_c - omega_r) <= omega_c^2 / 4, beta never exceeds
beta_B = omega_c^2 / (4 omega_z^2) - 1/2, and alpha, which rises with beta,
peaks at omega_r = omega_c / 2 with alpha_B = alpha(beta_B) = 0.127.  The
test computes alpha_B itself from a closed form that shares no code with
``penning_gyro.shape``.  An aspect ratio of 0.3 needs beta = 0.256, the
Brillouin maximum near 80 V, and is out of reach at 100 V.
"""
import math
import time

import numpy as np
from scipy.optimize import brentq

from penning_gyro.core import CA40, RotationInput, TrapConfig
from penning_gyro.dynamics import (
    IntegratorConfig,
    ParticleState,
    default_time_step,
    extract_spectrum,
    integrate,
    magnetron_orbit_state,
)
from penning_gyro.equilibrium import (
    IonConfiguration,
    RelaxationConfig,
    forces,
    measured_shape,
    relax,
    rotating_frame_potential,
)
from penning_gyro.modes import compute_modes, freq_difference_sweep
from penning_gyro.response import OscillatorParams, rotation_scale_factor
from penning_gyro.sensing import EnsembleSpec, ODFParams, build_budget
from penning_gyro.shape import (
    _cold_fluid_residual,
    RotatingWallConfig,
    aspect_ratio_from_beta,
    coulomb_trap_length,
    oracle_aspect_ratio_depolarization,
    shape_beta,
    spheroid_dimensions,
)

from instruments import closed_form_alpha, driven_amplitude, max_stable_voltage

TRAP10 = TrapConfig(1.0, 10.0, 0.01)
TRAP100 = TrapConfig(1.0, 100.0, 0.01)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {number:02d} [{name}]: "
          f"{'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def test_criterion_01_mode_frequencies():
    modes = compute_modes(CA40, TRAP10)
    analytic_ok = (_within(modes.f_m, 8e3, 0.02)
                   and _within(modes.f_z, 78e3, 0.02)
                   and _within(modes.f_cap_m, 383e3, 0.02))

    t0 = time.time()
    state0 = ParticleState(
        position=np.array([25e-6, 0.0, 10e-6]),
        velocity=np.array([0.0, -0.5 * modes.omega_m * 25e-6, 0.0]))
    cfg = IntegratorConfig(time_step=default_time_step(CA40, TRAP10),
                           total_time=10e-3, sample_stride=4)
    traj = integrate(state0, CA40, TRAP10, RotationInput(0.0), cfg)
    res = 1.0 / cfg.total_time
    f_z_ode = extract_spectrum(traj, "z")[0].frequency
    radial = sorted(p.frequency for p in extract_spectrum(traj, "x")[:2])
    elapsed = time.time() - t0
    ode_ok = (abs(f_z_ode - modes.f_z) < 2 * res
              and abs(radial[0] - modes.f_m) < 2 * res
              and abs(radial[1] - modes.f_cap_m) < 2 * res
              and elapsed < 30.0)
    _report(1, "mode frequencies", analytic_ok and ode_ok,
            f"f_m={modes.f_m / 1e3:.2f} kHz, f_z={modes.f_z / 1e3:.2f} kHz, "
            f"f_M={modes.f_cap_m / 1e3:.2f} kHz; spectrum peaks "
            f"{radial[0] / 1e3:.2f}/{f_z_ode / 1e3:.2f}/{radial[1] / 1e3:.2f} kHz "
            f"in {elapsed:.1f} s")


def test_criterion_02_sweep_positivity_and_edge():
    grid = np.linspace(2.5, 125.0, 50)
    points = freq_difference_sweep(CA40, 0.01, [1.0, 2.0, 3.0], grid)
    stable = [p for p in points if p.fz_minus_fm is not None]
    positive = all(p.fz_minus_fm > 0.0 for p in stable)
    edge_grid = max(p.voltage for p in stable if p.b_field == 1.0)
    edge_exact = max_stable_voltage(CA40, 1.0, 0.01)
    edge_ok = _within(edge_exact, 120.0, 0.05)
    _report(2, "frequency-difference sweep", positive and edge_ok,
            f"{len(stable)}/{len(points)} stable points all positive; "
            f"1 T edge {edge_exact:.1f} V (last stable grid point "
            f"{edge_grid:.1f} V)")


def test_criterion_03_orbit_and_coriolis_amplitude():
    modes = compute_modes(CA40, TRAP10)
    state0 = magnetron_orbit_state(25e-6, modes)
    cfg = IntegratorConfig(time_step=default_time_step(CA40, TRAP10),
                           total_time=3.0 * 2.0 * math.pi / modes.omega_m)
    traj = integrate(state0, CA40, TRAP10, RotationInput(10.0), cfg)
    r = np.hypot(traj.positions[:, 0], traj.positions[:, 1])
    diameter = float(r.max() + r.min())  # max+min tracks the mean diameter
    z_amp = driven_amplitude(traj, modes.omega_m)
    diameter_ok = _within(diameter, 50e-6, 0.01)
    amp_ok = 2e-10 / 3.0 <= z_amp <= 2e-10 * 3.0
    _report(3, "orbit and rotation response", diameter_ok and amp_ok,
            f"orbit diameter {diameter * 1e6:.3f} um; z amplitude "
            f"{z_amp:.3e} m vs 2e-10 m band")


def test_criterion_04_beta_anchor():
    modes = compute_modes(CA40, TRAP100)
    beta = shape_beta(modes, modes.omega_z)
    _report(4, "beta anchor", abs(beta - 0.05) <= 0.005,
            f"beta={beta:.4f} at omega_r=omega_z, 100 V")


def test_criterion_05_collapse_and_alpha_maximum():
    all_modes = [compute_modes(CA40, TrapConfig(1.0, v, 0.01))
                 for v in (10.0, 50.0, 100.0)]
    worst = 0.0
    for beta in np.linspace(0.005, 0.10, 20):
        alphas = []
        for modes in all_modes:
            disc = modes.omega_c ** 2 - 4.0 * (beta + 0.5) * modes.omega_z ** 2
            omega_r = 0.5 * (modes.omega_c - math.sqrt(disc))
            alphas.append(aspect_ratio_from_beta(shape_beta(modes, omega_r)))
        worst = max(worst, (max(alphas) - min(alphas)) / min(alphas))
    collapse_ok = worst < 1e-10

    modes100 = all_modes[2]
    grid = np.linspace(modes100.omega_m * 1.001, modes100.omega_cap_m * 0.999, 201)
    alphas = np.array([aspect_ratio_from_beta(shape_beta(modes100, w))
                       for w in grid])
    i_max = int(np.argmax(alphas))
    rises_then_falls = (0 < i_max < alphas.size - 1
                        and np.all(np.diff(alphas[:i_max + 1]) > 0)
                        and np.all(np.diff(alphas[i_max:]) < 0))
    alpha_max = float(alphas[i_max])

    # Brillouin limit: omega_r (omega_c - omega_r) <= omega_c^2 / 4 bounds
    # beta, and alpha rises with beta, so the maximum sits at omega_c / 2.
    beta_b = modes100.omega_c ** 2 / (4.0 * modes100.omega_z ** 2) - 0.5
    alpha_b = closed_form_alpha(beta_b)
    at_brillouin = abs(grid[i_max] - 0.5 * modes100.omega_c) <= grid[1] - grid[0]
    max_ok = abs(alpha_max - alpha_b) <= 1e-4 * alpha_b
    beta_for_03 = brentq(lambda b: closed_form_alpha(b) - 0.3, 0.01, 0.99)
    _report(5, "shape collapse and alpha maximum",
            collapse_ok and rises_then_falls and at_brillouin and max_ok,
            f"collapse spread {worst:.2e}; alpha rises then falls "
            f"({rises_then_falls}) with max {alpha_max:.5f} at "
            f"omega_r/omega_c={grid[i_max] / modes100.omega_c:.4f} "
            f"(within one grid step of 1/2: {at_brillouin}) vs Brillouin "
            f"alpha_B={alpha_b:.5f} at beta_B={beta_b:.4f} (rel dev "
            f"{abs(alpha_max - alpha_b) / alpha_b:.1e}, bound 1e-4); "
            f"alpha=0.3 would need beta={beta_for_03:.3f}")


def test_criterion_06_shape_relation_triangulation():
    betas = np.linspace(0.01, 0.99, 99)
    primary = [aspect_ratio_from_beta(b) for b in betas]
    residuals = [_cold_fluid_residual(a, b) for a, b in zip(primary, betas)]
    residual_ok = all(abs(r) < 1e-12 for r in residuals)
    oracle = [oracle_aspect_ratio_depolarization(b) for b in betas]
    monotone_ok = (all(a < b for a, b in zip(primary, primary[1:]))
                   and all(a < b for a, b in zip(oracle, oracle[1:])))
    anchor = oracle_aspect_ratio_depolarization(0.054)
    anchor_ok = abs(anchor - 0.067) <= 0.003
    _report(6, "shape relation triangulation",
            residual_ok and monotone_ok and anchor_ok,
            f"max residual {max(abs(r) for r in residuals):.2e}; "
            f"both routes monotone ({monotone_ok}); oracle alpha(0.054)="
            f"{anchor:.4f}")


def test_shape_solver_matches_arctan_closed_form():
    # the package's solver against criterion 5's closed form, which shares
    # no code with penning_gyro.shape
    betas = np.linspace(0.01, 0.99, 99)
    worst = max(abs(aspect_ratio_from_beta(b) / closed_form_alpha(b) - 1.0)
                for b in betas)
    assert worst <= 1e-9, f"max relative deviation {worst:.2e}"


def test_nbody_crystal_matches_cold_fluid_shape():
    # at the Brillouin point the relaxed N-body crystal, built from the trap
    # potential and Coulomb's law alone, against the cold-fluid spheroid
    modes = compute_modes(CA40, TRAP100)
    omega_r = 0.5 * modes.omega_c
    crystal, report = relax(300, CA40, modes,
                            RotatingWallConfig(omega_r=omega_r, delta=0.0),
                            RelaxationConfig(initial_seed=0))
    stats = measured_shape(crystal)
    radius, alpha = stats.r_cl, stats.alpha
    beta = shape_beta(modes, omega_r)
    r_cl = spheroid_dimensions(300, aspect_ratio_from_beta(beta), beta,
                               modes.omega_z, CA40).r_cl
    beta_b = modes.omega_c ** 2 / (4.0 * modes.omega_z ** 2) - 0.5
    alpha_b = closed_form_alpha(beta_b)
    assert report.converged
    assert abs(radius / r_cl - 1.0) <= 0.01, f"radius / r_cl = {radius / r_cl:.4f}"
    # a finite crystal is flatter than the cold-fluid limit
    assert 0.75 * alpha_b < alpha < alpha_b, f"alpha = {alpha:.4f}, alpha_B = {alpha_b:.4f}"


def test_criterion_07_spheroid_dimensions():
    modes = compute_modes(CA40, TRAP100)
    geom = spheroid_dimensions(1000, 0.16, 0.05, modes.omega_z, CA40)
    r_ok = 0.5 * 0.022e-2 <= geom.r_cl <= 1.5 * 0.022e-2
    n_back = (4.0 / 3.0) * math.pi * geom.density_n * geom.z_cl * geom.r_cl ** 2
    closure_ok = _within(n_back, 1000.0, 1e-9)
    _report(7, "spheroid dimensions", r_ok and closure_ok,
            f"r_cl={geom.r_cl * 1e2:.4f} cm vs 0.022 cm +-50%; "
            f"closure N={n_back:.9f}")


def test_criterion_08_coriolis_chain():
    modes = compute_modes(CA40, TRAP100)
    osc = OscillatorParams(omega_z=modes.omega_z, omega_r=modes.omega_z,
                           quality_factor=1e6)
    outer = 2 * rotation_scale_factor(0.022e-2, osc)  # the cloud average is half
    cloud = rotation_scale_factor(0.022e-2, osc)
    resonance_ok = (_within(outer, 0.028e-2, 0.05)
                    and _within(cloud, 0.014e-2, 0.05))

    # off-resonance cross-check against the integrator: magnetron-driven
    # axial response of a single particle at 10 V, 10 rad/s about x
    modes10 = compute_modes(CA40, TRAP10)
    state0 = magnetron_orbit_state(25e-6, modes10)
    cfg = IntegratorConfig(time_step=default_time_step(CA40, TRAP10),
                           total_time=3.0 * 2.0 * math.pi / modes10.omega_m)
    traj = integrate(state0, CA40, TRAP10, RotationInput(10.0), cfg)
    measured = driven_amplitude(traj, modes10.omega_m)
    # the integrator has no damping; off resonance Q = 1e12 gives the
    # undamped gain to the last bit
    high_q = OscillatorParams(omega_z=modes10.omega_z,
                              omega_r=modes10.omega_m,
                              quality_factor=1e12)
    predicted = 2 * 10.0 * rotation_scale_factor(25e-6, high_q)
    ode_ok = _within(measured, predicted, 0.05)
    _report(8, "rotation-to-amplitude chain", resonance_ok and ode_ok,
            f"resonance {outer * 1e2:.4f} cm / cloud "
            f"{cloud * 1e2:.4f} cm; off-resonance ODE {measured:.3e} m "
            f"vs closed form {predicted:.3e} m")


def test_criterion_09_sensitivity_budget():
    ens = EnsembleSpec(10000)
    odf = ODFParams(f0=1e-22, tau=0.01, gamma=100.0)  # Gamma tau = 1
    modes = compute_modes(CA40, TRAP100)
    scale = 1e6 * 0.022e-2 / modes.omega_z  # Q Y / omega_z at resonance
    budget = build_budget(ens, odf, scale, 0.05)  # 20 repetitions per second
    dz, asd = budget.delta_zc_single_shot, budget.amplitude_asd
    rot_asd, arw = budget.rotation_asd, budget.arw
    ok = (_within(dz, 2.0e-12, 0.05)
          and _within(asd, 0.4e-12, 0.15)
          and _within(rot_asd, 3.0e-9, 0.15)
          and arw == rot_asd * 60.0
          and _within(arw, 1.8e-7, 0.15))
    _report(9, "sensitivity budget", ok,
            f"dZc={dz * 1e12:.3f} pm, ASD={asd * 1e12:.3f} pm/rtHz, "
            f"rotation ASD={rot_asd:.3e} rad/s/rtHz, ARW={arw:.3e} rad/rth")


def test_criterion_10_nbody_invariants():
    modes = compute_modes(CA40, TRAP100)
    wall = RotatingWallConfig(omega_r=modes.omega_z, delta=0.01)
    a0 = coulomb_trap_length(CA40, modes.omega_z)

    rng = np.random.default_rng(42)
    h = 2e-6 * a0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        pos = rng.normal(scale=3 * a0, size=(n, 3))
        f = forces(IonConfiguration(pos), CA40, modes, wall)
        scale = np.max(np.abs(f))
        i, j = int(rng.integers(0, n)), int(rng.integers(0, 3))
        pp, pm = pos.copy(), pos.copy()
        pp[i, j] += h
        pm[i, j] -= h
        fd = -(rotating_frame_potential(IonConfiguration(pp), CA40, modes, wall)
               - rotating_frame_potential(IonConfiguration(pm), CA40, modes,
                                          wall)) / (2 * h)
        worst = max(worst, abs(fd - f[i, j]) / scale)
    fd_ok = worst < 1e-6

    two, _ = relax(2, CA40, modes, wall)
    d = float(np.linalg.norm(two.positions[0] - two.positions[1]))
    beta = shape_beta(modes, modes.omega_z)
    d_pred = a0 * (2.0 / (beta - wall.delta)) ** (1.0 / 3.0)
    two_ok = _within(d, d_pred, 1e-3)

    seven, _ = relax(7, CA40, modes,
                     RotatingWallConfig(omega_r=modes.omega_z, delta=0.0))
    radii = np.sort(np.hypot(seven.positions[:, 0], seven.positions[:, 1]))
    hex_ok = radii[0] < 0.01 * radii[1] and np.ptp(radii[1:]) < 1e-3 * radii[1]

    t0 = time.time()
    big, report = relax(1000, CA40, modes, wall,
                        RelaxationConfig(initial_seed=0))
    elapsed = time.time() - t0
    spacing = measured_shape(big).spacing_median
    big_ok = (report.converged and 10e-6 / 3.0 <= spacing <= 10e-6 * 3.0
              and elapsed < 600.0)
    _report(10, "n-body invariants", fd_ok and two_ok and hex_ok and big_ok,
            f"FD force dev {worst:.2e}; N=2 spacing {d * 1e6:.3f} um vs "
            f"{d_pred * 1e6:.3f} um; hexagon+center ({hex_ok}); N=1000 "
            f"spacing {spacing * 1e6:.2f} um in {elapsed:.0f} s")


def test_criterion_11_frequency_identities():
    rng = np.random.default_rng(0)
    worst_sum = worst_prod = 0.0
    for _ in range(1000):
        b = rng.uniform(0.5, 5.0)
        v = rng.uniform(1e-3, 0.999) * max_stable_voltage(CA40, b, 0.01)
        m = compute_modes(CA40, TrapConfig(b, v, 0.01))
        worst_sum = max(worst_sum,
                        abs((m.omega_m + m.omega_cap_m) / m.omega_c - 1.0))
        worst_prod = max(worst_prod,
                         abs(m.omega_m * m.omega_cap_m
                             / (0.5 * m.omega_z ** 2) - 1.0))
    ok = worst_sum < 1e-12 and worst_prod < 1e-12
    _report(11, "frequency identities", ok,
            f"max |sum dev|={worst_sum:.2e}, max |product dev|={worst_prod:.2e} "
            f"over 1000 random stable configs")

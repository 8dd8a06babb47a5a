import csv
import math

import numpy as np
import pytest

from penning_gyro.core import RotationInput, TrapConfig
from penning_gyro.dynamics import (
    IntegrationError,
    IntegratorConfig,
    ParticleState,
    Trajectory,
    _generator,
    default_time_step,
    extract_spectrum,
    integrate,
    magnetron_orbit_state,
    periodogram,
    write_spectrum_csv,
    write_trajectory_csv,
)
from penning_gyro.modes import compute_modes

from instruments import driven_amplitude

NO_ROTATION = RotationInput(0.0)


def _short_cfg(ca40, trap, n_fast_periods=40, stride=1):
    dt = default_time_step(ca40, trap)
    return IntegratorConfig(time_step=dt, total_time=n_fast_periods * 200 * dt,
                            sample_stride=stride)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(time_step=0.0, total_time=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(time_step=1e-3, total_time=1e-4)
    with pytest.raises(ValueError):
        IntegratorConfig(time_step=1e-6, total_time=1e-3, sample_stride=0)


def test_state_validation():
    with pytest.raises(ValueError):
        ParticleState(position=np.zeros(2), velocity=np.zeros(3))
    with pytest.raises(ValueError):
        ParticleState(position=np.array([np.nan, 0, 0]), velocity=np.zeros(3))


def test_magnetron_orbit_radius_conserved(ca40, trap10, modes10):
    state0 = magnetron_orbit_state(25e-6, modes10)
    traj = integrate(state0, ca40, trap10, NO_ROTATION,
                     _short_cfg(ca40, trap10))
    r = np.hypot(traj.positions[:, 0], traj.positions[:, 1])
    assert np.max(np.abs(r / 25e-6 - 1.0)) < 1e-6


def test_magnetron_rotation_is_clockwise(ca40, trap10, modes10):
    # ExB drift for positive charge, B = +z: angular momentum L_z < 0
    state0 = magnetron_orbit_state(25e-6, modes10)
    traj = integrate(state0, ca40, trap10, NO_ROTATION,
                     _short_cfg(ca40, trap10))
    l_z = (traj.positions[:, 0] * traj.velocities[:, 1]
           - traj.positions[:, 1] * traj.velocities[:, 0])
    assert np.all(l_z < 0.0)


def test_rk4_matches_rk45(ca40, trap10, modes10):
    from scipy.integrate import solve_ivp

    state0 = ParticleState(position=np.array([10e-6, 0.0, 5e-6]),
                           velocity=np.array([0.0, 0.1, 0.0]))
    rot = RotationInput(5.0)
    t4 = integrate(state0, ca40, trap10, rot,
                   _short_cfg(ca40, trap10, n_fast_periods=10))

    gen = _generator(ca40, trap10, rot)

    def rhs(_t, u):
        return np.concatenate([u[3:], gen[3:] @ u])

    t45 = solve_ivp(rhs, (0.0, float(t4.times[-1])),
                    np.concatenate([state0.position, state0.velocity]),
                    method="RK45", t_eval=t4.times, rtol=1e-10, atol=1e-14)
    assert t45.success
    assert np.allclose(t4.positions, t45.y[:3].T, rtol=0.0, atol=2e-11)


@pytest.mark.parametrize("voltage", [10.0, 100.0])
def test_generator_eigenvalues_are_mode_frequencies(ca40, voltage):
    trap = TrapConfig(b_field=1.0, trap_voltage=voltage, char_length_z0=0.01)
    modes = compute_modes(ca40, trap)
    # column j of the generator is the time derivative of the j-th unit state
    gen = _generator(ca40, trap, NO_ROTATION)
    columns = [np.concatenate([e[3:], gen[3:] @ e]) for e in np.eye(6)]
    eigenvalues = np.linalg.eigvals(np.column_stack(columns))
    omegas = np.array([modes.omega_m, modes.omega_z, modes.omega_cap_m])
    expected = 1j * np.sort(np.concatenate([omegas, -omegas]))
    got = eigenvalues[np.argsort(eigenvalues.imag)]
    assert np.all(np.abs(got - expected) <= 1e-9 * np.abs(expected))


def _per_step_rk4(u0, ca40, trap, rot, dt, n_steps):
    """Textbook RK4 around the generator's acceleration rows, one step at a
    time, every step kept."""
    gen = _generator(ca40, trap, rot)

    def f(u):
        return np.concatenate([u[3:], gen[3:] @ u])

    out = [u0]
    u = u0
    for _ in range(n_steps):
        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        u = u + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(u)
    return np.array(out)


def test_rk4_propagator_matches_per_step_rk4(ca40, trap10, modes10):
    state0 = ParticleState(position=np.array([10e-6, -4e-6, 5e-6]),
                           velocity=np.array([0.3, 0.1, -0.2]))
    rot = RotationInput(5.0)
    dt = default_time_step(ca40, trap10)
    n_steps = 1201  # divisible by neither 3 nor 4
    reference = _per_step_rk4(np.concatenate([state0.position, state0.velocity]),
                              ca40, trap10, rot, dt, n_steps)
    for stride in (1, 3, 4):
        cfg = IntegratorConfig(time_step=dt, total_time=n_steps * dt,
                               sample_stride=stride)
        traj = integrate(state0, ca40, trap10, rot, cfg)
        n_samples = n_steps // stride + 1
        # 1202, 401 and 301: no power of two, so the last doubling is partial
        assert traj.times.size == n_samples and n_samples & (n_samples - 1) != 0
        assert np.array_equal(traj.times, np.arange(n_samples) * (dt * stride))
        want = reference[::stride]
        got = np.column_stack([traj.positions, traj.velocities])
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_energy_conserved(ca40, trap10):
    # E/m = |v|^2/2 - r.K r/2 with K the generator's position block: the
    # velocity block (Lorentz and Coriolis) is antisymmetric and does no
    # work, so E is conserved with and without a rotation input
    state0 = ParticleState(position=np.array([15e-6, 0.0, 8e-6]),
                           velocity=np.array([0.0, -1.0, 0.0]))
    for omega_x in (0.0, 10.0):
        rot = RotationInput(omega_x)
        gen = _generator(ca40, trap10, rot)
        assert np.array_equal(gen[3:, 3:], -gen[3:, 3:].T)
        traj = integrate(state0, ca40, trap10, rot, _short_cfg(ca40, trap10))
        r, v = traj.positions, traj.velocities
        e = 0.5 * np.sum(v ** 2, axis=1) - 0.5 * np.sum(r * (r @ gen[3:, :3].T), axis=1)
        assert np.max(np.abs(e / e[0] - 1.0)) < 1e-8, omega_x


def test_spectrum_recovers_mode_frequencies(ca40, trap10, modes10):
    state0 = ParticleState(position=np.array([20e-6, 0.0, 10e-6]),
                           velocity=np.array([0.0, -0.5 * modes10.omega_m * 20e-6, 0.0]))
    dt = default_time_step(ca40, trap10)
    cfg = IntegratorConfig(time_step=dt, total_time=5e-3, sample_stride=4)
    traj = integrate(state0, ca40, trap10, NO_ROTATION, cfg)
    resolution = 1.0 / cfg.total_time
    z_peaks = extract_spectrum(traj, "z")
    assert z_peaks[0].frequency == pytest.approx(modes10.f_z, abs=2 * resolution)
    x_peaks = extract_spectrum(traj, "x")
    found = sorted(p.frequency for p in x_peaks[:2])
    assert found[0] == pytest.approx(modes10.f_m, abs=2 * resolution)
    assert found[1] == pytest.approx(modes10.f_cap_m, abs=2 * resolution)


def test_spectrum_of_silence_is_empty():
    t = np.arange(5000) * 1e-6
    silent = Trajectory(times=t, positions=np.zeros((t.size, 3)),
                        velocities=np.zeros((t.size, 3)))
    assert extract_spectrum(silent, "z") == []


def test_unstable_time_step_raises(ca40, trap10, modes10):
    # at 100x the default step RK4's |R(h lambda)| is about 2 per step, so
    # the state overflows within the run
    dt = 100 * default_time_step(ca40, trap10)
    cfg = IntegratorConfig(time_step=dt, total_time=2000 * dt)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationError, match="non-finite state"):
        integrate(magnetron_orbit_state(25e-6, modes10), ca40, trap10, NO_ROTATION, cfg)


def test_periodogram_needs_enough_samples(ca40, trap10, modes10):
    traj = integrate(magnetron_orbit_state(5e-6, modes10), ca40, trap10,
                     NO_ROTATION, _short_cfg(ca40, trap10, n_fast_periods=2))
    assert traj.times.size < 4096
    with pytest.raises(ValueError):
        periodogram(traj)


def test_periodogram_rejects_nonuniform(ca40, trap10):
    times = np.concatenate([np.linspace(0, 1, 3000),
                            np.linspace(1.001, 2, 3000)])
    traj = Trajectory(times=times, positions=np.zeros((6000, 3)),
                      velocities=np.zeros((6000, 3)))
    with pytest.raises(ValueError):
        periodogram(traj)


def test_driven_amplitude_on_synthetic_tone():
    omega = 2.0 * math.pi * 1000.0
    t = np.linspace(0.0, 0.05, 20001)
    z = 3.7e-9 * np.sin(omega * t + 0.3) + 1.1e-9 * np.sin(0.37 * omega * t)
    traj = Trajectory(times=t, positions=np.column_stack([0 * t, 0 * t, z]),
                      velocities=np.zeros((t.size, 3)))
    amp = driven_amplitude(traj, omega)
    assert amp == pytest.approx(3.7e-9, rel=0.01, abs=0)


def test_acceleration_components(ca40, trap10):
    # pure axial displacement: restoring force along -z only
    a = _generator(ca40, trap10, NO_ROTATION)[3:] @ [0.0, 0.0, 1e-6, 0.0, 0.0, 0.0]
    assert a[2] < 0.0 and a[0] == 0.0 and a[1] == 0.0
    # coriolis coupling: axial velocity drives y for rotation about x
    accel = _generator(ca40, trap10, RotationInput(2.0))[3:]
    a = accel @ [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    assert a[1] == pytest.approx(4.0)
    # and the reaction: y velocity drives -z
    a = accel @ [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    assert a[2] == pytest.approx(-4.0)


def test_spectrum_csv_schema(ca40, trap10, modes10, tmp_path):
    dt = default_time_step(ca40, trap10)
    cfg = IntegratorConfig(time_step=dt, total_time=5000 * dt)
    traj = integrate(magnetron_orbit_state(5e-6, modes10), ca40, trap10,
                     NO_ROTATION, cfg)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(traj, "x", path)
    header = path.read_text().splitlines()[0]
    assert header == "freq_hz,power"


def test_trajectory_csv_schema(ca40, trap10, modes10, tmp_path):
    traj = integrate(magnetron_orbit_state(5e-6, modes10), ca40, trap10,
                     NO_ROTATION, _short_cfg(ca40, trap10, n_fast_periods=1))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,y,z,vx,vy,vz"


def test_trajectory_csv_round_trips_bit_for_bit(tmp_path):
    values = [5e-324, -0.0, 0.1, 1.0 / 3.0, 1e16, 1.7976931348623157e308]
    table = np.array([np.roll(values, k) for k in range(7)]).T
    traj = Trajectory(times=table[:, 0], positions=table[:, 1:4],
                      velocities=table[:, 4:])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes().count(b"\r\n") == len(values) + 1
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    back = np.array([[float(cell) for cell in row] for row in rows])
    # int64 views compare every bit, the sign of -0.0 included
    assert np.array_equal(back.view(np.int64), table.view(np.int64))

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import penning_gyro
from penning_gyro.core import K_COULOMB
from penning_gyro.equilibrium import (
    CoincidentIonsError,
    ConvergenceError,
    IonConfiguration,
    RelaxationConfig,
    _energy_gradient_kernel,
    forces,
    measured_shape,
    relax,
    rotating_frame_potential,
    write_configuration_csv,
)
from penning_gyro.shape import (
    RotatingWallConfig,
    coulomb_trap_length,
    shape_beta,
)


def test_configuration_validation():
    with pytest.raises(ValueError):
        IonConfiguration(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        IonConfiguration(np.array([[0.0, 0.0, np.nan]]))
    with pytest.raises(ValueError):
        IonConfiguration(np.zeros((2, 3)))  # coincident
    with pytest.raises(ValueError, match="^positions must hold at least one ion$"):
        IonConfiguration(np.zeros((0, 3)))


def test_single_ion_sits_at_origin(ca40, modes100, wall100):
    config, report = relax(1, ca40, modes100, wall100)
    assert report.converged
    assert np.all(config.positions == 0.0)


def test_two_ion_spacing_closed_form(ca40, modes100, wall100):
    config, report = relax(2, ca40, modes100, wall100)
    assert report.converged
    d = np.linalg.norm(config.positions[0] - config.positions[1])
    a0 = coulomb_trap_length(ca40, modes100.omega_z)
    beta = shape_beta(modes100, modes100.omega_z)
    # ions split along the soft (y) axis: k_y d/2 = 1/d^2 in trap units
    d_pred = a0 * (2.0 / (beta - wall100.delta)) ** (1.0 / 3.0)
    assert d == pytest.approx(d_pred, rel=1e-3)
    # and they really are on the y axis
    assert np.max(np.abs(config.positions[:, [0, 2]])) < 1e-3 * d


def test_two_ion_potential_closed_form(ca40, modes100, wall100):
    a0 = coulomb_trap_length(ca40, modes100.omega_z)
    d = 3.0 * a0
    beta = shape_beta(modes100, modes100.omega_z)
    config = IonConfiguration(np.array([[0.0, d / 2, 0.0],
                                        [0.0, -d / 2, 0.0]]))
    u = rotating_frame_potential(config, ca40, modes100, wall100)
    k_y = (beta - wall100.delta) * ca40.mass * modes100.omega_z ** 2
    expected = 2.0 * 0.5 * k_y * (d / 2) ** 2 + K_COULOMB * ca40.charge ** 2 / d
    assert u == pytest.approx(expected, rel=1e-12, abs=0)


def test_forces_match_finite_differences(ca40, modes100, wall100):
    rng = np.random.default_rng(7)
    a0 = coulomb_trap_length(ca40, modes100.omega_z)
    h = 2e-6 * a0
    pos = rng.normal(scale=3 * a0, size=(6, 3))
    f = forces(IonConfiguration(pos), ca40, modes100, wall100)
    scale = np.max(np.abs(f))
    for i in range(6):
        for j in range(3):
            pp, pm = pos.copy(), pos.copy()
            pp[i, j] += h
            pm[i, j] -= h
            fd = -(rotating_frame_potential(IonConfiguration(pp), ca40,
                                            modes100, wall100)
                   - rotating_frame_potential(IonConfiguration(pm), ca40,
                                              modes100, wall100)) / (2 * h)
            assert abs(fd - f[i, j]) / scale < 1e-6


def _spring_constants(ca40, modes, wall):
    """Per-ion spring constants (k_x, k_y, k_z) of the rotating-frame trap, N/m."""
    beta = shape_beta(modes, wall.omega_r)
    return ca40.mass * modes.omega_z ** 2 * np.array(
        [beta + wall.delta, beta - wall.delta, 1.0])


def test_potential_and_forces_match_pair_loop(ca40, modes100, wall100):
    rng = np.random.default_rng(11)
    a0 = coulomb_trap_length(ca40, modes100.omega_z)
    kq2 = K_COULOMB * ca40.charge ** 2
    k = _spring_constants(ca40, modes100, wall100)
    for _ in range(20):
        n = int(rng.integers(2, 41))
        pos = rng.normal(scale=3 * a0, size=(n, 3))
        energy = float(np.sum(0.5 * k * pos ** 2))
        force = -k * pos
        for i in range(n):
            for j in range(i + 1, n):
                r = pos[i] - pos[j]
                d = math.sqrt(float(r @ r))
                energy += kq2 / d
                force[i] += kq2 * r / d ** 3
                force[j] -= kq2 * r / d ** 3
        config = IonConfiguration(pos)
        # energies are ~1e-23 J, below pytest.approx's default abs tolerance
        u = rotating_frame_potential(config, ca40, modes100, wall100)
        assert abs(u / energy - 1.0) <= 1e-12
        f = forces(config, ca40, modes100, wall100)
        assert np.max(np.abs(f - force)) <= 1e-12 * np.max(np.abs(force))


def test_coulomb_forces_obey_newtons_third_law(ca40, modes100, wall100):
    rng = np.random.default_rng(3)
    a0 = coulomb_trap_length(ca40, modes100.omega_z)
    pos = rng.normal(scale=10 * a0, size=(300, 3))
    coulomb = (forces(IonConfiguration(pos), ca40, modes100, wall100)
               + _spring_constants(ca40, modes100, wall100) * pos)
    net = np.abs(np.sum(coulomb, axis=0))
    assert np.all(net <= 1e-12 * np.max(np.abs(coulomb)))


@pytest.mark.parametrize("bad_row", [[1.0, 2.0, 3.0], [np.nan, 0.0, 0.0]])
def test_energy_gradient_rejects_coincident_or_nan_ions(bad_row):
    u = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0], bad_row])
    with pytest.raises(CoincidentIonsError):
        _energy_gradient_kernel(3)(u, 0.05, 0.03)


def _bytes(result):
    energy, grad = result
    return np.float64(energy).tobytes() + grad.tobytes()


def test_kernel_reuses_buffers_without_touching_earlier_results():
    rng = np.random.default_rng(17)
    u1, u2 = rng.normal(scale=5.0, size=(2, 40, 3))
    kernel = _energy_gradient_kernel(40)
    first = kernel(u1, 0.05, 0.03)
    first_bytes = _bytes(first)
    second = kernel(u2, 0.05, 0.03)
    # the second call overwrites the pair buffers, not the first result
    assert _bytes(first) == first_bytes
    assert first_bytes == _bytes(_energy_gradient_kernel(40)(u1, 0.05, 0.03))
    assert _bytes(second) == _bytes(_energy_gradient_kernel(40)(u2, 0.05, 0.03))


def test_kernel_recovers_after_coincident_ions():
    rng = np.random.default_rng(19)
    u = rng.normal(scale=5.0, size=(10, 3))
    bad = u.copy()
    bad[3] = bad[7]
    kernel = _energy_gradient_kernel(10)
    with pytest.raises(CoincidentIonsError):
        kernel(bad, 0.05, 0.03)
    assert _bytes(kernel(u, 0.05, 0.03)) == _bytes(
        _energy_gradient_kernel(10)(u, 0.05, 0.03))


def test_kernel_call_allocates_one_pair_matrix():
    # the N x N weight matrix is the only pair-sized array a call allocates;
    # a fresh 1/d or 1/d^3 temporary would add another N^2/2 doubles
    n = 1000
    u = np.random.default_rng(23).normal(scale=20.0, size=(n, 3))
    kernel = _energy_gradient_kernel(n)
    kernel(u, 0.05, 0.03)
    tracemalloc.start()
    try:
        kernel(u, 0.05, 0.03)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * n * 8


def test_kernel_output_is_independent_of_blas_threads():
    # a multithreaded BLAS may split a sum differently per thread count,
    # which would make the relaxed crystal depend on the machine's cores
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        from penning_gyro.equilibrium import _energy_gradient_kernel

        digest = hashlib.sha256()
        for n in (1000, 3000):
            u = np.random.default_rng(n).normal(scale=n ** (1 / 3), size=(n, 3))
            energy, grad = _energy_gradient_kernel(n)(u, 0.05, 0.03)
            digest.update(np.float64(energy).tobytes() + grad.tobytes())
        print(digest.hexdigest())
    """)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(penning_gyro.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


def test_configuration_coincident_ions_are_numerical():
    with pytest.raises(CoincidentIonsError):
        IonConfiguration(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))


def test_forces_vanish_at_equilibrium(ca40, modes100, wall100):
    cfg = RelaxationConfig(initial_seed=3)
    config, report = relax(12, ca40, modes100, wall100, cfg)
    f = forces(config, ca40, modes100, wall100)
    assert np.max(np.abs(f)) < cfg.force_tolerance


@pytest.mark.parametrize("seed", range(8))
def test_relax_stops_at_half_the_tolerance_on_the_rechecked_force(seed, ca40, modes100,
                                                                   wall100):
    # L-BFGS stops at tol/2 and convergence is decided on its own gradient;
    # a recheck at the returned positions must see the same largest force
    cfg = RelaxationConfig(initial_seed=seed)
    config, report = relax(100, ca40, modes100, wall100, cfg)
    assert report.converged
    assert report.max_force <= cfg.force_tolerance / 2.0
    rechecked = float(np.max(np.abs(forces(config, ca40, modes100, wall100))))
    assert rechecked == pytest.approx(report.max_force, rel=1e-9, abs=0)


def test_relax_work_stays_within_its_counts(ca40, modes100, wall100, monkeypatch):
    # counts, unlike wall time, do not drift with load or BLAS threads; the
    # bounds are the counts when they were set and may only get tighter
    evaluations = 0

    def counted_kernel(n):
        energy_gradient = _energy_gradient_kernel(n)

        def counted(*args):
            nonlocal evaluations
            evaluations += 1
            return energy_gradient(*args)
        return counted

    monkeypatch.setattr("penning_gyro.equilibrium._energy_gradient_kernel", counted_kernel)
    iterations = sum(relax(200, ca40, modes100, wall100, RelaxationConfig(initial_seed=seed))
                     [1].iterations for seed in range(8))
    assert iterations <= 1617 and evaluations <= 1647


def test_relax_deterministic_for_fixed_seed(ca40, modes100, wall100):
    cfg = RelaxationConfig(initial_seed=5)
    c1, _ = relax(20, ca40, modes100, wall100, cfg)
    c2, _ = relax(20, ca40, modes100, wall100, cfg)
    assert np.array_equal(c1.positions, c2.positions)


def test_relax_reports_unreached_force_floor(ca40, modes100, wall100, monkeypatch):
    monkeypatch.setattr(RelaxationConfig, "force_tolerance", 1e-30)
    with pytest.raises(ConvergenceError) as info:
        relax(5, ca40, modes100, wall100)
    config, report = info.value.best_config, info.value.report
    assert config.ion_count == 5
    assert report.converged is False
    assert report.max_force >= RelaxationConfig.force_tolerance
    assert report.restarts_used == 0
    assert type(report.final_energy) is float
    # the attached configuration is the one the report describes
    energy = rotating_frame_potential(config, ca40, modes100, wall100)
    assert energy == pytest.approx(report.final_energy, rel=1e-12, abs=0)


def test_relax_rejects_wall_dominated_regime(ca40, modes100):
    # omega_r just inside the window gives beta < delta
    wall = RotatingWallConfig(omega_r=modes100.omega_m * 1.0001, delta=0.01)
    with pytest.raises(ValueError):
        relax(5, ca40, modes100, wall)


def test_relax_needs_an_ion(ca40, modes100, wall100):
    with pytest.raises(ValueError, match="at least one ion"):
        relax(0, ca40, modes100, wall100)


def test_hexagon_plus_center(ca40, modes100):
    wall = RotatingWallConfig(omega_r=modes100.omega_z, delta=0.0)
    config, report = relax(7, ca40, modes100, wall)
    assert report.converged
    r = np.sort(np.hypot(config.positions[:, 0], config.positions[:, 1]))
    assert r[0] < 0.01 * r[1]                       # one central ion
    assert np.ptp(r[1:]) < 1e-3 * np.mean(r[1:])    # six on one ring


def test_measured_shape_stats():
    pos = np.array([[1.0, 0.0, 0.1], [-1.0, 0.0, -0.1],
                    [0.0, 1.0, 0.05], [0.0, -1.0, -0.05]])
    stats = measured_shape(IonConfiguration(pos))
    # <x^2+y^2> = 1 and <z^2> = 0.00625
    assert stats.r_cl == pytest.approx(math.sqrt(2.5))
    assert stats.alpha == pytest.approx(math.sqrt(0.0125))
    assert stats.low_confidence


def test_measured_shape_of_a_uniform_spheroid():
    # points drawn uniformly inside an oblate spheroid of known alpha and r_cl
    rng = np.random.default_rng(7)
    ball = rng.normal(size=(20000, 3))
    ball *= (rng.random(20000) ** (1.0 / 3.0) / np.linalg.norm(ball, axis=1))[:, None]
    r_cl, alpha = 1e-4, 0.2
    stats = measured_shape(IonConfiguration(ball * [r_cl, r_cl, alpha * r_cl]))
    assert stats.alpha == pytest.approx(alpha, rel=0.02)
    assert stats.r_cl == pytest.approx(r_cl, rel=0.01)
    assert not stats.low_confidence


def test_configuration_csv_schema(tmp_path):
    config = IonConfiguration(np.array([[1e-6, 0.0, 0.0], [-1e-6, 0.0, 0.0]]))
    path = tmp_path / "crystal.csv"
    write_configuration_csv(config, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ion_index,x_m,y_m,z_m"
    assert len(lines) == 3

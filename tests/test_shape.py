import math

import pytest
from hypothesis import given, settings, strategies as st

from penning_gyro import shape
from penning_gyro.core import CA40
from penning_gyro.shape import (
    AspectRatioBracketError,
    RotatingWallConfig,
    WallFrequencyError,
    aspect_ratio_from_beta,
    axial_depolarization,
    cold_fluid_residual,
    coulomb_trap_length,
    oracle_aspect_ratio_depolarization,
    planarity_check,
    shape_beta,
    shape_sweep,
    spheroid_dimensions,
    write_shape_csv,
)


def test_beta_anchor_at_operating_point(modes100):
    beta = shape_beta(modes100, modes100.omega_z)
    assert beta == pytest.approx(0.0538, abs=0.0005)


def test_wall_window_enforced(modes100):
    with pytest.raises(WallFrequencyError):
        shape_beta(modes100, 0.5 * modes100.omega_m)
    with pytest.raises(WallFrequencyError):
        shape_beta(modes100, 1.5 * modes100.omega_cap_m)


def test_normalized_frequency_identity(modes100):
    for frac in (0.2, 0.5, 0.8):
        omega_r = modes100.omega_m + frac * (modes100.omega_cap_m
                                             - modes100.omega_m)
        beta = shape_beta(modes100, omega_r)
        nu = modes100.omega_z ** 2 / (2.0 * omega_r * (modes100.omega_c - omega_r))
        assert nu == pytest.approx(1.0 / (2.0 * beta + 1.0), rel=1e-12)
        [row] = shape_sweep(CA40, modes100, [omega_r])
        assert row.normalized_freq == pytest.approx(nu, rel=1e-12)


def test_wall_config_validation():
    with pytest.raises(ValueError):
        RotatingWallConfig(omega_r=1e5, delta=1.0)
    with pytest.raises(ValueError):
        RotatingWallConfig(omega_r=-1e5, delta=0.01)


def test_oracle_anchor():
    assert oracle_aspect_ratio_depolarization(0.054) == pytest.approx(
        0.067, abs=0.003)


def test_root_residual_small():
    for beta in (0.01, 0.054, 0.3, 0.7, 0.99):
        alpha = aspect_ratio_from_beta(beta)
        assert abs(cold_fluid_residual(alpha, beta)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_two_routes_agree(beta):
    assert aspect_ratio_from_beta(beta) == pytest.approx(
        oracle_aspect_ratio_depolarization(beta), rel=1e-9)


def test_both_routes_monotone_in_beta():
    betas = [0.01 + 0.02 * i for i in range(50)]
    primary = [aspect_ratio_from_beta(b) for b in betas]
    oracle = [oracle_aspect_ratio_depolarization(b) for b in betas]
    assert all(a < b for a, b in zip(primary, primary[1:]))
    assert all(a < b for a, b in zip(oracle, oracle[1:]))


def test_residual_rises_strictly_on_the_scan_grid():
    # the premise of returning the first root: one sign change at most
    for beta in (1e-7, 1e-3, 0.054, *(k / 100 for k in range(1, 100)), 0.999):
        values = [cold_fluid_residual(a, beta) for a in shape._ALPHA_GRID]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_tiny_beta_has_no_bracket():
    # at beta = 1e-7 the root lies below the first grid point
    with pytest.raises(AspectRatioBracketError):
        aspect_ratio_from_beta(1e-7)


def test_aspect_ratio_domain():
    for bad in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError):
            aspect_ratio_from_beta(bad)


def test_depolarization_sphere_limit():
    # A_z -> 1/3 as the spheroid becomes a sphere
    assert axial_depolarization(1.0 - 1e-8) == pytest.approx(1.0 / 3.0,
                                                             rel=1e-4)


def test_cold_fluid_residual_consistent_with_depolarization():
    # 3/(2 beta + 1) = 3 A_z at the root ties the two formulations together
    beta = 0.054
    alpha = oracle_aspect_ratio_depolarization(beta)
    assert cold_fluid_residual(alpha, beta) == pytest.approx(0.0, abs=1e-12)


def test_coulomb_trap_length_anchor(modes100):
    a0 = coulomb_trap_length(CA40, modes100.omega_z)
    assert a0 == pytest.approx(11.3e-6, rel=0.02)


def test_spheroid_closure(modes100):
    geom = spheroid_dimensions(1000, 0.16, 0.05, modes100.omega_z, CA40)
    n_back = (4.0 / 3.0) * math.pi * geom.density_n * geom.z_cl * geom.r_cl ** 2
    assert n_back == pytest.approx(1000.0, rel=1e-9)
    assert geom.z_cl == pytest.approx(0.16 * geom.r_cl, rel=1e-12)
    assert geom.r_cl == pytest.approx(0.029e-2, rel=0.05)


def test_spheroid_validation(modes100):
    with pytest.raises(ValueError):
        spheroid_dimensions(0, 0.16, 0.05, modes100.omega_z, CA40)
    with pytest.raises(ValueError):
        spheroid_dimensions(100, -0.1, 0.05, modes100.omega_z, CA40)


def test_planarity_check_margins():
    assert planarity_check(0.05, 0.01).passes
    assert not planarity_check(0.2, 0.01).passes       # not planar
    assert not planarity_check(0.05, 0.06).passes      # wall too strong


def test_shape_sweep_gap_rows(ca40, modes10):
    # at 10 V the mid-window betas exceed 1: those rows carry gap markers
    grid = [modes10.omega_m * 1.01, 0.5 * modes10.omega_c,
            modes10.omega_cap_m * 0.99]
    rows = shape_sweep(ca40, modes10, grid)
    assert rows[0].alpha is not None
    assert rows[1].alpha is None and rows[1].r_cl is None
    assert rows[2].alpha is not None


def test_shape_csv_schema(ca40, modes100, tmp_path):
    rows = shape_sweep(ca40, modes100, [modes100.omega_z])
    path = tmp_path / "shape.csv"
    write_shape_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ("omega_r_rad_s,omega_r_over_omega_z,normalized_freq,"
                      "beta,alpha,r_cl_m,z_cl_m")

import math
import re
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from penning_gyro import shape
from penning_gyro.core import CA40, NumericalError, TrapConfig
from penning_gyro.equilibrium import relax
from penning_gyro.modes import compute_modes
from penning_gyro.shape import (
    _cold_fluid_residual,
    AspectRatioBracketError,
    BrentConvergenceError,
    RotatingWallConfig,
    SpheroidGeometry,
    WallFrequencyError,
    aspect_ratio_from_beta,
    axial_depolarization,
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


def test_beta_that_rounds_to_zero_inside_the_window_is_rejected():
    # one ulp above omega_m passes the window test, yet beta rounds to 0.0:
    # shape_beta rejects it, so neither the sweep nor relax sees a beta <= 0
    modes = compute_modes(CA40, TrapConfig(1.5514289520771125, 104.30778336689238, 0.01))
    omega_r = math.nextafter(modes.omega_m, math.inf)
    assert modes.omega_m < omega_r < modes.omega_cap_m
    with pytest.raises(WallFrequencyError, match="beta=0"):
        shape_beta(modes, omega_r)
    with pytest.raises(WallFrequencyError):
        shape_sweep(CA40, modes, [omega_r])
    with pytest.raises(WallFrequencyError):
        relax(5, CA40, modes, RotatingWallConfig(omega_r=omega_r, delta=0.01))


def _rho(b_field: float, voltage: float, z0: float = 0.01) -> float:
    """omega_c / omega_z = B z0 sqrt(q / (m V)) for Ca+."""
    return b_field * z0 * math.sqrt(CA40.charge / (CA40.mass * voltage))


@pytest.mark.parametrize("b_field", [1.0, 2.0, 3.0])
def test_wall_lock_beta_is_rho_minus_three_halves(b_field):
    # at omega_r = omega_z, beta = rho - 3/2: a crystal needs rho > 3/2.  The
    # grid runs from beyond the oblate branch (rho > 5/2) to the stability
    # edge (rho = sqrt 2), through the window of every field of fig 3
    voltages = [b_field ** 2 * (30.0 + k) for k in range(91)]
    rejected = 0
    for voltage in voltages:
        rho = _rho(b_field, voltage)
        modes = compute_modes(CA40, TrapConfig(b_field, voltage, 0.01))
        if rho <= 1.5:
            rejected += 1
            with pytest.raises(WallFrequencyError):
                shape_beta(modes, modes.omega_z)
        else:
            assert shape_beta(modes, modes.omega_z) == pytest.approx(rho - 1.5, abs=1e-13)
    # 108 V to 120 V (times B^2) lie past rho = 3/2 at 107.3 V
    assert rejected == 13


@settings(max_examples=200, deadline=None)
@given(b_field=st.floats(0.5, 3.0), edge_frac=st.floats(0.05, 0.99),
       w=st.floats(0.05, 3.0))
def test_beta_closed_form_in_rho_and_w(b_field, edge_frac, w):
    # omega_r = w omega_z gives beta = w rho - w^2 - 1/2; beta <= 0, and only
    # there, is a wall frequency outside the window
    voltage = edge_frac * CA40.charge * (b_field * 0.01) ** 2 / (2.0 * CA40.mass)
    modes = compute_modes(CA40, TrapConfig(b_field, voltage, 0.01))
    rho = _rho(b_field, voltage)
    expected = w * rho - w * w - 0.5
    tol = 1e-13 * (w * rho + w * w)
    try:
        beta = shape_beta(modes, w * modes.omega_z)
    except WallFrequencyError:
        assert expected <= tol
    else:
        assert beta == pytest.approx(expected, abs=tol)


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
        assert abs(_cold_fluid_residual(alpha, beta)) < 1e-12


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
        values = [_cold_fluid_residual(a, beta) for a in shape._ALPHA_GRID]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_tiny_beta_has_no_bracket():
    # at beta = 1e-7 the root lies below the first grid point
    with pytest.raises(AspectRatioBracketError):
        aspect_ratio_from_beta(1e-7)


def _walk_then_scipy_brentq(beta):
    """The solve as it stood before bisection: walk the grid to the first
    sign change, then refine that cell with scipy's brentq."""
    previous = 0.0
    for i, alpha in enumerate(shape._ALPHA_GRID):
        value = shape._cold_fluid_residual(alpha, beta)
        if previous * value < 0.0:
            return brentq(shape._cold_fluid_residual, shape._ALPHA_GRID[i - 1], alpha,
                          args=(beta,), xtol=1e-15, rtol=8.9e-16)
        if value == 0.0:
            return alpha
        previous = value
    raise AspectRatioBracketError(f"no sign change for beta={beta}")


def _solve_outcome(solver, beta):
    try:
        return solver(beta).hex()
    except AspectRatioBracketError:
        return "no bracket"


def test_bisection_and_brent_port_match_the_walk_and_scipy_bit_for_bit():
    rng = random.Random(20240614)
    betas = ([10.0 ** rng.uniform(-9.0, 0.0) for _ in range(1000)]
             + [rng.uniform(0.0, 1.0) for _ in range(1000)]
             + [10.0 ** -k for k in range(1, 17)]
             + [1.0 - 10.0 ** -k for k in range(1, 17)])
    betas = [beta for beta in betas if 0.0 < beta < 1.0]
    assert len(betas) >= 2000
    expected = {beta: _solve_outcome(_walk_then_scipy_brentq, beta) for beta in betas}
    found = {beta: _solve_outcome(aspect_ratio_from_beta, beta) for beta in betas}
    assert found == expected
    no_bracket = [beta for beta, outcome in expected.items() if outcome == "no bracket"]
    assert 100 < len(no_bracket) < len(betas) - 1000  # both outcomes are exercised


def _brent_outcome(solve):
    try:
        return solve().hex()
    except (RuntimeError, BrentConvergenceError):
        return "no convergence"


@settings(max_examples=300, deadline=None)
@given(root=st.floats(-10.0, 10.0), left=st.floats(1e-18, 10.0),
       right=st.floats(1e-18, 10.0), slope=st.floats(1e-3, 10.0),
       cubic=st.floats(0.0, 10.0), scale=st.floats(0.0, 10.0),
       growth=st.floats(0.0, 5.0))
# a short step exactly as long as its limit, on the bracket (0, 1)
@example(root=0.31868832550600656, left=0.31868832550600656,
         right=1.0 - 0.31868832550600656, slope=1.0, cubic=8.0, scale=0.3, growth=3.0)
# a half-bracket exactly as long as the tolerance, on the bracket (0, 1e-15)
@example(root=2.5e-16, left=2.5e-16, right=7.5e-16, slope=1.0, cubic=0.0,
         scale=0.0, growth=0.0)
def test_brent_port_matches_scipy_brentq(root, left, right, slope, cubic, scale, growth):
    def f(x):
        u = x - root
        return slope * u + cubic * u ** 3 + scale * math.expm1(growth * u)

    a, b = root - left, root + right
    assume(f(a) < 0.0 < f(b))
    ported = _brent_outcome(lambda: shape._brentq(f, a, b, f(a), f(b)))
    reference = _brent_outcome(lambda: brentq(f, a, b, xtol=shape._XTOL,
                                              rtol=shape._RTOL, maxiter=shape._MAXITER))
    assert ported == reference


@pytest.mark.parametrize("index", [0, 1, 67, 999, 1000])
def test_exact_zero_on_the_grid_is_returned(monkeypatch, index):
    # a residual that vanishes exactly at one grid point, rising through it
    zero = shape._ALPHA_GRID[index]
    monkeypatch.setattr(shape, "_cold_fluid_residual", lambda alpha, beta: alpha - zero)
    assert _walk_then_scipy_brentq(0.5) == zero
    assert aspect_ratio_from_beta(0.5) == zero


def test_shape_solve_stays_within_its_residual_count(monkeypatch):
    # a bound that may only get tighter: the count over this grid when it was set
    evaluations = 0

    def counted(alpha, beta):
        nonlocal evaluations
        evaluations += 1
        return _cold_fluid_residual(alpha, beta)

    monkeypatch.setattr(shape, "_cold_fluid_residual", counted)
    for i in range(200):
        aspect_ratio_from_beta(0.005 + i * 0.985 / 199)
    assert evaluations <= 1350


def test_bracket_search_from_the_guess_stays_short(monkeypatch):
    # from the guessed grid point, the walk encloses the sign change in at
    # most 3 residual evaluations before Brent starts
    evaluations = 0
    before_brent = []

    def counted(alpha, beta):
        nonlocal evaluations
        evaluations += 1
        return _cold_fluid_residual(alpha, beta)

    def brentq_entered(*args):
        before_brent.append(evaluations)
        return brentq_port(*args)

    brentq_port = shape._brentq
    monkeypatch.setattr(shape, "_cold_fluid_residual", counted)
    monkeypatch.setattr(shape, "_brentq", brentq_entered)
    for i in range(20000):
        evaluations = 0
        aspect_ratio_from_beta(1e-5 + (i + 0.5) * (1.0 - 1e-5) / 20000)
    assert len(before_brent) == 20000
    assert max(before_brent) <= 3


@pytest.mark.parametrize("guess", [1e-6, 0.5, 1.0 - 1e-6])
def test_solve_does_not_depend_on_its_guess(monkeypatch, guess):
    # the bits come from the search, never from where it starts
    rng = random.Random(20240614)
    betas = ([10.0 ** rng.uniform(-9.0, 0.0) for _ in range(1000)]
             + [rng.uniform(0.0, 1.0) for _ in range(1000)]
             + [10.0 ** -k for k in range(1, 17)]
             + [1.0 - 10.0 ** -k for k in range(1, 17)])
    betas = [beta for beta in betas if 0.0 < beta < 1.0]
    expected = {beta: _solve_outcome(_walk_then_scipy_brentq, beta) for beta in betas}
    monkeypatch.setattr(shape, "_alpha_guess", lambda beta: guess)
    found = {beta: _solve_outcome(aspect_ratio_from_beta, beta) for beta in betas}
    assert found == expected
    for index in (0, 1, 67, 999, 1000):
        zero = shape._ALPHA_GRID[index]
        monkeypatch.setattr(shape, "_cold_fluid_residual", lambda alpha, beta: alpha - zero)
        assert aspect_ratio_from_beta(0.5) == zero


def test_brent_iteration_cap_raises_a_numerical_error(monkeypatch):
    monkeypatch.setattr(shape, "_MAXITER", 2)
    with pytest.raises(NumericalError, match="did not converge"):
        aspect_ratio_from_beta(0.054)


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
    assert _cold_fluid_residual(alpha, beta) == pytest.approx(0.0, abs=1e-12)


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
    for r_cl in (1e-5, 1e-6):  # a sphere and a prolate spheroid
        with pytest.raises(ValueError, match="r_cl > z_cl"):
            SpheroidGeometry(r_cl=r_cl, z_cl=1e-5, density_n=1e12)


@pytest.mark.parametrize("n_ions, alpha, beta, omega_z", [
    (10 ** 400, 0.16, 0.05, 1.55e6),  # an int past the float range
    (1e300, 0.16, 0.05, 1e-30),       # z_cl * r_cl^2 overflows to inf: the density is 0
    (1e300, 0.16, 0.05, 1e-100),      # r_cl^2 raises OverflowError
    (1000, 0.16, 0.05, 1e200),        # omega_z^2 raises OverflowError
    (1000, 1e-320, 0.05, 1.55e6),     # n_ions / alpha overflows, and r_cl with it
    (1000, 0.16, 1e300, 1.55e6),      # z_cl * r_cl^2 is subnormal: the density is inf
    (1000, 0.16, 1e300, 1e100),       # r_cl^2 underflows to 0, and the density divides by it
], ids=["huge_int", "density_zero", "r_cl_squared", "omega_z_squared", "alpha_tiny",
        "density_inf", "zero_division"])
def test_spheroid_out_of_float_range_names_its_inputs(n_ions, alpha, beta, omega_z):
    message = (f"spheroid out of float range: n_ions={n_ions}, alpha={alpha}, beta={beta}, "
               f"omega_z={omega_z} rad/s")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        spheroid_dimensions(n_ions, alpha, beta, omega_z, CA40)


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

import csv
import inspect
import math
import re
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from penning_gyro.core import (
    _BLOCK_ROWS,
    CA40,
    CONST,
    IonSpecies,
    Record,
    RotationInput,
    TrapConfig,
    axial_frequency,
    cyclotron_frequency,
    write_csv,
)
from penning_gyro.dynamics import IntegratorConfig, magnetron_orbit_state
from penning_gyro.modes import UnstableTrapError, compute_modes
from penning_gyro.response import OscillatorParams, rotation_scale_factor
from penning_gyro.sensing import EnsembleSpec, ODFParams, build_budget
from penning_gyro.shape import (
    RotatingWallConfig,
    SpheroidGeometry,
    axial_depolarization,
    coulomb_trap_length,
    planarity_check,
    spheroid_dimensions,
)

from instruments import (
    max_stable_voltage,
    population_difference,
    population_snr,
    ramsey_population,
)

OSC = OscillatorParams(omega_z=1.55e6, omega_r=1.55e6, quality_factor=1e6)
ODF = ODFParams(f0=1e-22, tau=0.01, gamma=100.0)
MODES10 = compute_modes(CA40, TrapConfig(1.0, 10.0, 0.01))


def test_constants_pinned_values():
    d = dict(zip(CONST.field_names, CONST.field_values()))
    assert d["elementary_charge"] == 1.602176634e-19
    assert d["atomic_mass_unit"] == 1.66053906660e-27
    assert d["reduced_planck"] == 1.054571817e-34
    assert d["euler_number"] == math.e
    assert all(v > 0 for v in d.values())


def test_ca40_species():
    assert CA40.mass == pytest.approx(39.9626 * CONST.atomic_mass_unit, abs=0)
    assert CA40.charge == CONST.elementary_charge


def test_species_validation():
    with pytest.raises(ValueError):
        IonSpecies("bad", mass=-1.0, charge=1e-19)
    with pytest.raises(ValueError):
        IonSpecies("bad", mass=1e-26, charge=0.0)


@pytest.mark.parametrize("build, match", [(build, None) for build in [
    lambda: IonSpecies("bad", mass=1e-26, charge=math.nan),
    lambda: ODFParams(f0=1e-22, tau=0.01, gamma=math.nan),
    lambda: IntegratorConfig(time_step=1e-9, total_time=math.nan),
    lambda: EnsembleSpec(n_ions=math.nan),
    # infinities pass a bare positivity check and give nonsense downstream,
    # e.g. a "stable" trap with omega_c = inf, or rotation_asd = inf
    lambda: TrapConfig(b_field=math.inf, trap_voltage=10.0, char_length_z0=0.01),
    lambda: TrapConfig(b_field=1.0, trap_voltage=math.inf, char_length_z0=0.01),
    lambda: TrapConfig(b_field=1.0, trap_voltage=10.0, char_length_z0=math.inf),
    lambda: IonSpecies("bad", mass=math.inf, charge=1e-19),
    lambda: ODFParams(f0=math.inf, tau=0.01, gamma=100.0),
    lambda: ODFParams(f0=1e-22, tau=math.inf, gamma=100.0),
    lambda: ODFParams(f0=1e-22, tau=0.01, gamma=math.inf),
    lambda: EnsembleSpec(n_ions=math.inf),
    lambda: IntegratorConfig(time_step=1e-9, total_time=math.inf),
    lambda: OscillatorParams(omega_z=math.inf, omega_r=1.55e6, quality_factor=1e6),
    lambda: OscillatorParams(omega_z=1.55e6, omega_r=math.inf, quality_factor=1e6),
    lambda: RotatingWallConfig(omega_r=math.inf, delta=0.01),
    lambda: rotation_scale_factor(math.inf, OSC),
]] + [
    # exp(Gamma tau) = exp(700) over F0 tau = 7e-60: the resolution overflows
    # to inf, and the message names the inputs, not a derived field
    (lambda: build_budget(EnsembleSpec(10000), ODFParams(f0=1e-60, tau=7.0, gamma=100.0),
                          1e-3, 0.05), r"(?<!\w)f0=1e-60 N"),
    # the message must name the bad input, not the spheroid's r_cl > z_cl > 0
    (lambda: spheroid_dimensions(1000, math.nan, 0.05, 1.55e6, CA40), "alpha"),
    (lambda: spheroid_dimensions(math.nan, 0.07, 0.05, 1.55e6, CA40), "n_ions"),
    # raw-float inputs of the response and readout chain
    (lambda: build_budget(EnsembleSpec(10000), ODF, 1e-3, math.inf), "cycle_time"),
    (lambda: build_budget(EnsembleSpec(10000), ODF, math.inf, 0.05), "scale_factor"),
    (lambda: ramsey_population(math.nan, 100.0, 0.01), "theta"),
    (lambda: population_difference(math.nan, 100.0, 0.01), "theta_max"),
    (lambda: population_difference(0.1, math.nan, 0.01), "gamma"),
    (lambda: ramsey_population(0.1, math.nan, 0.01), "gamma"),
    (lambda: ramsey_population(0.1, 100.0, math.nan), "tau"),
    (lambda: population_difference(0.1, 100.0, math.nan), "tau"),
    (lambda: ramsey_population(0.1, 0.0, math.inf), "tau"),
    (lambda: ramsey_population(math.inf, 100.0, 0.01), "theta"),
    (lambda: ramsey_population(-math.inf, 100.0, 0.01), "theta"),
    (lambda: ramsey_population(0.1, math.inf, 0.01), "gamma"),
    (lambda: ramsey_population(0.1, -math.inf, 0.01), "gamma"),
    (lambda: ramsey_population(0.1, 100.0, -math.inf), "tau"),
    (lambda: population_difference(math.inf, 100.0, 0.01), "theta_max"),
    (lambda: population_difference(-math.inf, 100.0, 0.01), "theta_max"),
    (lambda: population_difference(0.1, math.inf, 0.01), "gamma"),
    (lambda: population_difference(0.1, -math.inf, 0.01), "gamma"),
    (lambda: population_difference(0.1, 100.0, math.inf), "tau"),
    (lambda: population_difference(0.1, 100.0, -math.inf), "tau"),
    (lambda: population_snr(EnsembleSpec(10000), ODF, math.nan), "zc"),
    (lambda: population_snr(EnsembleSpec(10000), ODF, math.inf), "zc"),
    # shape inputs: each must be named, not fail later as a division by
    # zero or as the spheroid's r_cl > z_cl > 0
    (lambda: spheroid_dimensions(1000, 0.07, math.inf, 1.55e6, CA40), "beta"),
    (lambda: spheroid_dimensions(1000, 0.07, -math.inf, 1.55e6, CA40), "beta"),
    (lambda: spheroid_dimensions(1000, 0.07, math.nan, 1.55e6, CA40), "beta"),
    (lambda: spheroid_dimensions(1000, 0.07, -0.5, 1.55e6, CA40), "beta"),
    (lambda: spheroid_dimensions(1000, 0.07, 0.05, math.inf, CA40), "omega_z"),
    (lambda: spheroid_dimensions(1000, 0.07, 0.05, -math.inf, CA40), "omega_z"),
    (lambda: spheroid_dimensions(1000, 0.07, 0.05, math.nan, CA40), "omega_z"),
    (lambda: coulomb_trap_length(CA40, math.nan), "omega_z"),
    (lambda: coulomb_trap_length(CA40, math.inf), "omega_z"),
    (lambda: coulomb_trap_length(CA40, 0.0), "omega_z"),
    # m omega_z^2 overflows, or underflows to 0: a0 leaves the float range
    (lambda: coulomb_trap_length(CA40, 1e200), r"omega_z=1e\+200"),
    (lambda: coulomb_trap_length(CA40, 1e-200), "omega_z=1e-200"),
    (lambda: planarity_check(0.05, -math.inf), "delta"),
    # a non-finite beta would read as a silent planarity failure
    (lambda: planarity_check(math.nan, 0.01), "beta"),
    (lambda: planarity_check(math.inf, 0.01), "beta"),
    (lambda: planarity_check(-math.inf, 0.01), "beta"),
    (lambda: magnetron_orbit_state(math.nan, MODES10), "radius"),
    (lambda: magnetron_orbit_state(math.inf, MODES10), "radius"),
    (lambda: magnetron_orbit_state(-math.inf, MODES10), "radius"),
    (lambda: OscillatorParams(1.55e6, 1.55e6, math.nan), "quality_factor"),
    (lambda: OscillatorParams(1.55e6, 1.55e6, -math.inf), "quality_factor"),
    (lambda: SpheroidGeometry(r_cl=math.inf, z_cl=1e-5, density_n=1e12), "r_cl"),
    (lambda: SpheroidGeometry(r_cl=1e-4, z_cl=1e-5, density_n=math.nan), "density_n"),
    (lambda: SpheroidGeometry(r_cl=1e-4, z_cl=1e-5, density_n=math.inf), "density_n"),
    (lambda: SpheroidGeometry(r_cl=1e-4, z_cl=1e-5, density_n=0.0), "density_n"),
    (lambda: RotationInput(omega_x=math.nan), "omega_x"),
    # Q must be finite: an undamped gain at resonance is unbounded
    (lambda: rotation_scale_factor(2.2e-4, OscillatorParams(1.55e6, 1.55e6, math.inf)),
     "quality_factor"),
    # A_z's closed form holds for an oblate spheroid, 0 < alpha < 1
    (lambda: axial_depolarization(math.nan), "alpha"),
    (lambda: axial_depolarization(math.inf), "alpha"),
    (lambda: axial_depolarization(1.0), "alpha"),
    (lambda: axial_depolarization(2.0), "alpha"),
    (lambda: axial_depolarization(-0.5), "alpha"),
    (lambda: axial_depolarization(0.0), "alpha"),
], ids=["species_charge", "odf_gamma", "integrator_total_time", "ensemble_n_ions",
        "trap_b_field_inf", "trap_voltage_inf", "trap_z0_inf", "species_mass_inf",
        "odf_f0_inf", "odf_tau_inf", "odf_gamma_inf", "ensemble_n_ions_inf",
        "integrator_total_time_inf",
        "oscillator_omega_z_inf", "oscillator_omega_r_inf", "wall_omega_r_inf",
        "rotation_scale_factor_r_cl_inf", "build_budget_resolution_overflow",
        "spheroid_alpha_nan", "spheroid_n_ions_nan", "averaged_sensitivity_cycle_time_inf",
        "rotation_sensitivity_scale_factor_inf",
        "ramsey_population_theta_nan", "population_difference_theta_max_nan",
        "population_difference_gamma_nan", "ramsey_population_gamma_nan",
        "ramsey_population_tau_nan", "population_difference_tau_nan",
        "ramsey_population_tau_inf", "ramsey_population_theta_inf",
        "ramsey_population_theta_minus_inf", "ramsey_population_gamma_inf",
        "ramsey_population_gamma_minus_inf", "ramsey_population_tau_minus_inf",
        "population_difference_theta_max_inf", "population_difference_theta_max_minus_inf",
        "population_difference_gamma_inf", "population_difference_gamma_minus_inf",
        "population_difference_tau_inf", "population_difference_tau_minus_inf",
        "population_snr_zc_nan", "population_snr_zc_inf", "spheroid_beta_inf", "spheroid_beta_minus_inf",
        "spheroid_beta_nan", "spheroid_beta_minus_half", "spheroid_omega_z_inf",
        "spheroid_omega_z_minus_inf", "spheroid_omega_z_nan", "coulomb_trap_length_omega_z_nan",
        "coulomb_trap_length_omega_z_inf", "coulomb_trap_length_omega_z_zero",
        "coulomb_trap_length_omega_z_overflow", "coulomb_trap_length_omega_z_underflow",
        "planarity_delta_minus_inf", "planarity_beta_nan", "planarity_beta_inf",
        "planarity_beta_minus_inf", "magnetron_orbit_radius_nan", "magnetron_orbit_radius_inf",
        "magnetron_orbit_radius_minus_inf", "oscillator_quality_factor_nan",
        "oscillator_quality_factor_minus_inf", "spheroid_geometry_r_cl_inf",
        "spheroid_geometry_density_nan", "spheroid_geometry_density_inf",
        "spheroid_geometry_density_zero", "rotation_input_omega_x_nan",
        "transfer_gain_undamped_resonance",
        "axial_depolarization_alpha_nan", "axial_depolarization_alpha_inf",
        "axial_depolarization_alpha_one", "axial_depolarization_alpha_two",
        "axial_depolarization_alpha_minus_half", "axial_depolarization_alpha_zero"])
def test_nan_inputs_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


class Point(Record):
    x: float
    y: float = 2.0
    scale: ClassVar[float] = 10.0  # a class constant, not a field

    def __post_init__(self):
        if not self.y >= 0.0:
            raise ValueError("y must be non-negative")
        object.__setattr__(self, "x", float(self.x))


class OtherPoint(Record):
    x: float
    y: float = 2.0


def test_record_is_frozen():
    for record in (TrapConfig(1.0, 100.0, 0.01), Point(1.0)):
        for name in (*record.field_names, "new_field"):
            with pytest.raises(AttributeError, match=name):
                setattr(record, name, 3.0)
            with pytest.raises(AttributeError, match=name):
                delattr(record, name)
    assert TrapConfig(1.0, 100.0, 0.01).b_field == 1.0


def test_record_equality_and_hash_go_by_the_fields():
    a, b = TrapConfig(1.0, 100.0, 0.01), TrapConfig(1.0, 100.0, 0.01)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != TrapConfig(1.0, 100.0, 0.02)
    assert hash(a) == hash((1.0, 100.0, 0.01))
    assert len({a, b, TrapConfig(2.0, 100.0, 0.01)}) == 2
    # same field names and values, another class: unequal
    assert Point(1.0, 3.0) != OtherPoint(1.0, 3.0)
    assert Point(1.0, 3.0) == Point(1, 3.0)
    assert a != (1.0, 100.0, 0.01)


def test_record_repr_lists_the_fields():
    assert repr(TrapConfig(1.0, 100.0, 0.01)) == (
        "TrapConfig(b_field=1.0, trap_voltage=100.0, char_length_z0=0.01)")
    assert repr(Point(1, 3.0)) == "Point(x=1.0, y=3.0)"


def test_record_signature_is_the_fields():
    # annotations are strings in the package (from __future__ import
    # annotations) and objects here
    assert str(inspect.signature(IntegratorConfig)) == (
        "(time_step: 'Positive', total_time: 'float', sample_stride: 'int' = 1) -> None")
    assert str(inspect.signature(Point)) == "(x: float, y: float = 2.0) -> None"
    assert IntegratorConfig.field_names == ("time_step", "total_time", "sample_stride")
    assert IntegratorConfig(1e-9, 1e-6).field_values() == (1e-9, 1e-6, 1)
    assert IntegratorConfig(time_step=1e-9, total_time=1e-6, sample_stride=3).sample_stride == 3
    with pytest.raises(TypeError):
        TrapConfig(1.0, 100.0)


def test_record_class_var_is_not_a_field():
    assert Point.field_names == ("x", "y")
    assert "scale" not in inspect.signature(Point).parameters
    assert Point.scale == 10.0 and Point(1.0).scale == 10.0
    assert "scale" not in repr(Point(1.0))


def test_record_post_init_runs_and_can_normalise_a_field():
    point = Point(1)
    assert type(point.x) is float and point.x == 1.0
    assert point.field_values() == (1.0, 2.0)
    with pytest.raises(ValueError, match="y must be non-negative"):
        Point(1.0, -1.0)
    # no __post_init__: the fields are stored as given
    assert OtherPoint(1).x == 1 and type(OtherPoint(1).x) is int


class Reading(Record):
    # string annotations, as ``from __future__ import annotations`` leaves
    # them in the package; no __post_init__
    value: "float"
    gap: "float | None" = None
    count: "int" = 0
    size: "Positive" = 1.0
    limit: "ClassVar[float]" = math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
def test_record_float_fields_are_finite_by_type(bad):
    for name in ("value", "gap"):
        with pytest.raises(ValueError, match=rf"^{name} must be finite$"):
            Reading(**{"value": 1.0, name: bad})
    # None is an optional float's gap; an int field and a ClassVar go unchecked
    assert Reading(1.0, None).gap is None
    assert Reading(1.0, 2.0, bad).count is bad
    assert Reading.field_names == ("value", "gap", "count", "size")
    assert Reading(1.0).limit == math.inf


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf],
                         ids=["zero", "minus_zero", "negative", "nan", "inf", "minus_inf"])
def test_record_positive_fields_are_positive_and_finite_by_type(bad):
    with pytest.raises(ValueError, match=r"^size must be positive and finite$"):
        Reading(1.0, size=bad)
    # the least positive float is positive
    assert Reading(1.0, size=5e-324).size == 5e-324


def test_trap_validation():
    with pytest.raises(ValueError):
        TrapConfig(b_field=0.0, trap_voltage=10.0, char_length_z0=0.01)
    with pytest.raises(ValueError):
        TrapConfig(b_field=1.0, trap_voltage=-5.0, char_length_z0=0.01)
    with pytest.raises(ValueError):
        TrapConfig(b_field=1.0, trap_voltage=10.0, char_length_z0=0.0)


def test_cyclotron_frequency_anchor():
    trap = TrapConfig(1.0, 10.0, 0.01)
    f_c = cyclotron_frequency(CA40, trap) / (2 * math.pi)
    assert f_c == pytest.approx(384.26e3, rel=1e-3)


def test_axial_frequency_scales_with_sqrt_v():
    t1 = TrapConfig(1.0, 10.0, 0.01)
    t4 = TrapConfig(1.0, 40.0, 0.01)
    assert axial_frequency(CA40, t4) == pytest.approx(
        2.0 * axial_frequency(CA40, t1), rel=1e-12)


def test_stability_margin_sign():
    assert compute_modes(CA40, TrapConfig(1.0, 100.0, 0.01)).stability_margin > 0
    with pytest.raises(UnstableTrapError):
        compute_modes(CA40, TrapConfig(1.0, 130.0, 0.01))


def test_max_stable_voltage_near_120v():
    v_max = max_stable_voltage(CA40, 1.0, 0.01)
    assert v_max == pytest.approx(120.0, rel=0.05)


@given(st.floats(min_value=0.5, max_value=5.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_max_stable_voltage_is_the_edge(b, frac):
    v_max = max_stable_voltage(CA40, b, 0.01)
    below = compute_modes(CA40, TrapConfig(b, frac * v_max, 0.01))
    assert below.stability_margin > 0
    with pytest.raises(UnstableTrapError):
        compute_modes(CA40, TrapConfig(b, v_max / frac, 0.01))


SEPARATORS = ',"\r\n'
NAMES = st.one_of(st.just("None"),
                  st.text(st.characters(codec="utf-8", exclude_characters=SEPARATORS)))
CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2e-308,
                     1e16, 1e-5, -1e-5]),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    NAMES,
)


def _csv_module_bytes(path, header, rows) -> bytes:
    """The table as csv.writer's default dialect writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), width=st.integers(min_value=2, max_value=6),
       n_rows=st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]),
       at_end=st.booleans())
def test_write_csv_matches_the_csv_module(tmp_path, data, width, n_rows, at_end):
    # a few drawn rows, then one repeated row: the drawn ones land in the
    # first or the last block, so neighbouring blocks differ in their cells
    row = st.lists(CELLS, min_size=width, max_size=width)
    header = data.draw(st.lists(NAMES, min_size=width, max_size=width))
    rows = (data.draw(st.lists(row, max_size=5)) + [data.draw(row)] * n_rows)[:n_rows]
    if at_end:
        rows.reverse()
    write_csv(tmp_path / "table.csv", header, iter(rows))
    expected = _csv_module_bytes(tmp_path / "csv_module.csv", header, rows)
    assert (tmp_path / "table.csv").read_bytes() == expected


FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan,
                                                  5e-324, 1e16, 1e-5]))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), width=st.integers(min_value=2, max_value=6),
       n_rows=st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]),
       fortran=st.booleans())
def test_write_csv_of_an_array_matches_its_rows_and_the_csv_module(tmp_path, data, width,
                                                                  n_rows, fortran):
    header = [f"c{k}" for k in range(width)]
    # one drawn value fills the array and up to 8 drawn cells land anywhere in it
    array = np.full((n_rows, width), data.draw(FLOATS))
    for _ in range(data.draw(st.integers(min_value=0, max_value=8)) if n_rows else 0):
        array[data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, width - 1))] = \
            data.draw(FLOATS)
    if fortran:
        array = np.asfortranarray(array)
    write_csv(tmp_path / "array.csv", header, array)
    write_csv(tmp_path / "rows.csv", header, array.tolist())
    expected = _csv_module_bytes(tmp_path / "csv_module.csv", header, array.tolist())
    assert (tmp_path / "array.csv").read_bytes() == expected
    assert (tmp_path / "rows.csv").read_bytes() == expected


@pytest.mark.parametrize("rows", [np.zeros(2), np.zeros((3, 2, 2)), np.zeros((3, 3))],
                         ids=["one_dimension", "three_dimensions", "wrong_width"])
def test_write_csv_rejects_an_array_that_is_not_a_table(tmp_path, rows):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=re.escape(str(path))):
        write_csv(path, ["a", "b"], rows)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("header, rows", [
    *[(["a", "b"], [[1.0, f"x{sep}y"]]) for sep in SEPARATORS],
    *[(["a", f"b{sep}"], [[1.0, 2.0]]) for sep in SEPARATORS],
    (["a", "b"], [[1.0, 2.0], [3.0]]),
    (["a", "b"], [[1.0, 2.0], [3.0, 4.0, 5.0]]),
    # the short row's missing comma is made up by the cell's
    (["a", "b"], [[1.0], [2.0, "x,y"]]),
    (["a", "b"], [[1.0, 2.0]] * _BLOCK_ROWS + [[3.0, "x,y"]]),
    (["a"], [[1.0]]),
], ids=["cell_comma", "cell_quote", "cell_cr", "cell_lf",
        "header_comma", "header_quote", "header_cr", "header_lf",
        "row_short", "row_long", "row_short_and_cell_comma",
        "cell_comma_in_second_block", "one_column"])
def test_write_csv_rejects_what_needs_quoting(tmp_path, header, rows):
    # csv.writer would quote the cell or accept the table; the tables here
    # are never quoted, so these must fail and name the file
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=re.escape(str(path))):
        write_csv(path, header, rows)
    # nothing under the real name, not even the blocks that passed, nor a stray file
    assert list(tmp_path.iterdir()) == []


def test_write_csv_keeps_the_old_table_on_a_rejected_rewrite(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [[1.0, 2.0]])
    before = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(str(path))):
        write_csv(path, ["a", "b"], [[1.0, 2.0]] * _BLOCK_ROWS + [[3.0, "x,y"]])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]

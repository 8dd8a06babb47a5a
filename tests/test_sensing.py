import json
import math

import pytest
from hypothesis import given, strategies as st

from penning_gyro.core import CONST
from penning_gyro.sensing import EnsembleSpec, ODFParams, budget_json, build_budget

from instruments import population_difference, population_snr, ramsey_population

# canonical readout point: N = 1e4 spins, 100 yN, 10 ms, Gamma tau = 1
ODF = ODFParams(f0=1e-22, tau=0.01, gamma=100.0)
ENS = EnsembleSpec(10000)
SCALE = 1.416e-4  # m per rad/s


def test_params_validation():
    with pytest.raises(ValueError):
        ODFParams(f0=0.0, tau=0.01, gamma=1.0)
    with pytest.raises(ValueError):
        ODFParams(f0=1e-22, tau=-0.01, gamma=1.0)
    with pytest.raises(ValueError, match="^gamma must be non-negative$"):
        ODFParams(f0=1e-22, tau=0.01, gamma=-1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(0)


def test_precession_angle_linear_in_amplitude():
    budget = build_budget(ENS, ODF, SCALE, 0.05)
    dz = budget.delta_zc_single_shot
    assert budget.theta_max == pytest.approx(
        1e-22 * dz * 0.01 / CONST.reduced_planck, rel=1e-12)
    # twice the force halves the floor; the angle there stays the same
    doubled = build_budget(ENS, ODFParams(f0=2e-22, tau=0.01, gamma=100.0), SCALE, 0.05)
    assert doubled.delta_zc_single_shot == pytest.approx(dz / 2, rel=1e-12)
    assert doubled.theta_max == pytest.approx(budget.theta_max, rel=1e-12)


@given(st.floats(min_value=-20.0, max_value=20.0),
       st.floats(min_value=0.0, max_value=1000.0))
def test_population_bounded(theta, gamma):
    p = ramsey_population(theta, gamma, 0.01)
    assert 0.0 <= p <= 1.0


def test_population_no_decay_extremes():
    assert ramsey_population(0.0, 0.0, 0.01) == pytest.approx(0.0)
    assert ramsey_population(math.pi, 0.0, 0.01) == pytest.approx(1.0)


def test_population_difference_and_snr():
    diff = population_difference(0.1, 100.0, 0.01)
    assert diff == pytest.approx(math.exp(-1.0) * math.sin(0.1), rel=1e-12)
    snr = population_snr(ENS, ODF, build_budget(ENS, ODF, SCALE, 0.05).delta_zc_single_shot)
    # SNR = 1 by construction at the resolution floor (small-angle regime)
    assert snr == pytest.approx(1.0, rel=1e-3)


def test_single_shot_resolution_anchor():
    # hbar e / (F0 tau sqrt(2N)): the "e" is Euler's number via Gamma tau = 1
    dz = build_budget(ENS, ODF, SCALE, 0.05).delta_zc_single_shot
    assert dz == pytest.approx(2.0e-12, rel=0.05, abs=0)
    by_hand = (CONST.reduced_planck * math.e
               / (1e-22 * 0.01 * math.sqrt(2.0 * 10000)))
    assert dz == pytest.approx(by_hand, rel=1e-12, abs=0)


def test_averaged_sensitivity_sqrt_cycle():
    budget = build_budget(ENS, ODF, SCALE, 0.05)
    asd = budget.amplitude_asd
    assert asd == pytest.approx(budget.delta_zc_single_shot * math.sqrt(0.05),
                                rel=1e-12, abs=0)
    assert asd == pytest.approx(0.45e-12, rel=0.05, abs=0)
    with pytest.raises(ValueError, match="cycle_time"):
        build_budget(ENS, ODF, SCALE, 0.0)


def test_arw_is_exactly_sixty_times_asd():
    for scale in (1.416e-4, 3.7e-3, 2.2e-6):
        budget = build_budget(ENS, ODF, scale, 0.05)
        assert budget.arw == budget.rotation_asd * 60.0


def test_budget_chain_consistency():
    budget = build_budget(ENS, ODF, SCALE, 0.05)
    assert budget.rotation_asd == pytest.approx(
        budget.amplitude_asd / SCALE, rel=1e-12, abs=0)
    assert budget.arw == budget.rotation_asd * 60.0
    assert budget.repetitions_per_s == pytest.approx(20.0)
    with pytest.raises(ValueError, match="scale_factor"):
        build_budget(ENS, ODF, 0.0, 0.05)


def test_budget_json_schema():
    budget = build_budget(ENS, ODF, SCALE, 0.05)
    payload = json.loads(budget_json(budget, {"beta": 0.05}))
    assert payload["schema_version"] == 1
    assert payload["beta"] == 0.05
    for key in ("delta_zc_single_shot_m", "amplitude_asd_m_per_sqrt_hz",
                "rotation_asd_rad_s_per_sqrt_hz", "arw_rad_per_sqrt_h"):
        assert key in payload

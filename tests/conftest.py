import os
import sys

# BLAS reads its thread count once, when numpy loads it.  The crystal is the
# same at any count (test_kernel_output_is_independent_of_blas_threads), and
# on one thread the suite's relaxations run faster on a small machine.
assert "numpy" not in sys.modules, "numpy was loaded before the BLAS thread count was set"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from penning_gyro.core import CA40, TrapConfig
from penning_gyro.modes import compute_modes
from penning_gyro.shape import RotatingWallConfig


@pytest.fixture(scope="session")
def ca40():
    return CA40


@pytest.fixture(scope="session")
def trap10():
    """1 T / 10 V / z0 = 1 cm: the single-particle scenario."""
    return TrapConfig(b_field=1.0, trap_voltage=10.0, char_length_z0=0.01)


@pytest.fixture(scope="session")
def trap100():
    """1 T / 100 V / z0 = 1 cm: the crystal operating point."""
    return TrapConfig(b_field=1.0, trap_voltage=100.0, char_length_z0=0.01)


@pytest.fixture(scope="session")
def modes10(ca40, trap10):
    return compute_modes(ca40, trap10)


@pytest.fixture(scope="session")
def modes100(ca40, trap100):
    return compute_modes(ca40, trap100)


@pytest.fixture(scope="session")
def wall100(modes100):
    """Rotating wall locked to the axial frequency, 1% strength."""
    return RotatingWallConfig(omega_r=modes100.omega_z, delta=0.01)

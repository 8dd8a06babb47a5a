#!/usr/bin/env python3
"""Crystal relaxation study: spacing and measured aspect ratio vs ion count.

Usage: python scripts/crystal_convergence.py [N1 N2 ...]

Relaxes the crystal at each requested size (default 20 100 300 1000) at
the standard 1 T / 100 V operating point with the wall at omega_z, and
prints how the measured shape approaches the cold-fluid spheroid.  The
measured shape is taken from second moments, which for a uniform spheroid
are <z^2> = z_cl^2/5 and <x^2+y^2> = 2 r_cl^2/5: alpha_2m =
sqrt(2<z^2>/<x^2+y^2>) and r_2m = sqrt(5<x^2+y^2>/2).  The extent ratio
max|z| / max r (ShapeStats.alpha_md) is not comparable with the cold-fluid
alpha and is not printed.
"""
import sys
import time

import numpy as np

from penning_gyro.core import CA40, TrapConfig
from penning_gyro.equilibrium import RelaxationConfig, measured_shape, relax
from penning_gyro.modes import compute_modes
from penning_gyro.shape import (
    RotatingWallConfig,
    aspect_ratio_from_beta,
    shape_beta,
    spheroid_dimensions,
)


def main() -> int:
    sizes = [int(a) for a in sys.argv[1:]] or [20, 100, 300, 1000]
    modes = compute_modes(CA40, TrapConfig(1.0, 100.0, 0.01))
    wall = RotatingWallConfig(omega_r=modes.omega_z, delta=0.01)
    beta = shape_beta(modes, wall.omega_r)
    alpha_cf = aspect_ratio_from_beta(beta)
    print(f"cold-fluid reference: beta={beta:.4f}, alpha={alpha_cf:.4f}")
    print(f"{'N':>6} {'time_s':>8} {'spacing_um':>11} {'alpha_2m':>9} "
          f"{'r_2m/r_cf':>10} {'max_force_n':>12}")
    for n in sizes:
        t0 = time.time()
        config, report = relax(n, CA40, modes, wall,
                               RelaxationConfig(initial_seed=0))
        stats = measured_shape(config)
        pos = config.positions
        z2 = np.mean(pos[:, 2] ** 2)
        rho2 = np.mean(pos[:, 0] ** 2 + pos[:, 1] ** 2)
        alpha_2m = np.sqrt(2.0 * z2 / rho2)
        r_cf = spheroid_dimensions(n, alpha_cf, beta, modes.omega_z, CA40).r_cl
        print(f"{n:>6} {time.time() - t0:>8.1f} "
              f"{stats.spacing_median * 1e6:>11.2f} {alpha_2m:>9.4f} "
              f"{np.sqrt(2.5 * rho2) / r_cf:>10.3f} {report.max_force:>12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

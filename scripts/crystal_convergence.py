#!/usr/bin/env python3
"""Crystal relaxation study: spacing and measured aspect ratio vs ion count.

Usage: python scripts/crystal_convergence.py [N1 N2 ...]

Relaxes the crystal at each requested size (default 20 100 300 1000) at
the default operating point of ``RunConfig`` (1 T / 100 V, wall at
omega_z), and prints how the shape that ``measured_shape`` estimates from
second moments approaches the cold-fluid spheroid.
"""
import sys
import time

from penning_gyro.config import RunConfig
from penning_gyro.equilibrium import RelaxationConfig, measured_shape, relax
from penning_gyro.shape import aspect_ratio_from_beta, shape_beta, spheroid_dimensions


def main() -> int:
    sizes = [int(a) for a in sys.argv[1:]] or [20, 100, 300, 1000]
    run = RunConfig()
    species, modes = run.ion(), run.modes()
    wall = run.wall(modes)
    beta = shape_beta(modes, wall.omega_r)
    alpha_cf = aspect_ratio_from_beta(beta)
    print(f"cold-fluid reference: beta={beta:.4f}, alpha={alpha_cf:.4f}")
    print(f"{'N':>6} {'time_s':>8} {'spacing_um':>11} {'alpha_2m':>9} "
          f"{'r_2m/r_cf':>10} {'max_force_n':>12}")
    for n in sizes:
        t0 = time.time()
        config, report = relax(n, species, modes, wall,
                               RelaxationConfig(initial_seed=0))
        stats = measured_shape(config)
        r_cf = spheroid_dimensions(n, alpha_cf, beta, modes.omega_z, species).r_cl
        print(f"{n:>6} {time.time() - t0:>8.1f} "
              f"{stats.spacing_median * 1e6:>11.2f} {stats.alpha:>9.4f} "
              f"{stats.r_cl / r_cf:>10.3f} {report.max_force:>12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

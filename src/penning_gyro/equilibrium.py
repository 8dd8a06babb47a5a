"""N-body crystal equilibrium in the co-rotating frame.

The time-independent potential (per-ion quadratic confinement plus
once-per-unordered-pair Coulomb repulsion) is minimized directly.  The
double-sum form with the 1/(8 pi eps0) prefactor counts every pair twice;
the once-per-pair 1/(4 pi eps0) form used here is algebraically identical
and is unit-tested against the two-ion closed form.

All internal arithmetic is done in trap units (lengths in a0, energies in
m omega_z^2 a0^2) where the Coulomb pair term is exactly 1/d; this keeps
the minimizer well conditioned at any ion count.
"""
from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from .core import IonSpecies, NumericalError, Record, write_csv
from .modes import ModeFrequencies
from .shape import (
    RotatingWallConfig,
    aspect_ratio_from_beta,
    coulomb_trap_length,
    shape_beta,
    spheroid_dimensions,
)


class CoincidentIonsError(NumericalError, ValueError):
    """Two ions share a position, or a coordinate is NaN: a numerical failure."""


class ConvergenceError(NumericalError, RuntimeError):
    def __init__(self, message, best_config, report):
        super().__init__(message)
        self.best_config = best_config
        self.report = report


def _nearest_neighbor_distances(positions: np.ndarray) -> np.ndarray:
    from scipy.spatial import cKDTree

    tree = cKDTree(positions)
    d, _ = tree.query(positions, k=2)
    return d[:, 1]


class IonConfiguration(Record):
    positions: np.ndarray  # (N, 3) m, rotating frame

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array")
        if pos.shape[0] == 0:  # an empty crystal has no shape to measure
            raise ValueError("positions must hold at least one ion")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if pos.shape[0] > 1 and np.min(_nearest_neighbor_distances(pos)) <= 0.0:
            raise CoincidentIonsError("coincident ions")
        object.__setattr__(self, "positions", pos)

    @property
    def ion_count(self) -> int:
        return self.positions.shape[0]


_MAX_ITERATIONS = 20000


class RelaxationConfig(Record):
    force_tolerance: ClassVar[float] = 1e-21   # N, per component
    initial_seed: int = 0


class ConvergenceReport(Record):
    converged: bool
    final_energy: float       # J
    max_force: float          # N, largest residual component
    iterations: int
    restarts_used: int        # always 0 (relax runs one descent); perfbench reads it

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "final_energy_j": self.final_energy,
            "max_force_n": self.max_force,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
        }


def _trap_units(species: IonSpecies, modes: ModeFrequencies, wall: RotatingWallConfig):
    """a0, the energy and force scales, and the curvatures kx, ky, beta."""
    beta = shape_beta(modes, wall.omega_r)  # the wall's gate comes first
    a0 = coulomb_trap_length(species, modes.omega_z)
    energy_scale = species.mass * modes.omega_z ** 2 * a0 ** 2
    force_scale = species.mass * modes.omega_z ** 2 * a0
    # wall squeezes x and releases y for a positive delta
    return a0, energy_scale, force_scale, beta + wall.delta, beta - wall.delta, beta


def _energy_gradient_kernel(n: int):
    """Energy and gradient in trap units of n ions: energy_gradient(u, kx, ky).

    The two pair-sized buffers are allocated here once and overwritten by
    every call; the returned gradient is a fresh array on each call.
    """
    from scipy.spatial.distance import pdist, squareform

    inv = np.empty(n * (n - 1) // 2)   # 1/d_ij once per pair i < j
    cube = np.empty_like(inv)          # 1/d_ij^3

    def energy_gradient(u: np.ndarray, kx: float, ky: float):
        conf = 0.5 * (kx * np.sum(u[:, 0] ** 2) + ky * np.sum(u[:, 1] ** 2)
                      + np.sum(u[:, 2] ** 2))
        grad = np.empty_like(u)
        grad[:, 0] = kx * u[:, 0]
        grad[:, 1] = ky * u[:, 1]
        grad[:, 2] = u[:, 2]
        # NaN distances fail the guard too
        pdist(u, out=inv)
        if not np.all(inv > 0.0):
            raise CoincidentIonsError("coincident ions")
        np.divide(1.0, inv, out=inv)
        np.multiply(inv, inv, out=cube)
        np.multiply(cube, inv, out=cube)
        w = squareform(cube)  # W_ij = 1/d_ij^3, zero diagonal
        # one matrix-vector product per axis: BLAS rounds these the same way
        # at any thread count, where a (N,N)x(N,3) product does not
        wu = np.column_stack([w @ u[:, k] for k in range(3)])
        grad -= u * w.sum(axis=1)[:, None] - wu
        return conf + np.sum(inv), grad

    return energy_gradient


def _evaluate(config: IonConfiguration, species: IonSpecies,
              modes: ModeFrequencies, wall: RotatingWallConfig):
    """The potential energy in J and the forces, (N, 3) newtons."""
    a0, e_scale, f_scale, kx, ky, _ = _trap_units(species, modes, wall)
    value, grad = _energy_gradient_kernel(config.ion_count)(config.positions / a0, kx, ky)
    return value * e_scale, -grad * f_scale


def rotating_frame_potential(config: IonConfiguration, species: IonSpecies,
                             modes: ModeFrequencies,
                             wall: RotatingWallConfig) -> float:
    """Total time-independent potential energy, J."""
    return _evaluate(config, species, modes, wall)[0]


def forces(config: IonConfiguration, species: IonSpecies,
           modes: ModeFrequencies, wall: RotatingWallConfig) -> np.ndarray:
    """Analytic negative gradient of the potential, (N, 3) newtons."""
    return _evaluate(config, species, modes, wall)[1]


def _hex_patch(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Jittered hexagonal patch of n sites scaled to the given radius."""
    spacing = 1.0
    sites = [(0.0, 0.0)]
    ring = 1
    while len(sites) < n:
        for k in range(6 * ring):
            angle = 2.0 * math.pi * k / (6 * ring)
            # hexagonal ring approximated on a circle; jitter breaks ties
            sites.append((ring * spacing * math.cos(angle),
                          ring * spacing * math.sin(angle)))
        ring += 1
    sites = np.array(sites)
    order = np.argsort(np.hypot(sites[:, 0], sites[:, 1]), kind="stable")
    sites = sites[order[:n]]
    extent = max(np.max(np.hypot(sites[:, 0], sites[:, 1])), spacing)
    sites *= radius / extent
    out = np.zeros((n, 3))
    out[:, :2] = sites
    out += rng.normal(scale=0.02 * radius / math.sqrt(n), size=out.shape)
    return out


def relax(n_ions: int, species: IonSpecies, modes: ModeFrequencies,
          wall: RotatingWallConfig, cfg: RelaxationConfig = RelaxationConfig()):
    """Minimize the rotating-frame potential; deterministic for fixed seed.

    One L-BFGS descent from a seeded, jittered hexagonal patch sized to the
    cold-fluid radius.  Returns (IonConfiguration, ConvergenceReport);
    raises ConvergenceError with the descent's final configuration attached
    if its largest force component does not fall below the tolerance.
    """
    from scipy.optimize import minimize

    if n_ions < 1:
        raise ValueError("need at least one ion")
    a0, e_scale, f_scale, kx, ky, beta = _trap_units(species, modes, wall)
    if beta <= wall.delta:
        raise ValueError("wall dominance requires beta > delta")
    tol = cfg.force_tolerance / f_scale

    if n_ions == 1:
        config = IonConfiguration(np.zeros((1, 3)))
        report = ConvergenceReport(True, 0.0, 0.0, 0, 0)
        return config, report

    alpha_guess = aspect_ratio_from_beta(min(beta, 0.999))
    r_guess = spheroid_dimensions(n_ions, alpha_guess, beta, modes.omega_z,
                                  species).r_cl / a0
    u = _hex_patch(n_ions, r_guess, np.random.default_rng(cfg.initial_seed))

    energy_gradient = _energy_gradient_kernel(n_ions)

    def fun(x):
        value, grad = energy_gradient(x.reshape(n_ions, 3), kx, ky)
        return value, grad.reshape(-1)

    # L-BFGS stops once its largest gradient component is at most gtol, and
    # convergence is decided below on that same gradient (res.jac is the
    # gradient at res.x), so gtol needs no margin against the solver.  The
    # factor 2 is the margin for the strict `< tol` and for a recheck at
    # res.x * a0 / a0, which moves the gradient by round-off only.
    res = minimize(fun, u.reshape(-1), jac=True, method="L-BFGS-B",
                   options={"maxiter": _MAX_ITERATIONS, "ftol": 1e-18,
                            "gtol": tol / 2.0, "maxcor": 20})
    max_grad = float(np.max(np.abs(res.jac)))
    converged = max_grad < tol
    max_force = max_grad * f_scale
    report = ConvergenceReport(
        converged=converged,
        final_energy=float(res.fun * e_scale),
        max_force=max_force,
        iterations=int(res.nit),
        restarts_used=0,
    )
    config = IonConfiguration(res.x.reshape(n_ions, 3) * a0)
    if not converged:
        raise ConvergenceError(
            f"relaxation failed to reach {cfg.force_tolerance:.3g} N "
            f"(residual {max_force:.3g} N)", config, report)
    return config, report


class ShapeStats(Record):
    alpha: float             # sqrt(2<z^2>/<x^2+y^2>), the cold-fluid alpha
    r_cl: float              # m, sqrt(5<x^2+y^2>/2), the cold-fluid radius
    spacing_median: float    # m, nearest-neighbor
    spacing_spread: float    # m, interquartile range
    low_confidence: bool     # True for N < 20

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "r_cl_m": self.r_cl,
            "spacing_median_m": self.spacing_median,
            "spacing_iqr_m": self.spacing_spread,
            "low_confidence": self.low_confidence,
        }


def measured_shape(config: IonConfiguration) -> ShapeStats:
    """Aspect ratio, radius and lattice-spacing statistics of a relaxed crystal.

    alpha and r_cl come from second moments about the trap centre, which for
    a uniform spheroid are <z^2> = z_cl^2/5 and <x^2+y^2> = 2 r_cl^2/5.
    """
    pos = config.positions
    rho2 = float(np.mean(pos[:, 0] ** 2 + pos[:, 1] ** 2))
    z2 = float(np.mean(pos[:, 2] ** 2))
    nn = _nearest_neighbor_distances(pos) if config.ion_count > 1 else np.array([0.0])
    q75, q25 = np.percentile(nn, [75.0, 25.0])
    return ShapeStats(
        alpha=math.sqrt(2.0 * z2 / rho2) if rho2 > 0.0 else 0.0,
        r_cl=math.sqrt(2.5 * rho2),
        spacing_median=float(np.median(nn)),
        spacing_spread=float(q75 - q25),
        low_confidence=config.ion_count < 20,
    )


def write_configuration_csv(config: IonConfiguration, path) -> None:
    write_csv(path, ["ion_index", "x_m", "y_m", "z_m"],
              [[i, *row] for i, row in enumerate(config.positions.tolist())])

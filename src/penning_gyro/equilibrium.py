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
import sys
from collections import deque
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


class RelaxationConfig(Record):
    force_tolerance: ClassVar[float] = 1e-21   # N, per component
    initial_seed: int = 0


class ConvergenceReport(Record):
    converged: bool
    final_energy: float       # J
    max_force: float          # N, largest residual component
    iterations: int
    evaluations: int          # energy+gradient calls (L-BFGS nfev)
    restarts_used: int        # always 0 (relax runs one descent); perfbench reads it

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "final_energy_j": self.final_energy,
            "max_force_n": self.max_force,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
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


# L-BFGS-B's unbounded path (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput.
# 16, 1190 (1995)) with the settings relax has always used: 20 (s, y) pairs,
# a relative reduction floor of 1e-18, and scipy's default cap on evaluations
_MAX_ITERATIONS = 20000
_MAX_EVALUATIONS = 15000
_MEMORY = 20
_F_REDUCTION = 1e-18
_EPS = sys.float_info.epsilon
# the line search's sufficient-decrease, curvature and interval tolerances,
# its largest step and the evaluations one search may make
_LS_FTOL, _LS_GTOL, _LS_XTOL = 1e-3, 0.9, 0.1
_STEP_MAX = 1e10
_LS_MAX_EVALUATIONS = 20


def _cubic_gamma(theta: float, da: float, db: float, negative: bool) -> float:
    """The square-root term of the cubic through two (value, slope) points."""
    s = max(abs(theta), abs(da), abs(db))
    gamma = s * math.sqrt(max(0.0, (theta / s) * (theta / s) - (da / s) * (db / s)))
    return -gamma if negative else gamma


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stmin, stmax):
    """The next trial step and the updated interval, as MINPACK-2's dcstep.

    (stx, fx, dx) is the best step so far with its value and slope, (sty,
    fy, dy) the interval's other end and (stp, fp, dp) the latest trial.
    Returns (stx, fx, dx, sty, fy, dy, stp, brackt).  A port of the
    MINPACK-2 routine (Moré & Thuente, ACM TOMS 20, 286 (1994)) by way of
    scipy's _dcsrch.py (BSD-3 licensed), with its four cases in order.
    """
    opposite = dp < 0.0 < dx or dx < 0.0 < dp
    if fp > fx:  # a higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp, stp < stx)
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:  # a lower value and slopes of opposite sign: bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp, stp > stx)
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # a lower value, same signs, a shrinking slope
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp, stp > stx)
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:  # the cubic's minimum lies beyond stp, or it has none
            stpc = stmax if stp > stx else stmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stmin, min(stmax, stpf))
    elif brackt:  # a lower value, same signs, a slope that does not shrink
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, dy, dp, stp > sty)
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        stpf = stmax if stp > stx else stmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _line_search(phi, f0: float, g0: float, stp: float):
    """A strong-Wolfe step along a descent direction, as MINPACK-2's dcsrch.

    phi(stp) returns the value and slope at stp; f0 and g0 < 0 are those at
    0 and stp is the first trial.  Returns the accepted (stp, f, g).  Like
    L-BFGS-B it accepts on any of dcsrch's warnings as on convergence.  It
    returns None at a trial value that is not finite, where dcstep would
    step to NaN, or after _LS_MAX_EVALUATIONS trials without an accepted
    step.
    """
    brackt, stage1 = False, True
    gtest = _LS_FTOL * g0
    width, width1 = _STEP_MAX, 2.0 * _STEP_MAX  # the interval's last two widths
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = g0
    stmin, stmax = 0.0, stp + 4.0 * stp
    for _ in range(_LS_MAX_EVALUATIONS):
        f, g = phi(stp)
        if not (math.isfinite(f) and math.isfinite(g)):
            return None
        ftest = f0 + stp * gtest
        if stage1 and f <= ftest and g >= 0.0:
            stage1 = False
        if ((brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax))
                or (stp == _STEP_MAX and f <= ftest and g <= gtest)
                or (stp == 0.0 and (f > ftest or g >= gtest))
                or (f <= ftest and abs(g) <= _LS_GTOL * -g0)):
            return stp, f, g
        if stage1 and fx >= f > ftest:
            # a lower value, but not low enough: step on psi = f - stp gtest
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest,
                gy - gtest, stp, f - stp * gtest, g - gtest, brackt, stmin, stmax)
            fx, fy = fxm + stx * gtest, fym + sty * gtest
            gx, gy = gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax)
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:  # too little shrinkage: bisect
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _STEP_MAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax):
            stp = stx  # no further progress is possible: the best step so far
    return None


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The direction -H g for the L-BFGS inverse Hessian H of the pairs.

    The two-loop recursion (Nocedal & Wright, Algorithm 7.4) over the (s,
    y, s.y) pairs, oldest first, with H0 = gamma I and gamma = s.y / y.y
    of the newest pair.  With no pairs the direction is -g.
    """
    if not pairs:
        return -g
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        alpha = (1.0 / sy) * s.dot(q)
        q -= alpha * y
        alphas.append(alpha)
    _, y, sy = pairs[-1]
    q *= sy / y.dot(y)
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - (1.0 / sy) * y.dot(q)) * s
    return -q


def _lbfgs(fun, x: np.ndarray, gtol: float):
    """Minimize fun from x by L-BFGS with Moré–Thuente line searches.

    fun(x) returns the value and gradient.  The stop rules, the update skip
    and the restart follow L-BFGS-B with no bounds, so the descent follows
    scipy's minimize(method="L-BFGS-B") to round-off.  Returns (x, f, g,
    iterations, evaluations): the last accepted point, the accepted steps
    and every call of fun (scipy's nit and nfev).
    """
    def phi(stp):
        nonlocal evaluations, trial
        evaluations += 1
        x_new = x + stp * d
        f_new, g_new = fun(x_new)
        trial = x_new, g_new
        return float(f_new), float(g_new.dot(d))

    trial = None  # (x, g) of phi's latest evaluation
    value, g = fun(x)
    f = float(value)
    evaluations, iterations = 1, 0
    pairs = deque(maxlen=_MEMORY)  # (s, y, s.y), the oldest dropped first
    stop = abs(g).max() <= gtol
    while not stop:
        d = _two_loop(g, pairs)
        gd = float(g.dot(d))
        step = None
        if gd < 0.0:
            # first trial: a unit-length step, then the quasi-Newton step
            stp = min(1.0 / math.sqrt(d.dot(d)), _STEP_MAX) if iterations == 0 else 1.0
            step = _line_search(phi, f, gd, stp)
        if step is None:  # an ascent direction or a failed search: x stays
            if not pairs:
                break
            pairs.clear()  # and restart from steepest descent
            continue
        stp, f_new, _ = step
        x_new, g_new = trial
        iterations += 1
        stop = (abs(g_new).max() <= gtol or iterations >= _MAX_ITERATIONS
                or evaluations > _MAX_EVALUATIONS
                or f - f_new <= _F_REDUCTION * max(abs(f), abs(f_new), 1.0))
        s, y = x_new - x, g_new - g
        sy = float(s.dot(y))
        if sy > _EPS * (-gd * stp):  # else skip the update
            pairs.append((s, y, sy))
        x, f, g = x_new, f_new, g_new
    return x, f, g, iterations, evaluations


def relax(n_ions: int, species: IonSpecies, modes: ModeFrequencies,
          wall: RotatingWallConfig, cfg: RelaxationConfig = RelaxationConfig()):
    """Minimize the rotating-frame potential; deterministic for fixed seed.

    One L-BFGS descent from a seeded, jittered hexagonal patch sized to the
    cold-fluid radius.  Returns (IonConfiguration, ConvergenceReport);
    raises ConvergenceError with the descent's final configuration attached
    if its largest force component does not fall below the tolerance.
    """
    if n_ions < 1:
        raise ValueError("need at least one ion")
    a0, e_scale, f_scale, kx, ky, beta = _trap_units(species, modes, wall)
    if beta <= wall.delta:
        raise ValueError("wall dominance requires beta > delta")
    tol = cfg.force_tolerance / f_scale

    if n_ions == 1:
        config = IonConfiguration(np.zeros((1, 3)))
        report = ConvergenceReport(True, 0.0, 0.0, 0, 0, 0)
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
    # convergence is decided below on that same gradient (the one at the
    # returned x), so gtol needs no margin against the solver.  The factor 2
    # is the margin for the strict `< tol` and for a recheck at x * a0 / a0,
    # which moves the gradient by round-off only.
    x, value, grad, iterations, evaluations = _lbfgs(fun, u.reshape(-1), tol / 2.0)
    max_grad = float(np.max(np.abs(grad)))
    converged = max_grad < tol
    max_force = max_grad * f_scale
    report = ConvergenceReport(
        converged=converged,
        final_energy=value * e_scale,
        max_force=max_force,
        iterations=iterations,
        evaluations=evaluations,
        restarts_used=0,
    )
    config = IonConfiguration(x.reshape(n_ions, 3) * a0)
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

"""The three benchmark workloads: their seeded inputs, the timed program
calls, and the correctness checks against the recorded references.

Each workload exposes ``next_input()`` (untimed input generation),
``op(inp)`` (the timed calls into ``penning_gyro``), ``check(inp, result)``
(untimed; returns a list of problems, empty when the output is correct)
and ``preflight()`` (problems found by one-off checks made before timing).
Program functions are always looked up on their module at call time so
that the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import shutil
import tempfile
from dataclasses import dataclass

from penning_gyro import cli, config, equilibrium, modes, response, sensing, shape
from penning_gyro.core import CA40, TrapConfig

from harness import rel_close

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

# crystal: a fixed pool of relaxation seeds whose results were recorded;
# the workload seed picks which pool seeds a run relaxes
CRYSTAL_IONS = 200
CRYSTAL_POOL = 64
CRYSTAL_ENERGY_RTOL = 1e-4       # local minima of different seeds differ by <= 4e-5
CRYSTAL_SPACING_RTOL = 3e-2      # and their median spacings by <= 1.5%
CRYSTAL_POTENTIAL_RTOL = 1e-12   # rotating_frame_potential vs reported energy

FIGURES_RTOL = 1e-6              # relative to each column's largest magnitude
DIGEST_ROWS = 33                 # evenly spaced rows kept per CSV reference

ALPHA_ROUTES_RTOL = 1e-9         # k0/k1 route vs depolarization route
ARW_RTOL = 1e-12                 # ARW = 60 x rotation ASD
DIGEST_RTOL = 1e-9               # design digest against its reference
Z0 = 0.01                        # m, the default trap size


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# The cost of one relaxation depends on its seed (228 to 761 iterations
# over the pool), so a run's median would follow whichever seeds it drew.
# The pool is cut into strata of similar recorded iteration counts; each
# operation draws a seed from the next stratum in bit-reversed order, so
# any run of consecutive operations spans easy and hard seeds alike.
CRYSTAL_VISIT = (0, 4, 2, 6, 1, 5, 3, 7)


def crystal_strata(crystal_refs: dict) -> list[list[int]]:
    by_cost = sorted(range(CRYSTAL_POOL),
                     key=lambda s: (crystal_refs[str(s)]["iterations"], s))
    size = CRYSTAL_POOL // len(CRYSTAL_VISIT)
    return [by_cost[i:i + size] for i in range(0, CRYSTAL_POOL, size)]


# ------------------------------------------------------------------ crystal

class Crystal:
    """One relaxation of the default 1 T / 100 V / z0 = 1 cm crystal with
    the CLI defaults (``RelaxationConfig(initial_seed=s)``), then its
    measured shape."""

    name = "crystal"

    def __init__(self, seed: int, refs: dict):
        cfg = config.RunConfig()
        self.species = cfg.ion()
        self.modes = modes.compute_modes(self.species, cfg.trap())
        self.wall = cfg.wall(self.modes)
        self.refs = refs["crystal"]
        self.rng = random.Random(seed)
        self.strata = None   # built on first use: record_refs.py runs without refs
        self.count = 0

    def next_input(self) -> int:
        if self.strata is None:
            self.strata = crystal_strata(self.refs)
        stratum = self.strata[CRYSTAL_VISIT[self.count % len(CRYSTAL_VISIT)]]
        self.count += 1
        return self.rng.choice(stratum)

    def op(self, relax_seed: int):
        crystal, report = equilibrium.relax(
            CRYSTAL_IONS, self.species, self.modes, self.wall,
            equilibrium.RelaxationConfig(initial_seed=relax_seed))
        return crystal, report, equilibrium.measured_shape(crystal)

    def record(self, relax_seed: int, result) -> dict:
        crystal, report, stats = result
        return {"energy_j": report.final_energy,
                "spacing_median_m": stats.spacing_median,
                "iterations": report.iterations}

    def check(self, relax_seed: int, result) -> list[str]:
        crystal, report, stats = result
        problems = []
        tolerance = equilibrium.RelaxationConfig().force_tolerance
        residual = float(abs(equilibrium.forces(
            crystal, self.species, self.modes, self.wall)).max())
        if not (report.converged and residual < tolerance):
            problems.append(f"residual {residual:.3g} N >= {tolerance:.3g} N")
        energy = equilibrium.rotating_frame_potential(
            crystal, self.species, self.modes, self.wall)
        if not rel_close(energy, report.final_energy, CRYSTAL_POTENTIAL_RTOL):
            problems.append(f"potential {energy!r} != reported {report.final_energy!r}")
        ref = self.refs[str(relax_seed)]
        if not rel_close(report.final_energy, ref["energy_j"], CRYSTAL_ENERGY_RTOL):
            problems.append(f"energy {report.final_energy!r} vs reference {ref['energy_j']!r}")
        if not rel_close(stats.spacing_median, ref["spacing_median_m"],
                         CRYSTAL_SPACING_RTOL):
            problems.append(f"spacing median {stats.spacing_median!r} vs "
                            f"reference {ref['spacing_median_m']!r}")
        return problems

    def preflight(self) -> list[str]:
        return []


# ------------------------------------------------------------------ figures

_NUMBER = re.compile(r"^(?:np\.float64\((.*)\)|(.*))$")


def _cell(text: str):
    """A CSV cell as a float, or None for an empty gap marker."""
    if text == "":
        return None
    match = _NUMBER.match(text)
    return float(match.group(1) if match.group(1) is not None else match.group(2))


def csv_digest(path: str) -> dict:
    """Header, row count, per-column moments and evenly spaced rows."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[_cell(c) for c in line.rstrip("\n").split(",")] for line in fh]
    columns = []
    for j in range(len(header)):
        values = [r[j] for r in rows if r[j] is not None]
        columns.append({
            "empty": len(rows) - len(values),
            "sum": math.fsum(values),
            "sum_abs": math.fsum(abs(v) for v in values),
            "min": min(values) if values else None,
            "max": max(values) if values else None,
        })
    n = len(rows)
    picks = sorted({round(k * (n - 1) / (DIGEST_ROWS - 1)) for k in range(DIGEST_ROWS)}) if n else []
    return {"header": header, "rows": n, "columns": columns,
            "samples": {str(i): rows[i] for i in picks}}


def compare_csv(name: str, got: dict, ref: dict, rtol: float) -> list[str]:
    if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
        return [f"{name}: shape {got['header']} x {got['rows']} vs "
                f"{ref['header']} x {ref['rows']}"]
    problems = []
    for j, (g, r) in enumerate(zip(got["columns"], ref["columns"])):
        col = f"{name}:{ref['header'][j]}"
        if g["empty"] != r["empty"]:
            problems.append(f"{col} gaps {g['empty']} vs {r['empty']}")
            continue
        if r["min"] is None:
            continue
        scale = max(abs(r["min"]), abs(r["max"]))
        if not rel_close(g["sum"], r["sum"], rtol, r["sum_abs"]):
            problems.append(f"{col} sum {g['sum']!r} vs {r['sum']!r}")
        for key in ("sum_abs", "min", "max"):
            ref_scale = r["sum_abs"] if key == "sum_abs" else scale
            if not rel_close(g[key], r[key], rtol, ref_scale):
                problems.append(f"{col} {key} {g[key]!r} vs {r[key]!r}")
        for i, row in ref["samples"].items():
            a, b = got["samples"].get(i, [None] * len(ref["header"]))[j], row[j]
            if (a is None) != (b is None) or (b is not None
                                              and not rel_close(a, b, rtol, scale)):
                problems.append(f"{col} row {i}: {a!r} vs {b!r}")
                break
    return problems


def compare_budget(got: dict, ref: dict, rtol: float) -> list[str]:
    if sorted(got) != sorted(ref):
        return [f"budget.json keys {sorted(got)} vs {sorted(ref)}"]
    problems = []
    for key, r in ref.items():
        g = got[key]
        if isinstance(r, (bool, str)):
            ok = g == r
        else:
            ok = isinstance(g, (int, float)) and rel_close(g, r, rtol)
        if not ok:
            problems.append(f"budget.json {key} {g!r} vs {r!r}")
    return problems


def output_digest(outdir: str) -> dict:
    digest = {name: csv_digest(os.path.join(outdir, name))
              for name in sorted(os.listdir(outdir)) if name.endswith(".csv")}
    with open(os.path.join(outdir, "budget.json")) as fh:
        digest["budget.json"] = json.load(fh)
    return digest


class Figures:
    """``penning-gyro fig 1..6`` then ``budget`` into a fresh directory,
    the path of ``scripts/reproduce_figures.py``.  Its inputs are pinned
    by the paper, so the seed is unused."""

    name = "figures"

    def __init__(self, refs: dict, scratch: str):
        self.refs = refs["figures"]
        self.scratch = scratch
        self.count = 0
        self.csv_bytes = math.nan   # bytes of CSV written by the last checked set

    def next_input(self) -> str:
        self.count += 1
        return tempfile.mkdtemp(prefix="figures-", dir=self.scratch)

    def op(self, outdir: str) -> list[int]:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["--output-dir", outdir, "fig", str(k)])
                     for k in range(1, 7)]
            codes.append(cli.main(["--output-dir", outdir, "budget"]))
        return codes

    def record(self, outdir: str, codes) -> dict:
        try:
            return output_digest(outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def check(self, outdir: str, codes) -> list[str]:
        try:
            if any(codes):
                return [f"exit codes {codes}"]
            self.csv_bytes = sum(os.path.getsize(os.path.join(outdir, n))
                                 for n in os.listdir(outdir) if n.endswith(".csv"))
            got = output_digest(outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if sorted(got) != sorted(self.refs):
            return [f"files {sorted(got)} vs {sorted(self.refs)}"]
        problems = compare_budget(got["budget.json"], self.refs["budget.json"],
                                  FIGURES_RTOL)
        for name in sorted(got):
            if name != "budget.json":
                problems += compare_csv(name, got[name], self.refs[name], FIGURES_RTOL)
        return problems

    def preflight(self) -> list[str]:
        return []


# ------------------------------------------------------------- design sweep

@dataclass(frozen=True)
class DesignPoint:
    b_field: float     # T
    voltage: float     # V
    beta: float        # drawn radial-to-axial confinement ratio
    omega_r: float     # rad/s, lower root for beta
    n_crystal: int
    q_factor: float


def design_points(seed: int):
    """Endless seeded stream of stable design points on the oblate branch.

    B ~ U[0.5, 3] T, V ~ U(0.05, 0.95) of the stability-edge voltage,
    beta ~ U(0.01, 0.99) * min(1, beta_max) with omega_r the lower root,
    n_crystal uniform on [100, 10^4], Q log-uniform on [10^4, 10^7].
    """
    rng = random.Random(seed)
    q_over_m = CA40.charge / CA40.mass
    while True:
        b_field = rng.uniform(0.5, 3.0)
        omega_c = q_over_m * b_field
        v_edge = omega_c ** 2 * Z0 ** 2 / (2.0 * q_over_m)
        voltage = rng.uniform(0.05, 0.95) * v_edge
        wz2 = q_over_m * voltage / Z0 ** 2
        beta_max = omega_c ** 2 / (4.0 * wz2) - 0.5
        beta = rng.uniform(0.01, 0.99) * min(1.0, beta_max)
        omega_r = 0.5 * (omega_c - math.sqrt(omega_c ** 2 - 4.0 * (beta + 0.5) * wz2))
        yield DesignPoint(b_field=b_field, voltage=voltage, beta=beta,
                          omega_r=omega_r, n_crystal=rng.randint(100, 10_000),
                          q_factor=10.0 ** rng.uniform(4.0, 7.0))


@dataclass(frozen=True)
class DesignResult:
    alpha: float
    alpha_oracle: float
    planar: bool
    budget: object     # sensing.SensitivityBudget


def evaluate_design(point: DesignPoint, run: config.RunConfig) -> DesignResult:
    """The ``budget`` chain for one design point, without file I/O."""
    species = run.ion()
    m = modes.compute_modes(species, TrapConfig(point.b_field, point.voltage, Z0))
    beta = shape.shape_beta(m, point.omega_r)
    alpha = shape.aspect_ratio_from_beta(beta)
    alpha_oracle = shape.oracle_aspect_ratio_depolarization(beta)
    geom = shape.spheroid_dimensions(point.n_crystal, alpha, beta, m.omega_z, species)
    planar = shape.planarity_check(beta, run.wall_delta)
    scale = response.rotation_scale_factor(
        geom.r_cl, response.OscillatorParams(omega_z=m.omega_z, omega_r=point.omega_r,
                                             quality_factor=point.q_factor))
    budget = sensing.build_budget(
        sensing.EnsembleSpec(run.n_spins),
        sensing.ODFParams(f0=run.odf_force_n, tau=run.precession_s,
                          gamma=run.decay_rate_hz),
        scale, run.cycle_s)
    return DesignResult(alpha, alpha_oracle, planar.passes, budget)


def design_digest() -> dict:
    """Mode triplet at 1 T / 10 V, alpha(beta = 0.054) and the default ARW."""
    run = config.RunConfig()
    m = modes.compute_modes(run.ion(), TrapConfig(1.0, 10.0, Z0))
    default_modes = run.modes()
    default = evaluate_design(
        DesignPoint(run.b_field_t, run.trap_voltage_v, math.nan,
                    run.wall(default_modes).omega_r, run.n_crystal, run.q_factor), run)
    return {"modes_1t_10v_hz": [m.f_m, m.f_z, m.f_cap_m],
            "alpha_beta_0054": shape.aspect_ratio_from_beta(0.054),
            "default_arw_rad_per_sqrt_h": default.budget.arw}


class DesignSweep:
    """Seeded random design points pushed one at a time through the budget
    chain: modes, shape, geometry, planarity, response and sensing."""

    name = "design_sweep"

    def __init__(self, seed: int, refs: dict):
        self.refs = refs["design"]
        self.run = config.RunConfig()
        self.points = design_points(seed)
        self.count = 0

    def next_input(self) -> DesignPoint:
        self.count += 1
        return next(self.points)

    def op(self, point: DesignPoint) -> DesignResult:
        return evaluate_design(point, self.run)

    def check(self, point: DesignPoint, result: DesignResult) -> list[str]:
        problems = []
        if not rel_close(result.alpha, result.alpha_oracle, ALPHA_ROUTES_RTOL):
            problems.append(f"alpha routes {result.alpha!r} vs {result.alpha_oracle!r}")
        fields = result.budget.as_dict()
        bad = [k for k, v in fields.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"non-finite budget fields {bad}")
        if not rel_close(result.budget.arw, 60.0 * result.budget.rotation_asd, ARW_RTOL):
            problems.append(f"ARW {result.budget.arw!r} != 60 x rotation ASD")
        return problems

    def preflight(self) -> list[str]:
        got, ref = design_digest(), self.refs
        problems = [f"mode {i} {g!r} vs {r!r}"
                    for i, (g, r) in enumerate(zip(got["modes_1t_10v_hz"],
                                                   ref["modes_1t_10v_hz"]))
                    if not rel_close(g, r, DIGEST_RTOL)]
        for key in ("alpha_beta_0054", "default_arw_rad_per_sqrt_h"):
            if not rel_close(got[key], ref[key], DIGEST_RTOL):
                problems.append(f"{key} {got[key]!r} vs {ref[key]!r}")
        return problems


def make(name: str, seed: int, refs: dict, scratch: str):
    if name == "crystal":
        return Crystal(seed, refs)
    if name == "figures":
        return Figures(refs, scratch)
    if name == "design_sweep":
        return DesignSweep(seed, refs)
    raise ValueError(f"unknown workload {name!r}")

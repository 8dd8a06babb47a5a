"""Per-layer tracing: which public functions are wrapped, the pinned layer
probes, and the per-layer metrics computed from the recorded spans.

Two sources feed the metrics:

* the traced workload window (run id ``workload``) gives how the workload
  uses each layer: calls per operation, each layer's share of self time,
  and the tracing overhead;
* the layer probes (run ids ``probe.*``) run pinned inputs that are the
  same on every workload, so each layer's cost is measured on every run
  whether or not the workload itself reaches that layer.
"""
from __future__ import annotations

import math

import numpy as np

from penning_gyro import (cli, dynamics, equilibrium, figures, modes, response,
                          sensing, shape)
from penning_gyro.config import RunConfig
from penning_gyro.core import RotationInput, TrapConfig

from harness import current_rss_mb, median, peak_rss_mb, self_times
import workloads

LAYERS = ("equilibrium", "dynamics", "shape", "modes", "response", "sensing",
          "figures", "cli")


def _integrate_steps(args, kwargs) -> float:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    return round(cfg.total_time / cfg.time_step)


def targets() -> dict:
    """Span name -> (public function, work-units function or None)."""
    names = {
        equilibrium: ("relax", "forces", "measured_shape"),
        dynamics: ("integrate", "extract_spectrum", "write_trajectory_csv",
                   "write_spectrum_csv"),
        shape: ("shape_beta", "aspect_ratio_from_beta",
                "oracle_aspect_ratio_depolarization", "spheroid_dimensions",
                "planarity_check", "shape_sweep", "write_shape_csv"),
        modes: ("compute_modes", "freq_difference_sweep", "write_sweep_csv"),
        response: ("rotation_scale_factor",),
        sensing: ("build_budget", "budget_json"),
        figures: ("generate_figure",),
        cli: ("main",),
    }
    out = {}
    for module, funcs in names.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for func in funcs:
            work = _integrate_steps if func == "integrate" else None
            out[f"{layer}.{func}"] = (getattr(module, func), work)
    for fig_id, fn in figures.FIGURES.items():
        out[f"figures.fig{fig_id}"] = (fn, None)
    return out


# ------------------------------------------------------------------- probes

FORCE_SIZES = ((300, 7), (1000, 3), (3000, 2))   # (ions, calls)
PROBE_DESIGN_POINTS = 200
SPECTRUM_CALLS = 5


def _disk_crystal(n: int, a0: float, rng) -> equilibrium.IonConfiguration:
    """Seeded ions spread over a thin disk at roughly crystal density."""
    radius = math.sqrt(n) * a0
    r = radius * np.sqrt(rng.random(n))
    phi = 2.0 * math.pi * rng.random(n)
    z = 0.05 * a0 * rng.standard_normal(n)
    return equilibrium.IonConfiguration(
        np.column_stack([r * np.cos(phi), r * np.sin(phi), z]))


def _attempt(tracer, tally, run_id: str, op, check=lambda result: []):
    """One probe operation, traced under ``run_id``; an exception or a
    failed check is counted as a failure and the probe goes on."""
    try:
        with tracer.recording(run_id):
            result = op()
        problems = check(result)
    except Exception as exc:  # a failing probe is counted, not fatal
        result, problems = None, [f"{type(exc).__name__}: {exc}"]
    tally.record(run_id, problems)
    return result


def _spectrum_input():
    """Pinned 10 V single-particle run with enough samples for a periodogram."""
    run = RunConfig()
    species = run.ion()
    trap = TrapConfig(run.b_field_t, 10.0, run.char_length_m)
    dt = dynamics.default_time_step(species, trap)
    return dynamics.integrate(
        dynamics.magnetron_orbit_state(25e-6, modes.compute_modes(species, trap)),
        species, trap, RotationInput(omega_x=10.0),
        dynamics.IntegratorConfig(time_step=dt, total_time=8192 * dt))


def run_probes(tracer, tally, scratch: str, refs: dict) -> dict:
    """Run every layer probe under its own run id; returns probe facts the
    spans do not hold (relax report, bytes written, memory)."""
    facts = {}

    crystal = workloads.Crystal(0, refs)
    result = _attempt(tracer, tally, "probe.crystal", lambda: crystal.op(0),
                      lambda r: crystal.check(0, r))
    facts["relax_report"] = result[1] if result else None

    a0 = shape.coulomb_trap_length(crystal.species, crystal.modes.omega_z)
    rng = np.random.default_rng(0)
    for n, calls in FORCE_SIZES:
        config = _disk_crystal(n, a0, rng)
        before = current_rss_mb()
        _attempt(tracer, tally, f"probe.forces_n{n}",
                 lambda: [equilibrium.forces(config, crystal.species, crystal.modes,
                                             crystal.wall) for _ in range(calls)])
    # the largest size sets the process's peak, so its rise is the kernel's
    facts["forces_rss_mb_n3000"] = peak_rss_mb() - before

    figs = workloads.Figures(refs, scratch)
    outdir = figs.next_input()
    _attempt(tracer, tally, "probe.figures", lambda: figs.op(outdir),
             lambda codes: figs.check(outdir, codes))
    facts["csv_bytes"] = figs.csv_bytes

    # extract_spectrum is not on the figure path: probe it on its own run
    traj = _attempt(tracer, tally, "probe.spectrum_input", _spectrum_input)
    if traj is not None:
        _attempt(tracer, tally, "probe.spectrum",
                 lambda: [dynamics.extract_spectrum(traj, "z")
                          for _ in range(SPECTRUM_CALLS)],
                 lambda peaks: [] if all(peaks) else ["no spectral peak"])

    sweep = workloads.DesignSweep(0, refs)
    for _ in range(PROBE_DESIGN_POINTS):
        point = sweep.next_input()
        _attempt(tracer, tally, "probe.design", lambda: sweep.op(point),
                 lambda r: sweep.check(point, r))
    return facts


# ------------------------------------------------------------------ metrics

def _durations(tracer, run_id, name):
    return [s.duration for s in tracer.select(run_id, name)]


def _median(values) -> float:
    """Median, or NaN when a failed probe left no spans."""
    return median(values) if values else math.nan


def _ratio(a: float, b: float) -> float:
    return a / b if b else math.nan


def per_layer_metrics(tracer, facts: dict, traced_latencies, untraced_latencies,
                      import_times, multi_root_warnings: int, names) -> dict:
    """Every per-layer metric, as (value, unit) pairs keyed by name."""
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    # equilibrium
    report = facts["relax_report"]
    iterations = report.iterations if report else math.nan
    relax_s = sum(_durations(tracer, "probe.crystal", "equilibrium.relax"))
    put("equilibrium.relax.s", relax_s, "s")
    put("equilibrium.relax.iterations", iterations, "count")
    put("equilibrium.relax.restarts_used", report.restarts_used if report else math.nan,
        "count")
    put("equilibrium.relax.ms_per_iteration", 1e3 * _ratio(relax_s, iterations), "ms")
    for n, _ in FORCE_SIZES:
        put(f"equilibrium.forces.ms_n{n}",
            1e3 * _median(_durations(tracer, f"probe.forces_n{n}", "equilibrium.forces")),
            "ms")
    n1000 = _median(_durations(tracer, "probe.forces_n1000", "equilibrium.forces"))
    put("equilibrium.forces.pairs_per_s_n1000", _ratio(1000 * 999 / 2, n1000), "1/s")
    put("equilibrium.forces.rss_mb_n3000", facts["forces_rss_mb_n3000"], "MB")
    put("equilibrium.measured_shape.ms",
        1e3 * sum(_durations(tracer, "probe.crystal", "equilibrium.measured_shape")), "ms")

    # dynamics, measured on the probe's figure set (figures 1 and 2)
    integrations = tracer.select("probe.figures", "dynamics.integrate")
    integrate_s = sum(s.duration for s in integrations)
    steps = sum(s.work for s in integrations)
    put("dynamics.integrate.s", integrate_s, "s")
    put("dynamics.integrate.steps", steps, "count")
    put("dynamics.integrate.ns_per_step", 1e9 * _ratio(integrate_s, steps), "ns")
    put("dynamics.extract_spectrum.ms",
        1e3 * _median(_durations(tracer, "probe.spectrum", "dynamics.extract_spectrum")),
        "ms")
    for func in ("write_trajectory_csv", "write_spectrum_csv"):
        put(f"dynamics.{func}.ms",
            1e3 * sum(_durations(tracer, "probe.figures", f"dynamics.{func}")), "ms")

    # shape, modes, response, sensing: per call on the pinned design points
    for name in ("shape.aspect_ratio_from_beta", "shape.oracle_aspect_ratio_depolarization",
                 "modes.compute_modes", "response.rotation_scale_factor",
                 "sensing.build_budget"):
        put(f"{name}.us_per_call",
            1e6 * _median(_durations(tracer, "probe.design", name)), "us")
    put("shape.shape_sweep.ms",
        1e3 * sum(_durations(tracer, "probe.figures", "shape.shape_sweep")), "ms")
    put("shape.multi_root_warnings", multi_root_warnings, "count")
    put("modes.freq_difference_sweep.ms",
        1e3 * sum(_durations(tracer, "probe.figures", "modes.freq_difference_sweep")), "ms")

    # figures and cli
    for fig_id in sorted(figures.FIGURES):
        put(f"figures.fig{fig_id}.s",
            sum(_durations(tracer, "probe.figures", f"figures.fig{fig_id}")), "s")
    put("figures.csv_bytes", facts["csv_bytes"], "bytes")
    probe_spans = tracer.spans
    own = self_times(probe_spans)
    put("cli.main.self_s", sum(t for s, t in zip(probe_spans, own)
                               if s.run_id == "probe.figures" and s.name == "cli.main"), "s")
    put("setup.import_s", median(import_times), "s")

    # how the workload uses the layers
    ops = len(traced_latencies)
    workload_s = sum(traced_latencies)
    shares = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    for span, t in zip(probe_spans, own):
        if span.run_id != "workload":
            continue
        shares[span.name.split(".", 1)[0]] += t
        calls[span.name] = calls.get(span.name, 0) + 1
    for layer in LAYERS:
        put(f"{layer}.self_share", shares[layer] / workload_s, "frac")
    for name in ("equilibrium.relax", "dynamics.integrate", "shape.aspect_ratio_from_beta",
                 "shape.oracle_aspect_ratio_depolarization", "modes.compute_modes"):
        put(f"{name}.calls_per_op", calls.get(name, 0) / ops, "count")
    put("trace.spans_per_op", sum(calls.values()) / ops, "count")
    put("trace.overhead_frac",
        median(traced_latencies) / median(untraced_latencies) - 1.0, "frac")

    errors = dict.fromkeys(names, 0)
    for span in tracer.spans:
        errors[span.name] += span.error
    for name in names:
        put(f"{name}.errors", errors[name], "count")
    return out


"""Command-line front end.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure:
a ``core.NumericalError`` or an ``ArithmeticError``.  A file that cannot be
read or written (an ``OSError``, such as an unusable --output-dir) is
reported in one ``error:`` line and exits 2.
Every subcommand honors --config, --set, --output-dir and --json.  Each
--set takes one config-file line (``key=value``), read after --config;
later lines win.  ``--set seed=N`` seeds the initial patch of ``crystal``
(the one subcommand that draws random numbers) and ``--set n_crystal=N``
sizes it.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .config import RunConfig, load_config
from .core import CONST, NumericalError, open_output, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  Reusing it leaks nothing between
    calls: argparse copies ``--set``'s default list before appending."""
    parser = argparse.ArgumentParser(
        prog="penning-gyro",
        description="Design-chain calculations for a trapped-ion vibration "
                    "gyroscope: mode frequencies, crystal shape, rotation "
                    "response, and the readout sensitivity budget.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        dest="overrides",
                        help="one more config line, read after --config")
    parser.add_argument("--output-dir", default=".",
                        help="where files are written (default: the cwd)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the pinned physical constants")
    p.set_defaults(run=_cmd_constants)

    p = sub.add_parser("modes", help="trap mode frequency table")
    p.add_argument("--csv", action="store_true", help="also write modes.csv")
    p.set_defaults(run=_cmd_modes)

    p = sub.add_parser("fig", help="write one study dataset (ids 1..6)")
    p.add_argument("figure_id", type=int)
    p.set_defaults(run=_cmd_fig)

    p = sub.add_parser("budget", help="full sensitivity budget (budget.json)")
    p.set_defaults(run=_cmd_budget)

    p = sub.add_parser("crystal", help="relax the ion crystal and report its shape")
    p.set_defaults(run=_cmd_crystal)
    return parser


def _outdir(args) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return args.output_dir


def _cmd_constants(args, config: RunConfig) -> int:
    values = dict(zip(CONST.field_names, CONST.field_values()))
    if args.json:
        print(json.dumps(values, indent=2, sort_keys=True))
    else:
        for name, value in values.items():
            print(f"{name:24s} {value!r}")
    return EXIT_OK


def _cmd_modes(args, config: RunConfig) -> int:
    modes = config.modes()  # raises UnstableTrapError when unstable
    rows = [("magnetron", modes.f_m), ("axial", modes.f_z),
            ("modified cyclotron", modes.f_cap_m), ("true cyclotron", modes.f_c)]
    if args.json:
        print(json.dumps({
            "schema_version": 1,
            "f_m_hz": modes.f_m, "f_z_hz": modes.f_z,
            "f_cap_m_hz": modes.f_cap_m, "f_c_hz": modes.f_c,
            "omega_m_rad_s": modes.omega_m, "omega_z_rad_s": modes.omega_z,
            "omega_cap_m_rad_s": modes.omega_cap_m, "omega_c_rad_s": modes.omega_c,
            "stable": True, "stability_margin_rad_s": modes.stability_margin,
        }, indent=2, sort_keys=True))
    else:
        print(f"{config.ion().name}  B={config.b_field_t} T  "
              f"V={config.trap_voltage_v} V  z0={config.char_length_m} m")
        for name, f in rows:
            print(f"  {name:20s} {f / 1e3:12.4f} kHz")
        print(f"  stability margin     {modes.stability_margin:12.4g} rad/s")
    if args.csv:
        path = os.path.join(_outdir(args), "modes.csv")
        write_csv(path, ["mode", "frequency_hz"],
                  [(name.replace(" ", "_"), f) for name, f in rows])
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_fig(args, config: RunConfig) -> int:
    from .figures import generate_figure

    paths = generate_figure(args.figure_id, config, _outdir(args))
    if args.json:
        print(json.dumps({"files": paths}))
    else:
        for p in paths:
            print(f"wrote {p}")
    return EXIT_OK


def _cmd_budget(args, config: RunConfig) -> int:
    from .response import OscillatorParams, rotation_scale_factor
    from .sensing import EnsembleSpec, ODFParams, budget_json, build_budget
    from .shape import aspect_ratio_from_beta, planarity_check, shape_beta, spheroid_dimensions

    species, modes = config.ion(), config.modes()
    wall = config.wall(modes)
    beta = shape_beta(modes, wall.omega_r)
    alpha = aspect_ratio_from_beta(beta)
    geom = spheroid_dimensions(config.n_crystal, alpha, beta, modes.omega_z, species)
    planar = planarity_check(beta, wall.delta)
    osc = OscillatorParams(omega_z=modes.omega_z, omega_r=wall.omega_r,
                           quality_factor=config.q_factor)
    scale = rotation_scale_factor(geom.r_cl, osc)
    odf = ODFParams(f0=config.odf_force_n, tau=config.precession_s,
                    gamma=config.decay_rate_hz)
    budget = build_budget(EnsembleSpec(config.n_spins), odf, scale, config.cycle_s)
    extra = {
        "beta": beta, "alpha": alpha, "alpha_oracle": alpha,
        "r_cl_m": geom.r_cl, "z_cl_m": geom.z_cl, "density_m3": geom.density_n,
        "f_z_hz": modes.f_z, "f_m_hz": modes.f_m,
        "n_crystal": config.n_crystal, "n_spins": config.n_spins,
        "planarity_pass": planar.passes,
    }
    text = budget_json(budget, extra)
    path = os.path.join(_outdir(args), "budget.json")
    with open_output(path) as fh:
        fh.write(text)
    if args.json:
        print(text, end="")
    else:
        print(f"beta = {beta:.4f}, alpha = {alpha:.4f}, "
              f"r_cl = {geom.r_cl * 1e2:.4f} cm")
        print(f"single-shot amplitude resolution: "
              f"{budget.delta_zc_single_shot * 1e12:.3f} pm")
        print(f"amplitude ASD: {budget.amplitude_asd * 1e12:.3f} pm/sqrt(Hz) "
              f"at {budget.repetitions_per_s:.0f} reps/s")
        print(f"rotation ASD: {budget.rotation_asd:.3e} rad/s/sqrt(Hz)")
        print(f"angle random walk: {budget.arw:.3e} rad/sqrt(h)")
        print(f"wrote {path}")
    return EXIT_OK


def _write_crystal(outdir: str, crystal, payload: dict) -> str:
    """Write crystal.csv and crystal_report.json; return the report text."""
    from .equilibrium import write_configuration_csv

    write_configuration_csv(crystal, os.path.join(outdir, "crystal.csv"))
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open_output(os.path.join(outdir, "crystal_report.json")) as fh:
        fh.write(text)
    return text


def _cmd_crystal(args, config: RunConfig) -> int:
    from .equilibrium import ConvergenceError, RelaxationConfig, measured_shape, relax

    species, modes = config.ion(), config.modes()
    wall = config.wall(modes)
    relax_cfg = RelaxationConfig(initial_seed=config.seed)
    outdir = _outdir(args)
    try:
        crystal, report = relax(config.n_crystal, species, modes, wall, relax_cfg)
    except ConvergenceError as exc:
        _write_crystal(outdir, exc.best_config, exc.report.as_dict())
        raise
    stats = measured_shape(crystal)
    text = _write_crystal(outdir, crystal, {**report.as_dict(), **stats.as_dict()})
    if args.json:
        print(text, end="")
    else:
        print(f"relaxed {config.n_crystal} ions: spacing median "
              f"{stats.spacing_median * 1e6:.2f} um, alpha {stats.alpha:.3f}, "
              f"residual force {report.max_force:.3g} N")
        print(f"wrote {os.path.join(outdir, 'crystal.csv')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        return args.run(args, config)
    except (NumericalError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

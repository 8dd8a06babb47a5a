import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import penning_gyro
from penning_gyro.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, _build_parser, main
from penning_gyro.config import RunConfig
from penning_gyro.dynamics import IntegrationError
from penning_gyro.equilibrium import CoincidentIonsError, ConvergenceError, RelaxationConfig
from penning_gyro.shape import AspectRatioBracketError


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_modes_text(capsys):
    code, out, _ = run(["modes"], capsys)
    assert code == EXIT_OK
    assert "magnetron" in out and "axial" in out


def test_modes_json(capsys):
    code, out, _ = run(["--json", "modes"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["f_z_hz"] == pytest.approx(247.3e3, rel=1e-3)
    assert payload["stable"] is True


def test_constants_json(capsys):
    code, out, _ = run(["--json", "constants"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["elementary_charge"] == 1.602176634e-19


def test_constants_text(capsys):
    code, out, _ = run(["constants"], capsys)
    assert code == EXIT_OK
    assert "elementary_charge" in out and "1.602176634e-19" in out


def test_unstable_trap_exit_code(capsys):
    code, _, err = run(["--set", "trap_voltage_v=130", "modes"], capsys)
    assert code == EXIT_CONFIG
    assert "unstable" in err
    # an invalid trap is a configuration error too, and names its field
    code, _, err = run(["--set", "b_field_t=-1", "modes"], capsys)
    assert code == EXIT_CONFIG
    assert "b_field" in err


def test_unknown_field_exit_code(capsys):
    code, _, err = run(["--set", "bogus=1", "modes"], capsys)
    assert code == EXIT_CONFIG
    assert "unknown field" in err


@pytest.mark.parametrize("argv", [["--seed", "1", "modes"], ["crystal", "--ions", "5"]],
                         ids=["seed", "ions"])
def test_removed_flags_are_usage_errors(argv, tmp_path):
    # --set seed=N and --set n_crystal=N are the one way to set these
    with pytest.raises(SystemExit) as exc:
        main(["--output-dir", str(tmp_path), *argv])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("setting", ["method=rk45", "species=Ca+",
                                     "wall_freq_rad_s=1.2e6"])
def test_removed_integrator_field_is_unknown(setting, capsys):
    code, _, err = run(["--set", setting, "budget"], capsys)
    assert code == EXIT_CONFIG
    assert "unknown field" in err


def test_shape_bracket_failure_is_numerical(tmp_path, capsys):
    # wall frequency at the lower root of omega_r (omega_c - omega_r)
    # = (beta + 1/2) omega_z^2 for beta = 1e-7: no sign change to refine
    modes = RunConfig().modes()
    disc = modes.omega_c ** 2 - 4.0 * (1e-7 + 0.5) * modes.omega_z ** 2
    omega_r = 0.5 * (modes.omega_c - math.sqrt(disc))
    code, _, err = run(["--output-dir", str(tmp_path), "--set",
                        f"wall_ratio={omega_r / modes.omega_z!r}", "budget"], capsys)
    assert code == EXIT_NUMERICAL
    assert "no sign change" in err


def test_modes_csv(tmp_path, capsys):
    code, _, _ = run(["--output-dir", str(tmp_path), "modes", "--csv"], capsys)
    assert code == EXIT_OK
    with open(tmp_path / "modes.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    modes = RunConfig().modes()
    assert rows[0] == ["mode", "frequency_hz"]
    assert [(name, float(f)) for name, f in rows[1:]] == [
        ("magnetron", modes.f_m), ("axial", modes.f_z),
        ("modified_cyclotron", modes.f_cap_m), ("true_cyclotron", modes.f_c)]
    assert (tmp_path / "modes.csv").read_bytes().count(b"\r\n") == 5


def test_malformed_set_flag(capsys):
    code, _, err = run(["--set", "novalue", "modes"], capsys)
    assert code == EXIT_CONFIG


def test_fig3_csv_schema(tmp_path, capsys):
    code, out, _ = run(["--output-dir", str(tmp_path), "--json", "fig", "3"], capsys)
    assert code == EXIT_OK
    assert json.loads(out) == {"files": [str(tmp_path / "fig3_freq_difference.csv")]}
    with open(tmp_path / "fig3_freq_difference.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["b_tesla", "v_volts", "fz_minus_fm_hz"]
    stable = [r for r in rows[1:] if r[2]]
    gaps = [r for r in rows[1:] if not r[2]]
    assert stable and gaps
    assert all(float(r[2]) > 0.0 for r in stable)


def test_fig1_csv_schema(tmp_path, capsys):
    code, _, _ = run(["--output-dir", str(tmp_path), "fig", "1"], capsys)
    assert code == EXIT_OK
    header = (tmp_path / "fig1_trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,y,z,vx,vy,vz"


def test_fig2_writes_axial_and_spectrum(tmp_path, capsys):
    code, _, _ = run(["--output-dir", str(tmp_path), "fig", "2"], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "fig2_axial.csv").read_text().splitlines()[0] == "t,z"
    header = (tmp_path / "fig2_spectrum.csv").read_text().splitlines()[0]
    assert header == "freq_hz,power"


def test_fig5_csv_schema(tmp_path, capsys):
    code, _, _ = run(["--output-dir", str(tmp_path), "fig", "5"], capsys)
    assert code == EXIT_OK
    header = (tmp_path / "fig5_shape_vs_wall.csv").read_text().splitlines()[0]
    assert header == "v_volts,omega_r_rad_s,omega_r_over_omega_z,beta,alpha"


def test_figure_csv_cells_are_plain_numbers(tmp_path, capsys):
    for fig_id in range(1, 7):
        code, _, _ = run(["--output-dir", str(tmp_path), "fig", str(fig_id)],
                         capsys)
        assert code == EXIT_OK
    paths = sorted(tmp_path.glob("fig*.csv"))
    assert len(paths) == 7
    for path in paths:
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows
        for row in rows:
            for cell in row:
                if cell:
                    float(cell)


def test_unknown_figure_id(capsys):
    code, _, err = run(["fig", "9"], capsys)
    assert code == EXIT_CONFIG
    assert "unknown figure id" in err


def test_budget_writes_json(tmp_path, capsys):
    code, out, _ = run(["--output-dir", str(tmp_path), "--json", "budget"],
                       capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["beta"] == pytest.approx(0.0538, abs=0.0005)
    on_disk = json.loads((tmp_path / "budget.json").read_text())
    assert on_disk == payload


def test_budget_text(tmp_path, capsys):
    code, out, _ = run(["--output-dir", str(tmp_path), "budget"], capsys)
    assert code == EXIT_OK
    assert "rotation ASD" in out
    assert (tmp_path / "budget.json").exists()


def _rotation_asd(tmp_path, capsys, *overrides):
    argv = [arg for pair in overrides for arg in ("--set", pair)]
    code, out, _ = run(["--output-dir", str(tmp_path), "--json", *argv, "budget"], capsys)
    assert code == EXIT_OK
    return json.loads(out)["rotation_asd_rad_s_per_sqrt_hz"]


BUDGET_SCALING_LAWS = [
    # the power laws of the chain, exact to the bit at the defaults
    ("q_factor=2e6", 0.5, 0.0),
    ("n_spins=40000", 0.5, 0.0),
    ("n_crystal=8000", 0.5, 0.0),          # r_cl grows as N^(1/3) at fixed beta
    ("odf_force_n=2e-22", 0.5, 0.0),
    ("cycle_s=0.2", 2.0, 0.0),
    # at Gamma tau = 1 the resolution exp(Gamma tau)/tau is stationary in tau:
    # tau (1 + h) moves the ASD by exp(h)/(1 + h) - 1 = h^2/2 - h^3/3 + ...
    *((f"precession_s={0.01 * (1.0 + h)!r}", 1.0 + h * h / 2.0, abs(h) ** 3 / 2.0)
      for h in (1e-3, -1e-3, 1e-2, -1e-2)),
    # the wall lock: the gain falls by sqrt(2) at |omega_r/omega_z - 1| = 1/(2Q),
    # 0.78 rad/s at Q = 1e6, a detuning the wall_ratio = 1 default never has
    (f"wall_ratio={1.0 + 0.5e-6!r}", math.sqrt(2.0), 1e-5),
    (f"wall_ratio={1.0 - 0.5e-6!r}", math.sqrt(2.0), 1e-5),
]


@pytest.mark.parametrize("setting, ratio, tol", BUDGET_SCALING_LAWS,
                         ids=[law[0] for law in BUDGET_SCALING_LAWS])
def test_budget_scaling_laws(setting, ratio, tol, tmp_path, capsys):
    base = _rotation_asd(tmp_path, capsys)
    assert _rotation_asd(tmp_path, capsys, setting) / base == pytest.approx(ratio, rel=0, abs=tol)


@pytest.mark.parametrize("overrides, names", [
    # exp(Gamma tau) = exp(1e5) overflows a float
    (["decay_rate_hz=1e5", "precession_s=1"], ("gamma=100000", "tau=1 s")),
    # exp(700) is finite, but over F0 tau = 7e-60 the resolution is not
    (["odf_force_n=1e-60", "precession_s=7"], ("f0=1e-60", "tau=7 s")),
    # a finite Q whose resonant gain 2Q/omega_z overflows the scale factor
    (["q_factor=1e308"], ("quality_factor=1e+308", "r_cl=0.000387157 m")),
    # not an overflow: a negative decay rate is refused by name
    (["decay_rate_hz=-1"], ("gamma",)),
], ids=["exp_overflow", "resolution_overflow", "gain_overflow", "negative_gamma"])
def test_budget_overflow_names_its_inputs(overrides, names, tmp_path, capsys):
    argv = [arg for pair in overrides for arg in ("--set", pair)]
    code, _, err = run(["--output-dir", str(tmp_path), *argv, "budget"], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in names)
    assert not (tmp_path / "budget.json").exists()


@pytest.mark.parametrize("argv, names", [
    # omega_c^2 overflows
    (["--set", "b_field_t=1e300", "modes"], ("b_field=1e+300",)),
    # z0^2 underflows to 0, and omega_z^2 divides by it
    (["--set", "char_length_m=1e-300", "modes"], ("char_length_z0=1e-300",)),
    # z0^2 overflows in every trap of the fig 3 sweep
    (["--set", "char_length_m=1e300", "fig", "3"], ("char_length_z0=1e+300",)),
    # q V / (m z0^2) overflows to inf by multiplication, without an exception
    (["--set", "trap_voltage_v=1e300", "modes"], ("trap_voltage=1e+300",)),
    # q B / m overflows to inf, so omega_c^2 does too
    (["--set", "b_field_t=1e303", "modes"], ("b_field=1e+303",)),
], ids=["b_field_overflow", "z0_underflow", "z0_overflow_fig3", "voltage_overflow_to_inf",
        "b_field_overflow_to_inf"])
def test_trap_overflow_names_its_inputs(argv, names, tmp_path, capsys):
    code, _, err = run(["--output-dir", str(tmp_path), *argv], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in (*names, "b_field=", "trap_voltage=",
                                        "char_length_z0="))


@pytest.mark.parametrize("argv, names", [
    # z0^2 underflows to 0 in the first trap of the fig 3 sweep
    (["--set", "char_length_m=1e-300", "fig", "3"],
     ("b_field=1.0 T", "trap_voltage=2.5 V", "char_length_z0=1e-300")),
    # the spheroid's z_cl * r_cl^2 overflows to inf, so its density is 0
    (["--set", "char_length_m=1e30", "--set", f"n_crystal={10 ** 300}", "fig", "6"],
     (f"n_ions={10 ** 300},", "alpha=", "beta=", "omega_z=")),
], ids=["fig3_z0_underflow", "fig6_density_underflow"])
def test_figure_overflow_names_its_inputs_without_a_warning(argv, names, tmp_path, capsys):
    # the figure grids are Python floats: an out-of-range step raises, and
    # numpy prints no RuntimeWarning before the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(["--output-dir", str(tmp_path), *argv], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in names)
    assert [str(w.message) for w in caught] == []


# every RunConfig field at extreme finite values; an int field takes the
# integral ones as integers, and the rest fail to parse
EXTREMES = ["0", "-1", "1e30", "1e-30", "1e300", "1e-300"]
SWEPT_COMMANDS = [["constants"], ["modes"], ["budget"], *(["fig", str(k)] for k in (3, 4, 5, 6))]


def _config_line(field: str, text: str) -> str:
    if RunConfig.__annotations__[field] == "int" and float(text).is_integer():
        text = str(int(float(text)))
    return f"{field}={text}"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.dictionaries(st.sampled_from(RunConfig.field_names), st.sampled_from(EXTREMES),
                             min_size=1, max_size=3),
       command=st.sampled_from(SWEPT_COMMANDS))
def test_extreme_config_values_exit_cleanly(lines, command, tmp_path, capsys):
    argv = [arg for field, text in lines.items() for arg in ("--set", _config_line(field, text))]
    code, _, err = run(["--output-dir", str(tmp_path), *argv, *command], capsys)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once_and_leaks_nothing_between_calls(tmp_path, monkeypatch, capsys):
    assert _build_parser() is _build_parser()
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["--set", "n_crystal=10", "--json", "--output-dir", "first", "budget"],
                       capsys)
    assert code == EXIT_OK and json.loads(out)["n_crystal"] == 10
    # no --set, --json or --output-dir of the first call survives into the second
    code, out, _ = run(["budget"], capsys)
    assert code == EXIT_OK and out.startswith("beta = ")
    assert json.loads((tmp_path / "budget.json").read_text())["n_crystal"] == 1000
    assert json.loads((tmp_path / "first" / "budget.json").read_text())["n_crystal"] == 10
    assert _build_parser().get_default("overrides") == []


def test_prolate_beta_is_given_in_the_error(tmp_path, capsys):
    # at 30 V the wall lock gives beta = 1.33689, off the oblate branch
    code, _, err = run(["--output-dir", str(tmp_path), "--set", "trap_voltage_v=30", "budget"],
                       capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "beta=1.33689" in err


@pytest.mark.parametrize("argv, name", [
    (["budget"], "budget.json"),
    (["--set", "n_crystal=2", "crystal"], "crystal_report.json"),
], ids=["budget", "crystal"])
def test_failed_json_write_keeps_the_old_file(argv, name, tmp_path, capsys, monkeypatch):
    # a JSON report that cannot replace its path leaves the last one whole
    real_replace = os.replace

    def refuse_json(src, dst):
        if str(dst).endswith(".json"):
            raise OSError(f"cannot replace {dst}")
        real_replace(src, dst)

    old = b'{"from": "the last run"}\n'
    (tmp_path / name).write_bytes(old)
    monkeypatch.setattr(os, "replace", refuse_json)
    code, _, err = run(["--output-dir", str(tmp_path), *argv], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: cannot replace")
    assert (tmp_path / name).read_bytes() == old
    assert list(tmp_path.glob("*.part")) == []


# sha256 of each file that figs 1-6, budget and a 200-ion crystal (seed 0) write
OUTPUT_DIGESTS = {
    "fig1_trajectory.csv": "276da18c168e4552b93c0067656909f860d341159bb65cc8e20d623f7ba818ec",
    "fig2_axial.csv": "95af3bad4c8eb8b0b2e1bcd810fdc598ef987a306a013840dedbfc765d0fe9fa",
    "fig2_spectrum.csv": "66641df8e3889cedc43dd5a63f46d7c1c10b7a7b1fec4920984654293a2da238",
    "fig3_freq_difference.csv": "43792ccfbd100ba614c1daff8f46540227b230a63bf6bfc58555ab1d81979f72",
    "fig4_shape_collapse.csv": "0b5873757e4219e7c26d9a8e0f5e84eaa81c1bc89d9caaf92ce5f1286c9bf1d8",
    "fig5_shape_vs_wall.csv": "ae6af036bc1ded8ebbdabee81cfba6608d2bb7ad6e0722862888b6b543be46f5",
    "fig6_cloud_dimensions.csv": "7e0a9dc66b1d5a61239f44350f872a05f9d9299e1d403883b9782edb38041eb5",
    "budget.json": "705151c4e5106a959fdfb2afd7bb65ca673f5aeed2152e81f40ac9f2e58b4d18",
    "crystal.csv": "b31b6a13fe3e6a81f1657a663ed46a87a7234b13fd0ffc56ea4c24d78ff2c8ea",
    "crystal_report.json": "01693523569c473f1c30e4c09f32ce72f99542444a6276e99da9f69ac7fd0f27",
}


def test_outputs_keep_their_pinned_digests(tmp_path, capsys):
    """Every output keeps its bits: a change meant to keep the numbers cannot move them.

    The digests hold on x86-64 glibc 2.36 libm, numpy 2.4.6 (scipy-openblas
    0.3.31) and one BLAS thread, which conftest.py sets.  A change that moves
    the numbers on purpose re-pins them and says why.
    """
    argvs = [*(["fig", str(k)] for k in range(1, 7)), ["budget"],
             ["--set", "n_crystal=200", "crystal"]]
    for argv in argvs:
        assert run(["--output-dir", str(tmp_path), *argv], capsys)[0] == EXIT_OK
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == OUTPUT_DIGESTS


def test_crystal_json(tmp_path, capsys):
    code, out, _ = run(["--output-dir", str(tmp_path), "--json",
                        "--set", "n_crystal=20", "crystal"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["alpha"] >= 0.0 and payload["r_cl_m"] > 0.0
    assert payload == json.loads((tmp_path / "crystal_report.json").read_text())


def test_crystal_small(tmp_path, capsys):
    code, out, _ = run(["--output-dir", str(tmp_path), "--set", "seed=1",
                        "--set", "n_crystal=12", "crystal"], capsys)
    assert code == EXIT_OK
    lines = (tmp_path / "crystal.csv").read_text().splitlines()
    assert lines[0] == "ion_index,x_m,y_m,z_m"
    assert len(lines) == 13
    report = json.loads((tmp_path / "crystal_report.json").read_text())
    assert report["converged"] is True


def test_crystal_non_convergence_writes_outputs(tmp_path, capsys, monkeypatch):
    # a force floor no descent reaches takes the ConvergenceError branch
    monkeypatch.setattr(RelaxationConfig, "force_tolerance", 1e-30)
    code, _, err = run(["--output-dir", str(tmp_path), "--set", "n_crystal=5",
                        "crystal"], capsys)
    assert code == EXIT_NUMERICAL
    assert "failed to reach" in err
    lines = (tmp_path / "crystal.csv").read_text().splitlines()
    assert lines[0] == "ion_index,x_m,y_m,z_m"
    assert len(lines) == 6
    report = json.loads((tmp_path / "crystal_report.json").read_text())
    assert report["converged"] is False


def test_crystal_coincident_ions_is_numerical(tmp_path, capsys, monkeypatch):
    def coincide(*args, **kwargs):
        raise CoincidentIonsError("coincident ions")
    monkeypatch.setattr("penning_gyro.equilibrium.relax", coincide)
    code, _, err = run(["--output-dir", str(tmp_path), "--set", "n_crystal=5",
                        "crystal"], capsys)
    assert code == EXIT_NUMERICAL
    assert "coincident ions" in err


@pytest.mark.parametrize("error", [
    IntegrationError("non-finite state"),
    ConvergenceError("failed to reach the force tolerance", None, None),
    CoincidentIonsError("coincident ions"),
    AspectRatioBracketError("no sign change"),
], ids=lambda error: type(error).__name__)
def test_numerical_errors_exit_3(error, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr("penning_gyro.shape.aspect_ratio_from_beta", fail)
    code, _, err = run(["--output-dir", str(tmp_path), "budget"], capsys)
    assert code == EXIT_NUMERICAL
    assert str(error) in err


@pytest.mark.parametrize("argv", [
    ["budget"], ["fig", "3"], ["modes", "--csv"], ["--set", "n_crystal=2", "crystal"],
], ids=" ".join)
def test_unusable_output_dir_is_a_config_error(argv, tmp_path, capsys):
    not_a_dir = tmp_path / "taken"
    not_a_dir.write_text("")
    code, _, err = run(["--output-dir", str(not_a_dir), *argv], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(not_a_dir) in err


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trap_voltage_v = 10\n")
    code, out, _ = run(["--config", str(cfg), "--json", "modes"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["f_z_hz"] == pytest.approx(78.2e3, rel=1e-3)


def test_scipy_loads_only_on_demand(tmp_path):
    # a fresh interpreter: this test process has long since loaded scipy
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import numpy as np
        import penning_gyro
        from penning_gyro.cli import main
        from penning_gyro.config import RunConfig
        from penning_gyro.dynamics import Trajectory, extract_spectrum

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        RunConfig().modes()
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["constants"], ["modes"], ["fig", "1"], ["fig", "2"],
                         ["fig", "3"], ["budget"], ["fig", "4"], ["fig", "5"],
                         ["fig", "6"]):
                codes[" ".join(argv)] = main(["--output-dir", sys.argv[1], *argv])
            t = np.arange(4096) * 1e-6
            tone = np.column_stack([0 * t, 0 * t, np.sin(2e5 * t)])
            peaks = extract_spectrum(Trajectory(t, tone, np.zeros_like(tone)))
            before = loaded()
            codes["crystal"] = main(["--output-dir", sys.argv[1],
                                     "--set", "n_crystal=20", "crystal"])
        print(json.dumps({"codes": codes, "peaks": len(peaks), "before": before,
                          "after": loaded()}))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(penning_gyro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == {name: EXIT_OK for name in (
        "constants", "modes", "fig 1", "fig 2", "fig 3", "budget", "fig 4",
        "fig 5", "fig 6", "crystal")}
    assert result["peaks"] > 0
    assert result["before"] == []
    assert {"scipy.optimize", "scipy.spatial"} <= set(result["after"])
    assert (tmp_path / "budget.json").is_file()


def test_numpy_loads_only_on_demand(tmp_path):
    # the chain from constants to the budget is pure Python; only the numpy
    # layers (single-ion dynamics, the N-body crystal, figures) load numpy
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import penning_gyro
        from penning_gyro.cli import main
        from penning_gyro.config import RunConfig

        RunConfig().modes()
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["constants"], ["modes"], ["budget"], ["--help"]):
                try:
                    codes[" ".join(argv)] = main(["--output-dir", sys.argv[1], *argv])
                except SystemExit as exc:
                    codes[" ".join(argv)] = exc.code
            before = "numpy" in sys.modules
            codes["fig 1"] = main(["--output-dir", sys.argv[1], "fig", "1"])
        print(json.dumps({"codes": codes, "before": before,
                          "after": "numpy" in sys.modules}))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(penning_gyro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == {name: EXIT_OK for name in (
        "constants", "modes", "budget", "--help", "fig 1")}
    assert result["before"] is False
    assert result["after"] is True
    assert (tmp_path / "budget.json").is_file()


def test_start_up_loads_only_what_it_runs(tmp_path):
    # every package name resolves on first access and no module imports
    # dataclasses (with it, inspect): perfbench's setup path, import, the
    # default config and one modes call, loads core, modes and config only,
    # and the subcommands that never reach the shape load none of the budget's
    script = textwrap.dedent("""
        import contextlib, io, json, sys

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "penning_gyro")

        stages = {}
        import penning_gyro
        stages["import"] = loaded()
        from penning_gyro.config import load_config
        cfg = load_config(None)
        penning_gyro.compute_modes(cfg.ion(), cfg.trap())
        stages["setup"] = loaded()
        stages["stdlib"] = sorted({"dataclasses", "inspect"} & set(sys.modules))
        from penning_gyro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["constants"], ["modes"], ["--help"]):
                try:
                    main(["--output-dir", sys.argv[1], *argv])
                except SystemExit:
                    pass
        stages["cli"] = loaded()
        print(json.dumps(stages))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(penning_gyro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    stages = json.loads(out.stdout.splitlines()[-1])
    assert stages["import"] == ["penning_gyro"]
    assert stages["setup"] == ["penning_gyro", "penning_gyro.config", "penning_gyro.core",
                               "penning_gyro.modes"]
    assert stages["stdlib"] == []
    assert stages["cli"] == ["penning_gyro", "penning_gyro.cli", "penning_gyro.config",
                             "penning_gyro.core", "penning_gyro.modes"]

"""The study scripts run end to end in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import penning_gyro

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(penning_gyro.__file__).parents[1]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


def test_crystal_convergence_reports_force_over_tolerance():
    lines = run_script("crystal_convergence.py", "20").stdout.splitlines()
    header, row = lines[-2].split(), lines[-1].split()
    assert header[0] == "N" and header[-1] == "max_force/tol"
    assert row[0] == "20"
    assert 0.0 < float(row[-1]) < 1.0  # converged: below the force tolerance


def test_reproduce_figures_writes_every_table(tmp_path):
    run_script("reproduce_figures.py", str(tmp_path))
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "budget.json", "fig1_trajectory.csv", "fig2_axial.csv", "fig2_spectrum.csv",
        "fig3_freq_difference.csv", "fig4_shape_collapse.csv", "fig5_shape_vs_wall.csv",
        "fig6_cloud_dimensions.csv"]

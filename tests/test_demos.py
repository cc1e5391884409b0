"""Smoke runs of the demo scripts, so that API changes cannot break them
unnoticed.  The quick demos run in the default suite; the long ones run
with ``pytest -m nightly``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_demo(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("name", [
    "01_channels_and_temperature.py",
    "03_erasure_and_floor.py",
    "05_hlp_scheduler.py",
    "06_controllability_and_switch_times.py",
])
def test_quick_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)


@pytest.mark.nightly
@pytest.mark.parametrize("name", [
    "02_initialisation_protocol.py",
    "04_random_state_transfer.py",
    "07_ion_trap_ghz.py",
])
def test_long_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)

"""The shell and Python scripts under ``scripts/``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

#: The subcommands ``reproduce_figures.sh`` runs, in order.
STEPS = ["coverage", "train", "sweep-e", "sweep-height", "env-compare", "validate"]


@pytest.mark.parametrize(
    "failing", [(), ("coverage",), ("validate",), ("coverage", "sweep-e")]
)
def test_reproduce_figures_runs_every_step(tmp_path, failing):
    # A stub ``aerialfl`` logs each call and exits 1 for the failing steps.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    log = tmp_path / "calls.log"
    stub = bin_dir / "aerialfl"
    stub.write_text(
        "#!/usr/bin/env bash\n"
        f'echo "$*" >> "{log}"\n'
        f'case "$1" in {"|".join(failing) or "-"}) exit 1;; esac\n'
    )
    stub.chmod(0o755)
    env = {
        **os.environ,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
        "AERIALFL_OUT": str(tmp_path / "out"),
    }
    proc = subprocess.run(
        ["bash", str(SCRIPTS / "reproduce_figures.sh"), "6"],
        env=env, capture_output=True, text=True, check=False,
    )
    calls = log.read_text().splitlines()
    assert [call.split()[0] for call in calls] == STEPS
    assert all("--seed 6" in call for call in calls)
    assert proc.returncode == (1 if failing else 0)
    for step in STEPS:
        assert (f"{step} (exit 1)" in proc.stderr) == (step in failing)


def test_output_census_reproduces_the_pinned_validate_output():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_census.py"), "0",
         "--workload", "oracle-validate"],
        capture_output=True, text=True, check=True,
    )
    pinned = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert proc.stdout.split() == ["oracle-validate", "0", "0", "0", pinned["oracle-validate"]]

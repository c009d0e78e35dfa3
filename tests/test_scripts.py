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


#: A stand-in for ``perfbench/run.py``: logs its side and prints a machine
#: record, a summary line and a verdict whose ``wall_s`` and experiment
#: count are the side's next listed values.
STUB_RUN = '''
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent
side = here.parent.name
calls = here / "calls"
n = len(calls.read_text().splitlines()) if calls.exists() else 0
with open(here.parent.parent / "order.log", "a") as fh:
    fh.write(side + "\\n")
calls.write_text("x\\n" * (n + 1))
walls = {"parent": [4.0, 5.0, 3.0, 4.5], "change": [3.0, 2.5, 3.5, 2.0]}[side]
print("machine: " + json.dumps({"nproc": 2, "contended": side == "change" and n == 1}))
experiments = {"parent": [1, 2, 1, 3], "change": [4, 6, 8, 10]}[side]
print(f"coverage-sweep seed=11 trace=0 experiments={experiments[n]} elapsed=20.1 s")
print(json.dumps({
    "correct": True, "attempted": 52, "failed": 1 if side == "parent" and n == 0 else 0,
    "metrics": {"setup_s": {"value": 0.2, "unit": "s"},
                "wall_s": {"value": walls[n], "unit": "s"},
                "units_per_s": {"value": 26 / walls[n], "unit": "1/s"},
                "peak_rss_mb": {"value": 60.0 if side == "parent" else 70.0, "unit": "MB"}},
}))
'''


def test_bench_pairs_alternates_and_summarizes(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
    out = tmp_path / "BENCH.json"
    subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_pairs.py"), "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--workload", "coverage-sweep",
         "--seed", "11", "--pairs", "4", "--out", str(out)],
        capture_output=True, text=True, check=True,
    )
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent"] * 2
    report = json.loads(out.read_text())
    assert len(report["runs"]) == 8
    assert report["runs"][1]["machine"] == {"nproc": 2, "contended": False}
    assert all(run["verdict"]["correct"] for run in report["runs"])
    [summary] = report["workloads"]
    assert (summary["workload"], summary["seed"], summary["pairs"]) == ("coverage-sweep", 11, 4)
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 4.25, "q1": 3.75, "q3": 4.625, "n": 4}
    assert wall["change"] == {"median": 2.75, "q1": 2.375, "q3": 3.125, "n": 4}
    assert wall["change_over_parent"] == pytest.approx(2.75 / 4.25)
    assert wall["within_bound"] and wall["gain"] == pytest.approx(1.5)
    # Pair 2 runs 3.0 s at the parent and 3.5 s with the change.
    assert wall["gain_exceeds_parent_iqr"] and wall["change_wins"] == "3/4"
    units = summary["metrics"]["units_per_s"]
    assert units["better"] == "higher" and units["change_wins"] == "3/4"
    # +16.7% memory is outside the 10% bound; equal set-up times win no pair.
    rss = summary["metrics"]["peak_rss_mb"]
    assert not rss["within_bound"] and rss["change_wins"] == "0/4"
    assert summary["metrics"]["setup_s"]["change_wins"] == "0/4"
    assert summary["failures"]["parent"]["failed/attempted"] == "1/208"
    assert summary["failures"]["change"]["failed/attempted"] == "0/208"
    assert summary["failures"]["change"]["contended_runs"] == 1
    assert [run["experiments"] for run in report["runs"] if run["side"] == "parent"] == [1, 2, 1, 3]
    assert summary["experiments_per_run"] == {
        "parent": {"min": 1, "median": 1.5}, "change": {"min": 4, "median": 7.0},
    }

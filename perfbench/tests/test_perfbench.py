"""Self-tests of the benchmark harness.

Run with ``python3 -m pytest perfbench/tests``.  The end-to-end tests start
real ``aerialfl`` processes, at reduced sizes where a full-size run would
take minutes; every ``--trace 1`` run of ``run.py`` repeats the
traced-versus-untraced comparison at full size.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

PERFBENCH = Path(run.__file__).resolve().parent
ROOT = PERFBENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_restore_puts_back_every_patched_attribute():
    from aerialfl import analytic, cli, fl

    modules = (analytic, cli, fl)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        changed = {
            (m.__name__, k) for m, snap in zip(modules, before)
            for k, v in vars(m).items() if snap.get(k) is not v
        }
        assert ("aerialfl.analytic", "integrate_batch") in changed
        assert ("aerialfl.cli", "laplace_ul") in changed
        assert ("aerialfl.fl", "build_model") in changed
    finally:
        tracer.restore()
    for module, snap in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in snap.items()), module.__name__
        assert vars(module).keys() == snap.keys()


def test_self_time_subtracts_children_and_busy_counts_outermost():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("q.batch", lambda: None)
    middle = tracer.wrap("a.integrand", inner)
    outer = tracer.wrap("q.batch", lambda: middle())
    outer()  # q.batch [0, 10] > a.integrand [1, 7] > q.batch [2, 5]
    stats = tracer.stats()
    assert stats["q.batch.calls"] == 2
    assert stats["q.batch.busy_s"] == 10.0
    assert stats["q.batch.self_s"] == (10.0 - 6.0) + 3.0
    assert stats["a.integrand.self_s"] == 6.0 - 3.0
    assert stats["q.batch.in_integrand.self_s"] == 3.0
    assert stats["a.self_s"] + stats["q.self_s"] == 10.0


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(row[:3]) for row in tracing.PER_LAYER
    ]
    assert list(tracing.layer_metrics({}, 0.0)) == [row[0] for row in tracing.PER_LAYER]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, table):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "oracle-validate",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[table]
    }


#: Extra CLI flags that shrink each workload while keeping its code path.
SMALL = {
    "fl-train-h120": ("--rounds", "2"),
    "fl-sweep-height": ("--rounds", "2"),
    "coverage-sweep": ("--trials", "500", "--config", "{config}"),
    "oracle-validate": ("--trials", "2000"),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_output_is_byte_identical(name, tmp_path):
    config = tmp_path / "small.yaml"
    config.write_text("sweep:\n  values: [45, 120]\n")
    extra = tuple(a.format(config=config) for a in SMALL[name])
    workload = dataclasses.replace(WORKLOADS[name], argv=WORKLOADS[name].argv + extra)
    deadline = time.monotonic() + 170
    digests = []
    for trace in (False, True):
        out = tmp_path / f"trace{int(trace)}"
        record, stdout = run.spawn(workload, 3, out, deadline, trace=trace)
        assert record is not None and record["rc"] == 0
        assert ("stats" in record) == trace
        data = stdout if workload.output is None else (out / workload.output).read_bytes()
        digests.append(data)
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-validate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

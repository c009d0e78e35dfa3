"""Benchmark of the ``aerialfl`` command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) closed-loop: one experiment at a
time, each in a fresh process started by ``child.py``, all at CLI seed N.

``--trace 0`` first starts several set-up probes (processes that stop
where the experiment body would begin), then repeats the experiment while
another one still fits in S seconds, and reports the median of each
end-to-end metric.  ``--trace 1`` runs the experiment once untraced and
once traced and reports the per-layer metrics of ``tracing.py``, with the
tracing overhead as the difference of the two ``wall_s``.

Every experiment's output is checked: the CSV (or, for ``validate``, the
printed verdict) must have its expected shape, must match the sha256 in
``reference.json`` at the reference seed, and must be identical across the
experiments of one invocation.  A ``partial-failure`` CSV comment, a
``FAIL`` check line or an output that does not match counts as a failed
operation.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Workload  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_PROBES = 8
#: Every child must end by then, so the invocation ends within 180 s.
RUN_LIMIT_S = 165.0
#: Average cores busy with work other than this benchmark above which a
#: run set is flagged as contended.
CONTENDED_CORES = 0.25


@dataclass
class Experiment:
    """One child process: its timings and its judged output."""

    setup_s: float
    wall_s: float | None = None
    rss_mb: float | None = None
    units: float = 0.0
    fails: int = 0
    well_formed: bool = False
    digest: str | None = None


def child_env() -> dict[str, str]:
    """The caller's environment with every BLAS limited to one thread.

    One thread keeps each experiment on one core, so its time does not
    also depend on how busy the other cores are.  On a 2-core VM with
    OpenBLAS 0.3.31, three back-to-back fl-train-h120 experiments took
    16.8-18.2 s with two threads and 21.1-21.7 s with one.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("AERIALFL_OUT", None)
    return env


ENV = child_env()


def spawn(workload: Workload, seed: int, out: Path, deadline: float, *,
          setup_only: bool = False, trace: bool = False) -> tuple[dict | None, bytes]:
    """Run ``child.py`` once; return its result record and standard output."""
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
    if setup_only:
        cmd += ["--setup-only", workload.setup_ends_after]
    if trace:
        cmd += ["--trace", str(out / "spans.json")]
    cmd += ["--", *workload.argv, "--seed", str(seed), "--out", str(out)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=out, env=ENV, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        print(f"{workload.name}: child timed out", file=sys.stderr)
        return None, b""
    if proc.returncode != 0 or not result_path.is_file():
        print(f"{workload.name}: child exited with {proc.returncode}", file=sys.stderr)
        return None, proc.stdout
    record = json.loads(result_path.read_text())
    record["start"] = start
    return record, proc.stdout


def judge(workload: Workload, record: dict | None, stdout: bytes, out: Path) -> Experiment:
    """Time and check one experiment's output."""
    if record is None or "setup_end" not in record:
        return Experiment(setup_s=float("nan"), fails=workload.ops)
    exp = Experiment(
        setup_s=record["setup_end"] - record["start"],
        wall_s=record["end"] - record["setup_end"],
        rss_mb=record["maxrss_kb"] / 1024.0,
    )
    if workload.output is None:
        checks = [line for line in stdout.decode().splitlines()
                  if line.endswith((" OK", " FAIL"))]
        exp.fails = sum(line.endswith(" FAIL") for line in checks)
        exp.units = len(checks)
        exp.well_formed = len(checks) == workload.ops
        data = stdout
    else:
        path = out / workload.output
        if not path.is_file():
            exp.fails = workload.ops
            return exp
        data = path.read_bytes()
        lines = data.decode().splitlines()
        exp.fails = sum(line.startswith("# partial-failure") for line in lines)
        exp.units = workload.units * max(0, workload.ops - exp.fails) / workload.ops
        rows = sum(not line.startswith("#") for line in lines) - 1
        exp.well_formed = exp.fails > 0 or rows == workload.rows
    exp.well_formed &= record["rc"] == (1 if exp.fails else 0)
    exp.digest = hashlib.sha256(data).hexdigest()
    return exp


def score(workload: Workload, seed: int, experiments: list[Experiment]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over one invocation's experiments.

    At the reference seed every output must match its pinned sha256; at
    any seed all outputs of the invocation must be identical.
    """
    if seed == REFERENCE_SEED:
        expected = json.loads((HERE / "reference.json").read_text())[workload.name]
    else:
        expected = experiments[0].digest
    attempted = failed = 0
    correct = True
    for exp in experiments:
        good = exp.well_formed and exp.digest is not None and exp.digest == expected
        correct &= good
        attempted += workload.ops
        failed += min(workload.ops, exp.fails + (0 if good else 1))
    return attempted, failed, correct


def busy_cpu_s() -> float | None:
    """CPU seconds the whole machine has spent busy (steal included)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except OSError:
        return None
    return (sum(ticks) - ticks[3] - ticks[4]) / os.sysconf("SC_CLK_TCK")


def own_cpu_s() -> float:
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def machine() -> dict:
    """Static facts about the interpreter, numpy and its BLAS."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(ENV["OPENBLAS_NUM_THREADS"]),
    }


def summary(values: list[float]) -> str:
    return (f"median={statistics.median(values):.6g} min={min(values):.6g} "
            f"max={max(values):.6g} n={len(values)}")


def timed_run(workload: Workload, seed: int, seconds: float, work: Path,
              deadline: float) -> tuple[dict, list[Experiment]]:
    t0 = time.monotonic()
    setups = []
    for i in range(SETUP_PROBES):
        record, _ = spawn(workload, seed, work / f"probe{i}", deadline, setup_only=True)
        if record is None:
            raise SystemExit(f"{workload.name}: set-up probe failed")
        setups.append(record["setup_end"] - record["start"])
    experiments: list[Experiment] = []
    while True:
        out = work / f"run{len(experiments)}"
        started = time.monotonic()
        record, stdout = spawn(workload, seed, out, deadline)
        experiments.append(judge(workload, record, stdout, out))
        took = time.monotonic() - started
        if record is None or time.monotonic() - t0 + took > seconds:
            break
    timed = [e for e in experiments if e.wall_s is not None]
    setups += [e.setup_s for e in timed]
    if not timed:
        return {}, experiments
    walls = [e.wall_s for e in timed]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "units_per_s": statistics.median(e.units / e.wall_s for e in timed),
        "peak_rss_mb": statistics.median(e.rss_mb for e in timed),
    }
    print(f"setup_s: {summary(setups)} s")
    print(f"wall_s: {summary(walls)} s")
    print(f"units_per_s: {workload.units} {workload.unit} per experiment when none fails")
    return metrics, experiments


def traced_run(workload: Workload, seed: int, work: Path,
               deadline: float) -> tuple[dict, list[Experiment]]:
    plain_out = work / "untraced"
    plain = judge(workload, *spawn(workload, seed, plain_out, deadline), plain_out)
    trace_out = ROOT / ".perfbench_out" / "trace" / workload.name
    shutil.rmtree(trace_out, ignore_errors=True)
    record, stdout = spawn(workload, seed, trace_out, deadline, trace=True)
    traced = judge(workload, record, stdout, trace_out)
    if record is None or plain.wall_s is None:
        return {}, [plain, traced]
    overhead = traced.wall_s - plain.wall_s
    print(f"traced wall_s={traced.wall_s:.6g} s, untraced wall_s={plain.wall_s:.6g} s, "
          f"overhead={overhead:.6g} s; spans in {trace_out / 'spans.json'}")
    return tracing.layer_metrics(record["stats"], overhead), [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aerialfl" / "cli.py").is_file():
        print(f"no aerialfl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S

    facts = machine()
    load_start = os.getloadavg()
    busy0, own0, t0 = busy_cpu_s(), own_cpu_s(), time.monotonic()
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".perfbench_out"))
    try:
        if args.trace:
            metrics, experiments = traced_run(workload, args.seed, work, deadline)
            units = dict((name, unit) for name, unit, *_ in tracing.PER_LAYER)
        else:
            metrics, experiments = timed_run(workload, args.seed, args.seconds, work, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.monotonic() - t0
    busy1 = busy_cpu_s()
    other = None if busy0 is None or busy1 is None else (
        max(0.0, (busy1 - busy0) - (own_cpu_s() - own0)) / elapsed)
    facts.update(
        loadavg_start=load_start, loadavg_end=os.getloadavg(),
        other_busy_cores=other,
        contended=None if other is None else other > CONTENDED_CORES,
    )
    print("machine: " + json.dumps(facts))

    attempted, failed, correct = score(workload, args.seed, experiments)
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"experiments={len(experiments)} elapsed={elapsed:.3f} s")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted!r} ratio")
    if len(metrics) != len(units):
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarized in one JSON.

Usage::

    bench_pairs.py --parent DIR --change DIR --workload W [--workload W]...
                   --seed N --pairs K --out BENCH.json

``DIR`` is a checkout of this repository.  For each workload, runs
``perfbench/run.py --workload W --seed N --seconds 20 --trace 0`` in the
two checkouts K times each, one after the other, the parent first in even
pairs and the change first in odd ones, so that a drift of the host's
speed falls on both sides alike.  Every run keeps its ``machine:`` record
(with the harness's ``contended`` flag) and its JSON verdict.  The output
holds, per workload and end-to-end metric of ``BENCHMARK.json``:

- each side's median, quartiles and run count;
- the change/parent ratio of the medians, with the parent median as its
  base, and whether it is within the metric's bound;
- the change's gain over the parent median, signed so that a positive
  value is better, and whether it exceeds the parent's interquartile range;
- the pairs the change won;

and each side's ``failed/attempted`` operations and the minimum and median
count of experiments that fitted in one run.  A run that fits only one
experiment times that experiment alone, so a claim on such a workload
shows here.  The file is rewritten after every run, so an interrupted
invocation keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark invocation in ``checkout``: its machine record and verdict."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine:")), None)
    experiments = next((int(m[1]) for line in lines
                        if (m := re.search(r"\bexperiments=(\d+)\b", line))), None)
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        verdict = None
    return {
        "returncode": proc.returncode,
        "invocation_s": round(time.monotonic() - started, 2),
        "machine": machine,
        "experiments": experiments,
        "verdict": verdict,
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metric_value(run: dict, name: str) -> float | None:
    verdict = run["verdict"] or {}
    return verdict.get("metrics", {}).get(name, {}).get("value")


def compare(runs: list[dict], name: str, better: str, bound: float) -> dict | None:
    """Both sides' spread of one metric and the change's standing against the parent."""
    values = {side: [v for r in runs if r["side"] == side
                     if (v := metric_value(r, name)) is not None] for side in SIDES}
    if not all(values.values()):
        return None
    parent, change = (quartiles(values[side]) for side in SIDES)
    sign = 1.0 if better == "lower" else -1.0
    ratio = change["median"] / parent["median"]
    gain = sign * (parent["median"] - change["median"])
    wins = 0
    pairs = sorted({r["pair"] for r in runs})
    for pair in pairs:
        both = {r["side"]: metric_value(r, name) for r in runs if r["pair"] == pair}
        if None not in (both.get("parent"), both.get("change")):
            wins += sign * (both["parent"] - both["change"]) > 0
    return {
        "parent": parent,
        "change": change,
        "base": "parent median",
        "change_over_parent": ratio,
        "better": better,
        "bound": bound,
        "within_bound": (ratio - 1.0 if better == "lower" else 1.0 - ratio) <= bound,
        "gain": gain,
        "parent_iqr": parent["q3"] - parent["q1"],
        "gain_exceeds_parent_iqr": gain > parent["q3"] - parent["q1"],
        "change_wins": f"{wins}/{len(pairs)}",
    }


def summarize(workload: str, seed: int, runs: list[dict], end_to_end: list[dict]) -> dict:
    failures, experiments = {}, {}
    for side in SIDES:
        counts = [r["experiments"] for r in runs
                  if r["side"] == side and r["experiments"] is not None]
        experiments[side] = (
            {"min": min(counts), "median": statistics.median(counts)} if counts else None
        )
        verdicts = [r["verdict"] for r in runs if r["side"] == side and r["verdict"]]
        failed = sum(v["failed"] for v in verdicts)
        attempted = sum(v["attempted"] for v in verdicts)
        failures[side] = {
            "failed/attempted": f"{failed}/{attempted}",
            "fail_ratio": failed / attempted if attempted else None,
            "incorrect_runs": sum(not v["correct"] for v in verdicts),
            "runs_without_verdict": sum(r["side"] == side and not r["verdict"] for r in runs),
            "contended_runs": sum(r["side"] == side and bool((r["machine"] or {}).get("contended"))
                                  for r in runs),
        }
    metrics = {m["name"]: compare(runs, m["name"], m["better"], m["bound"]) for m in end_to_end}
    return {
        "workload": workload,
        "seed": seed,
        "pairs": len({r["pair"] for r in runs}),
        "metrics": metrics,
        "failures": failures,
        "experiments_per_run": experiments,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    report = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {SECONDS} --trace 0",
        "method": "alternating parent/change pairs, the parent first in even pairs; "
                  "each side runs in its own checkout",
        "workloads": [],
        "runs": [],
    }
    for workload in args.workload:
        runs: list[dict] = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], workload, args.seed)
                run = {"workload": workload, "seed": args.seed, "pair": pair,
                       "side": side, "first": order[0], **run}
                runs.append(run)
                report["runs"].append(run)
                wall = metric_value(run, "wall_s")
                print(f"{workload} pair {pair} {side}: wall_s={wall} "
                      f"contended={(run['machine'] or {}).get('contended')}", flush=True)
                summary = summarize(workload, args.seed, runs, end_to_end)
                report["workloads"] = [w for w in report["workloads"]
                                       if w["workload"] != workload] + [summary]
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

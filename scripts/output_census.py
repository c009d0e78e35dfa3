#!/usr/bin/env python3
"""Digest of every benchmark workload's output at the given seeds.

Usage: output_census.py SEED... [--workload NAME]...

For each workload of ``perfbench/workloads.py`` (or only the named ones)
and each seed, runs the ``aerialfl`` command line of this checkout once,
with one BLAS thread, and prints one line::

    workload seed exit_code failed_ops sha256

The digest covers the CSV the workload writes, or standard output for
``validate``.  Failed operations are counted as the benchmark counts them:
``# partial-failure`` lines in the CSV, or output lines ending in `` FAIL``;
a CSV that was not written counts every operation as failed and prints
``-`` for the digest.  Run it in two checkouts and diff the outputs to see
whether a change moves any output at seeds other than the pinned one.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import child_env  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def cli_env() -> dict[str, str]:
    """The benchmark's child environment with this checkout's sources first."""
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def census(workload: Workload, seed: int) -> tuple[int, int, str]:
    """(exit code, failed operations, sha256) of one run."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        out = Path(tmp)
        proc = subprocess.run(
            [sys.executable, "-m", "aerialfl.cli", *workload.argv,
             "--seed", str(seed), "--out", str(out)],
            cwd=out, env=cli_env(), stdout=subprocess.PIPE, check=False,
        )
        if workload.output is None:
            data = proc.stdout
            failed = sum(line.endswith(" FAIL") for line in data.decode().splitlines())
        else:
            path = out / workload.output
            if not path.is_file():
                return proc.returncode, workload.ops, "-"
            data = path.read_bytes()
            failed = sum(
                line.startswith("# partial-failure") for line in data.decode().splitlines()
            )
    return proc.returncode, failed, hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    for name in args.workload or WORKLOADS:
        for seed in args.seeds:
            code, failed, digest = census(WORKLOADS[name], seed)
            print(f"{name} {seed} {code} {failed} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

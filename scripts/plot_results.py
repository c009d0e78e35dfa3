#!/usr/bin/env python3
"""Plot the CSVs produced by the aerialfl CLI (matplotlib optional).

Usage: plot_results.py <results-dir> [--out <dir>]

Reads whichever of coverage.csv / training.csv / epoch_sweep.csv exist in
the results directory and writes one PNG per file. Purely a convenience
viewer; nothing in the package depends on it.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path


def read_rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader.fieldnames or []), list(reader)


def column(rows: list[dict[str, str]], name: str) -> list[float]:
    """Values of one column; an empty cell (a failed height) plots as NaN."""
    return [float(r[name]) if r[name] else float("nan") for r in rows]


def plot_coverage(path: Path, out_dir: Path, plt) -> None:
    _, rows = read_rows(path)
    h = column(rows, "h")
    fig, ax = plt.subplots()
    for name, label in (
        ("analytic_joint", "joint (analytic)"),
        ("analytic_ul", "UL (analytic)"),
        ("analytic_dl", "DL (analytic)"),
    ):
        ax.plot(h, column(rows, name), label=label)
    if any(r["mc_joint"] for r in rows):
        ax.plot(h, column(rows, "mc_joint"), "k.", label="joint (Monte-Carlo)")
    ax.set_xlabel("UAV height h (m)")
    ax.set_ylabel("success probability")
    ax.legend()
    fig.savefig(out_dir / "coverage.png", dpi=150)


def plot_training(path: Path, out_dir: Path, plt) -> None:
    _, rows = read_rows(path)
    by_kind = defaultdict(list)
    for r in rows:
        by_kind[r["kind"]].append((int(r["round"]), float(r["test_acc"])))
    fig, ax = plt.subplots()
    for kind, series in by_kind.items():
        series.sort()
        ax.plot([t for t, _ in series], [a for _, a in series], label=kind)
    ax.set_xlabel("communication round")
    ax.set_ylabel("test accuracy")
    ax.legend()
    fig.savefig(out_dir / "training.png", dpi=150)


def plot_epoch_sweep(path: Path, out_dir: Path, plt) -> None:
    _, rows = read_rows(path)
    by_kind = defaultdict(list)
    for r in rows:
        by_kind[r["kind"]].append((int(r["E"]), float(r["final_test_acc"])))
    fig, ax = plt.subplots()
    width = 0.8 / max(len(by_kind), 1)
    for i, (kind, series) in enumerate(sorted(by_kind.items())):
        series.sort()
        xs = [e + i * width for e, _ in series]
        ax.bar(xs, [a for _, a in series], width=width, label=kind)
    ax.set_xlabel("local epochs E")
    ax.set_ylabel("final test accuracy")
    ax.legend()
    fig.savefig(out_dir / "epoch_sweep.png", dpi=150)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", type=Path)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is not installed; nothing to do", file=sys.stderr)
        return 1
    out_dir = args.out or args.results
    out_dir.mkdir(parents=True, exist_ok=True)
    plotters = {
        "coverage.csv": plot_coverage,
        "training.csv": plot_training,
        "epoch_sweep.csv": plot_epoch_sweep,
    }
    made = 0
    for name, fn in plotters.items():
        path = args.results / name
        if path.exists():
            fn(path, out_dir, plt)
            made += 1
    print(f"wrote {made} figure(s) to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

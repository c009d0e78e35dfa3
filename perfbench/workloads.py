"""The benchmark's workloads: which ``aerialfl`` command each one runs.

Each workload is one CLI invocation at a fixed size.  The seed is appended
by the harness (``--seed``), as is the output directory (``--out``).  The
reason each workload exists is kept in ``BENCHMARK.json`` (``why``).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One CLI experiment and how to judge its output.

    ``units`` is the work one experiment completes (training rounds,
    coverage heights or validation checks); ``ops`` is the number of
    operations whose failure the CLI reports one by one (aggregator or
    height runs, coverage heights, validation checks).  ``output`` names
    the CSV the command writes, with ``rows`` data rows, or is ``None``
    when the verdict printed on standard output is the result.
    ``setup_ends_after`` is the CLI function whose return marks the start
    of the experiment body.
    """

    name: str
    argv: tuple[str, ...]
    output: str | None
    rows: int | None
    units: int
    unit: str
    ops: int
    setup_ends_after: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fl-train-h120",
            argv=("train",),
            output="training.csv",
            rows=183,
            units=180,
            unit="rounds",
            ops=3,
            setup_ends_after="load_dataset",
        ),
        Workload(
            name="fl-sweep-height",
            argv=("sweep-height", "--aggregator", "joint"),
            output="height_sweep.csv",
            rows=3,
            units=180,
            unit="rounds",
            ops=3,
            setup_ends_after="load_dataset",
        ),
        Workload(
            name="coverage-sweep",
            argv=("coverage", "--trials", "5000"),
            output="coverage.csv",
            rows=26,
            units=26,
            unit="heights",
            ops=26,
            setup_ends_after="load_config",
        ),
        Workload(
            name="oracle-validate",
            argv=("validate", "--trials", "20000"),
            output=None,
            rows=None,
            units=18,
            unit="checks",
            ops=18,
            setup_ends_after="load_config",
        ),
    )
}

#: Seed whose outputs are pinned by sha256 in ``reference.json``.
REFERENCE_SEED = 0

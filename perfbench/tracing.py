"""Spans and counters at the boundaries between ``aerialfl`` modules.

The tracer patches, from outside, the public functions each module hands
to the layer above it, and records for every call its name, start, end and
parent span.  Counters are kept at the same boundaries.  Nothing inside
``aerialfl`` changes: the wrappers only time and count, draw no random
numbers and pass every argument and result through untouched.

Self time is a span's duration minus the durations of its direct
children, so nested calls (the inner ``integrate_batch`` runs inside the
outer ``laplace_ul`` integrand) are never counted twice.  Busy time sums
only the outermost span of each name for the same reason.

The tracer assumes one thread: the CLI's default of one worker.
"""
from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from pathlib import Path

#: Per-layer metrics: (name, unit, better, the end-to-end metric and
#: workload it should move).  ``BENCHMARK.json`` lists the same names.
PER_LAYER = [
    ("fl.local_update.calls", "count", "lower", "wall_s on fl-train-h120; less on fl-sweep-height"),
    ("fl.local_update.samples", "count", "lower", "wall_s on fl-train-h120; less on fl-sweep-height"),
    ("fl.local_update.busy_s", "s", "lower", "wall_s on fl-train-h120; less on fl-sweep-height"),
    ("fl.local_update.useful_ratio", "ratio", "higher", "wall_s on fl-train-h120; less on fl-sweep-height"),
    ("fl.global_loss.calls", "count", "lower", "wall_s on both FL workloads equally"),
    ("fl.global_loss.busy_s", "s", "lower", "wall_s on both FL workloads equally"),
    ("fl.aggregate.busy_s", "s", "lower", "wall_s on the FL workloads"),
    ("fl.aggregate.survivors", "count", "higher", "base of useful_ratio: updates that survived both links"),
    ("fl.train.calls", "count", "lower", "base: aggregator runs per experiment"),
    ("fl.train.self_s", "s", "lower", "wall_s on the FL workloads"),
    ("fl.self_s", "s", "lower", "wall_s on the FL workloads"),
    ("models.loss_and_grad.calls", "count", "lower", "wall_s on the FL workloads"),
    ("models.loss_and_grad.rows", "count", "lower", "wall_s on the FL workloads"),
    ("models.loss_and_grad.busy_s", "s", "lower", "wall_s on the FL workloads"),
    ("models.loss_and_grad.in_local_update.calls", "count", "lower", "wall_s on fl-train-h120"),
    ("models.loss_and_grad.in_local_update.rows", "count", "lower", "wall_s on fl-train-h120"),
    ("models.loss_and_grad.in_local_update.busy_s", "s", "lower", "wall_s on fl-train-h120"),
    ("models.loss_and_grad.in_global_loss.calls", "count", "lower", "wall_s on both FL workloads"),
    ("models.loss_and_grad.in_global_loss.rows", "count", "lower", "wall_s on both FL workloads"),
    ("models.loss_and_grad.in_global_loss.busy_s", "s", "lower", "wall_s on both FL workloads"),
    ("models.predict.calls", "count", "lower", "wall_s on the FL workloads"),
    ("models.predict.rows", "count", "lower", "wall_s on the FL workloads"),
    ("models.predict.busy_s", "s", "lower", "wall_s on the FL workloads"),
    ("models.self_s", "s", "lower", "wall_s on the FL workloads"),
    ("montecarlo.realize_round.calls", "count", "lower", "wall_s on the FL workloads (about 1%)"),
    ("montecarlo.realize_round.links", "count", "lower", "wall_s on the FL workloads (about 1%)"),
    ("montecarlo.realize_round.busy_s", "s", "lower", "wall_s on the FL workloads (about 1%)"),
    ("montecarlo.estimate_coverage.calls", "count", "lower", "wall_s on coverage-sweep and oracle-validate"),
    ("montecarlo.estimate_coverage.trials", "count", "lower", "wall_s on coverage-sweep and oracle-validate"),
    ("montecarlo.estimate_coverage.busy_s", "s", "lower", "wall_s on coverage-sweep and oracle-validate"),
    ("montecarlo.estimate_coverage.trials_per_s", "1/s", "higher", "wall_s on coverage-sweep and oracle-validate"),
    ("montecarlo.laplace_oracle.calls", "count", "lower", "wall_s on oracle-validate only"),
    ("montecarlo.laplace_oracle.trials", "count", "lower", "wall_s on oracle-validate only"),
    ("montecarlo.laplace_oracle.busy_s", "s", "lower", "wall_s on oracle-validate only"),
    ("montecarlo.self_s", "s", "lower", "wall_s on coverage-sweep and oracle-validate"),
    ("analytic.cluster_average_success.calls", "count", "lower", "wall_s on coverage-sweep"),
    ("analytic.cluster_average_success.busy_s", "s", "lower", "wall_s on coverage-sweep"),
    ("analytic.success_profiles.calls", "count", "lower", "wall_s on the FL workloads (small share)"),
    ("analytic.success_profiles.busy_s", "s", "lower", "wall_s on the FL workloads (small share)"),
    ("analytic.laplace_dl.calls", "count", "lower", "wall_s on oracle-validate"),
    ("analytic.laplace_dl.args", "count", "lower", "wall_s on oracle-validate"),
    ("analytic.laplace_dl.busy_s", "s", "lower", "wall_s on oracle-validate"),
    ("analytic.laplace_ul.calls", "count", "lower", "wall_s on oracle-validate"),
    ("analytic.laplace_ul.args", "count", "lower", "wall_s on oracle-validate"),
    ("analytic.laplace_ul.busy_s", "s", "lower", "wall_s on oracle-validate"),
    ("analytic.integrand.nodes", "count", "lower", "wall_s on coverage-sweep most, oracle-validate next"),
    ("analytic.integrand.self_s", "s", "lower", "wall_s on coverage-sweep most, oracle-validate next"),
    ("analytic.integrand.nodes_per_s", "1/s", "higher", "wall_s on coverage-sweep most, oracle-validate next"),
    ("analytic.self_s", "s", "lower", "wall_s on coverage-sweep"),
    ("quadrature.integrate_batch.calls", "count", "lower", "wall_s on coverage-sweep"),
    ("quadrature.integrate_batch.integrals", "count", "lower", "wall_s on coverage-sweep"),
    ("quadrature.integrate_batch.self_s", "s", "lower", "wall_s on coverage-sweep"),
    ("geometry.sample_topology.busy_s", "s", "lower", "setup_s and peak_rss_mb on the FL workloads"),
    ("data.synthetic_blobs.busy_s", "s", "lower", "setup_s on the FL workloads"),
    ("cli.write_csv.busy_s", "s", "lower", "wall_s; negligible everywhere"),
    ("cli.write_csv.bytes", "B", "lower", "wall_s; negligible everywhere"),
    ("cli.self_s", "s", "lower", "wall_s; negligible everywhere"),
    ("trace.spans", "count", "lower", "tracing cost; moves no end-to-end metric"),
    ("trace.overhead_s", "s", "lower", "traced wall_s minus untraced wall_s of the same workload"),
]

#: Ratios: metric -> (numerator, denominator), both reported alongside.
_RATIOS = {
    "fl.local_update.useful_ratio": ("fl.aggregate.survivors", "fl.local_update.calls"),
    "montecarlo.estimate_coverage.trials_per_s": (
        "montecarlo.estimate_coverage.trials", "montecarlo.estimate_coverage.busy_s"),
    "analytic.integrand.nodes_per_s": ("analytic.integrand.nodes", "analytic.integrand.self_s"),
}


class Tracer:
    """In-memory spans and counters, written out once the run has ended."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.child_time: list[float] = []
        self.outermost: list[bool] = []
        # (span name, parent span name, counter) -> total
        self.counters: dict[tuple[str, str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(add, args, kwargs,
        result)`` may add to counters once the call has returned."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.outermost.append(self._open[name] == 0)
            self.durations.append(0.0)
            self.child_time.append(0.0)
            self._open[name] += 1
            self._stack.append(idx)
            start = self.clock()
            self.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._stack.pop()
                self._open[name] -= 1
                self.durations[idx] = duration
                if parent >= 0:
                    self.child_time[parent] += duration
            if count is not None:
                parent_name = self.names[parent] if parent >= 0 else ""

                def add(key, value):
                    self.counters[(name, parent_name, key)] += value

                count(add, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, last patched first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def stats(self) -> dict[str, float]:
        """Flat ``<span>.<stat>`` totals, also split by parent as
        ``<span>.in_<parent function>.<stat>``, plus ``<layer>.self_s``."""
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            keys = (name, f"{name}.in_{_short(self.names[parent]) if parent >= 0 else 'root'}")
            own = self.durations[i] - self.child_time[i]
            for key in keys:
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += own
                if self.outermost[i]:
                    out[f"{key}.busy_s"] += self.durations[i]
            out[f"{name.split('.')[0]}.self_s"] += own
        for (name, parent, counter), value in self.counters.items():
            out[f"{name}.{counter}"] += value
            out[f"{name}.in_{_short(parent) if parent else 'root'}.{counter}"] += value
        out["trace.spans"] = len(self.names)
        return dict(out)

    def write(self, path: Path) -> None:
        """All spans as columns: name, start, end, parent index."""
        path.write_text(json.dumps({
            "names": self.names,
            "starts": self.starts,
            "ends": [s + d for s, d in zip(self.starts, self.durations)],
            "parents": self.parents,
            "counters": [[*k, v] for k, v in self.counters.items()],
        }))


def _short(span_name: str) -> str:
    return span_name.rsplit(".", 1)[-1]


def layer_metrics(stats: dict[str, float], overhead_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from a traced run's stats; a layer the
    workload never calls reads zero."""
    values = {
        name: int(stats.get(name, 0)) if unit in ("count", "B") else float(stats.get(name, 0.0))
        for name, unit, *_ in PER_LAYER
    }
    for name, (num, den) in _RATIOS.items():
        values[name] = values[num] / values[den] if values[den] > 0 else 0.0
    values["trace.overhead_s"] = overhead_s
    return values


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Patch every module boundary the per-layer metrics are taken at."""
    import numpy as np

    from aerialfl import analytic, cli, fl

    def rows(add, args, kwargs, result):
        add("rows", _arg(args, kwargs, 1, "x").shape[0])

    def traced_build_model(*args, **kwargs):
        model = original_build_model(*args, **kwargs)
        return dataclasses.replace(
            model,
            loss_and_grad=tracer.wrap("models.loss_and_grad", model.loss_and_grad, rows),
            predict=tracer.wrap("models.predict", model.predict, rows),
        )

    original_build_model = fl.build_model
    tracer.patch(fl, "build_model", traced_build_model)

    def samples(add, args, kwargs, result):
        cfg = _arg(args, kwargs, 3, "cfg")
        add("samples", cfg.epochs * _arg(args, kwargs, 2, "data").n_k)

    def survivors(add, args, kwargs, result):
        add("survivors", int(np.count_nonzero(_arg(args, kwargs, 2, "channel").joint_success)))

    def links(add, args, kwargs, result):
        add("links", 2 * np.size(_arg(args, kwargs, 1, "schedule")))

    def trials(index):
        return lambda add, args, kwargs, result: add(
            "trials", int(_arg(args, kwargs, index, "trials")))

    def arguments(add, args, kwargs, result):
        add("args", np.size(_arg(args, kwargs, 0, "s")))

    def nodes(add, args, kwargs, result):
        add("nodes", np.size(args[0]))

    def integrals(add, args, kwargs, result):
        add("integrals", np.size(_arg(args, kwargs, 1, "lower")))

    def written(add, args, kwargs, result):
        add("bytes", Path(_arg(args, kwargs, 0, "path")).stat().st_size)

    boundaries = [
        (cli, "train", "fl.train", None),
        (fl, "local_update", "fl.local_update", samples),
        (fl, "global_loss", "fl.global_loss", None),
        (fl, "aggregate", "fl.aggregate", survivors),
        (fl, "sample_topology", "geometry.sample_topology", None),
        (fl, "success_profiles", "analytic.success_profiles", None),
        (fl, "realize_round", "montecarlo.realize_round", links),
        (cli, "cluster_average_success", "analytic.cluster_average_success", None),
        (cli, "estimate_coverage", "montecarlo.estimate_coverage", trials(1)),
        (cli, "laplace_oracle", "montecarlo.laplace_oracle", trials(3)),
        (cli, "synthetic_blobs", "data.synthetic_blobs", None),
        (cli, "write_csv", "cli.write_csv", written),
    ]
    for module, attr, name, count in boundaries:
        tracer.patch(module, attr, tracer.wrap(name, getattr(module, attr), count))

    # The transforms are called from the CLI (validate) and from inside
    # analytic (success factors); one wrapper serves both call sites.
    for attr in ("laplace_dl", "laplace_ul"):
        wrapped = tracer.wrap(f"analytic.{attr}", getattr(analytic, attr), arguments)
        tracer.patch(analytic, attr, wrapped)
        tracer.patch(cli, attr, wrapped)

    batch = tracer.wrap("quadrature.integrate_batch", analytic.integrate_batch, integrals)

    def traced_integrate_batch(f, *args, **kwargs):
        return batch(tracer.wrap("analytic.integrand", f, nodes), *args, **kwargs)

    tracer.patch(analytic, "integrate_batch", traced_integrate_batch)

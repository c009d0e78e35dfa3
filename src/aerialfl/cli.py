"""Experiment runner: coverage sweeps, federated training, validation.

Subcommands map one-to-one onto the experiments:

- ``coverage``     analytic and Monte-Carlo coverage versus UAV height
- ``train``        loss/accuracy trajectories for each aggregation rule
- ``sweep-e``      final accuracy versus local epoch count
- ``sweep-height`` final training accuracy versus UAV height
- ``env-compare``  final training accuracy per LOS environment preset
- ``validate``     closed-form Laplace transforms and coverage against
                   Monte-Carlo oracles

The four training subcommands share one runner, :func:`cmd_training`; each
supplies only its grid points and the rows one trained aggregator yields.

Configs are YAML files whose sections mirror the dataclasses
(``network:``, ``quad:``, ``train:``, plus top-level keys); an unknown key
is an error, and command-line flags override file values.  ``trials``
applies to ``coverage`` and ``validate`` only, the training and dataset
keys to the training subcommands only, and a key a command ignores does
not enter its config hash.  Every CSV begins with ``#`` metadata lines
carrying the resolved-config hash and the seed, and contains no
timestamps, so rerunning an identical config produces identical bytes.
The default output directory is taken from ``AERIALFL_OUT`` when set.

:func:`main` keeps freed heap memory in the process (glibc's ``mallopt``,
where it exists).  The Monte-Carlo engine runs its batches at the same
time, one per available core; each batch holds about 10 MB, reusing its
per-link arrays of about 1.6 MB in place, and frees them when it ends.
With glibc's defaults each such array is a fresh mapping that page-faults
on first touch, which cost a ``coverage --trials 5000`` run about 600k
minor faults.  The setting is made by ``main`` only, so a program that
imports :mod:`aerialfl` as a library keeps its allocator's defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import yaml

from .analytic import (
    QuadratureSpec,
    cluster_average_success,
    laplace_arguments,
    laplace_dl,
    laplace_ul,
)
from .channel import Direction, LinkType
from .data import DataBundle, load_mnist, synthetic_blobs
from .fl import AggregatorKind, TrainConfig, TrainResult, train
from .montecarlo import binomial_half_width, estimate_coverage, laplace_oracle
from .params import ENVIRONMENT_PRESETS, NetworkParams, is_integer, require_integers

__all__ = [
    "ExperimentConfig",
    "OUTPUT_DIR_ENV",
    "build_parser",
    "main",
]

OUTPUT_DIR_ENV = "AERIALFL_OUT"

#: Swept quantity and its default values, per subcommand.
SWEEPS: dict[str, tuple[str, tuple]] = {
    "coverage": ("height", tuple(float(h) for h in range(20, 150, 5))),
    "train": ("none", ()),
    "sweep-e": ("epochs", (1, 2, 3, 5, 10)),
    "sweep-height": ("height", (25.0, 50.0, 120.0)),
    "env-compare": ("height", (25.0, 120.0)),
    "validate": ("height", (45.0, 120.0)),
}

#: Monte-Carlo trials when neither the config nor ``--trials`` sets them.
DEFAULT_TRIALS = 5000

#: Top-level config keys; the sections hold dataclass fields.
CONFIG_KEYS = frozenset({
    "network", "quad", "train", "sweep", "trials", "seed", "out", "dataset",
    "mnist_dir", "aggregators", "n_train", "n_test", "dataset_seed",
})
SWEEP_KEYS = frozenset({"name", "values"})
#: Keys only the training subcommands read.
TRAINING_KEYS = CONFIG_KEYS - {"network", "quad", "sweep", "trials", "seed", "out"}

#: Training subcommands default to a small cluster that keeps q_k = M/N at
#: its full-scale value while finishing in minutes; ``coverage`` and
#: ``validate`` keep the full-scale network defaults.
DESK_SCALE_NETWORK = {"n_devices": 20, "n_resource_blocks": 18}
DESK_SCALE_SAMPLES = {"n_train": 10_000, "n_test": 2_000}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment invocation."""

    network: NetworkParams
    quad: QuadratureSpec
    train: TrainConfig
    sweep_name: str
    sweep_values: tuple
    out_dir: Path
    trials: int
    seed: int
    dataset: str
    mnist_dir: Path | None
    aggregators: tuple[AggregatorKind, ...]
    n_train: int
    n_test: int
    dataset_seed: int

    def __post_init__(self) -> None:
        require_integers(self, "trials", "seed", "n_train", "n_test", "dataset_seed")
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if self.dataset not in ("synthetic", "mnist"):
            raise ValueError("dataset must be 'synthetic' or 'mnist'")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("dataset sizes must be positive")

    def config_hash(self) -> str:
        """Short stable hash of every field that affects the outputs."""
        payload = {
            "network": dataclasses.asdict(self.network),
            "quad": dataclasses.asdict(self.quad),
            "train": dataclasses.asdict(self.train),
            "sweep": {"name": self.sweep_name, "values": list(self.sweep_values)},
            "trials": self.trials,
            "seed": self.seed,
            "dataset": self.dataset,
            "aggregators": [k.value for k in self.aggregators],
            "n_train": self.n_train,
            "n_test": self.n_test,
            "dataset_seed": self.dataset_seed,
        }
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def metadata(self, command: str) -> dict[str, str]:
        return {
            "generator": f"aerialfl {command}",
            "config-hash": self.config_hash(),
            "seed": str(self.seed),
        }


def _coerce_section(raw: Mapping | None, name: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise SystemExit(f"config section '{name}' must be a mapping")
    return dict(raw)


def _build_network(section: dict, *, desk_scale: bool) -> NetworkParams:
    section = dict(section)
    environment = section.pop("environment", None)
    if desk_scale:
        section = {**DESK_SCALE_NETWORK, **section}
    params = NetworkParams(**section)
    if environment is not None:
        params = params.with_environment(str(environment))
    return params


def load_config(path: Path | None, args: argparse.Namespace) -> ExperimentConfig:
    """Merge YAML config (if any) with the CLI overrides of ``args.command``."""
    command = args.command
    raw: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, Mapping):
            raise SystemExit(f"config file {path} must hold a mapping")
        raw = dict(loaded)

    sweep_section = _coerce_section(raw.get("sweep"), "sweep")
    unknown = sorted(map(str, raw.keys() - CONFIG_KEYS))
    unknown += sorted(f"sweep: {k}" for k in sweep_section.keys() - SWEEP_KEYS)
    if unknown:
        raise SystemExit(f"config file {path} has unknown keys: {', '.join(unknown)}")

    training_command = command in TRAINING
    if not training_command:
        # Nothing here reads the training keys; drop them, as ``trials`` is below.
        raw = {k: v for k, v in raw.items() if k not in TRAINING_KEYS}
    network = _build_network(
        _coerce_section(raw.get("network"), "network"), desk_scale=training_command
    )
    quad = QuadratureSpec(**_coerce_section(raw.get("quad"), "quad"))

    def setting(key: str, default, flag: str | None = None):
        """The flag's value if given, else the config file's, else ``default``."""
        value = getattr(args, flag or key, None)
        return raw.get(key, default) if value is None else value

    seed = setting("seed", 0)
    train_section = _coerce_section(raw.get("train"), "train")
    train_section["seed"] = seed
    if getattr(args, "rounds", None) is not None:
        train_section["rounds"] = args.rounds
    train_cfg = TrainConfig(**train_section)

    sweep_name, default_sweep = SWEEPS[command]
    if sweep_section and sweep_name == "none":
        raise SystemExit(
            f"subcommand '{command}' sweeps nothing; remove the 'sweep' section"
        )
    values = tuple(sweep_section.get("values", default_sweep))
    name = str(sweep_section.get("name", sweep_name))
    if name != sweep_name:
        raise SystemExit(
            f"subcommand '{command}' sweeps '{sweep_name}', not '{name}'"
        )
    if sweep_name != "none" and not values:
        raise SystemExit(f"subcommand '{command}' needs at least one sweep value")

    # Training never reads trials; pinning it keeps equal runs' hashes equal.
    trials = DEFAULT_TRIALS if training_command else setting("trials", DEFAULT_TRIALS)
    out_dir = setting("out", os.environ.get(OUTPUT_DIR_ENV, "results"))
    mnist_dir = setting("mnist_dir", None)
    agg_values = setting("aggregators", [k.value for k in AggregatorKind], "aggregator")
    aggregators = tuple(AggregatorKind(v) for v in agg_values)

    return ExperimentConfig(
        network=network,
        quad=quad,
        train=train_cfg,
        sweep_name=sweep_name,
        sweep_values=values,
        out_dir=Path(out_dir),
        trials=trials,
        seed=seed,
        dataset=str(setting("dataset", "synthetic")),
        mnist_dir=Path(mnist_dir) if mnist_dir is not None else None,
        aggregators=aggregators,
        n_train=raw.get("n_train", DESK_SCALE_SAMPLES["n_train"]),
        n_test=raw.get("n_test", DESK_SCALE_SAMPLES["n_test"]),
        dataset_seed=raw.get("dataset_seed", 12345),
    )


def load_dataset(cfg: ExperimentConfig) -> DataBundle:
    """Resolve the training data: IDX files when requested, else synthetic."""
    if cfg.dataset == "mnist":
        if cfg.mnist_dir is None:
            raise SystemExit("--mnist-dir is required with --dataset mnist")
        bundle = load_mnist(cfg.mnist_dir)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.dataset_seed))
        bundle = synthetic_blobs(cfg.n_train, cfg.n_test, rng)
    return bundle.limited(cfg.n_train, cfg.n_test)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_csv(
    path: Path,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    meta: Mapping[str, str],
    comments: Sequence[str] = (),
) -> None:
    """Write a deterministic CSV with #-prefixed metadata lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines += [f"# {comment}" for comment in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_coverage(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    heights = sorted(float(h) for h in cfg.sweep_values)
    rows, comments = [], []
    for index, h in enumerate(heights):
        try:
            params = cfg.network.with_(height=h)
            analytic = cluster_average_success(params, cfg.quad)
            mc_cols = [None, None, None, None]
            if cfg.trials > 0:
                rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index)))
                mc = estimate_coverage(params, cfg.trials, rng)
                mc_cols = [mc.p_joint, mc.p_ul, mc.p_dl, mc.half_width_95]
        except Exception as exc:  # noqa: BLE001 - row-level isolation
            rows.append([h] + [None] * 7)
            comments.append(f"partial-failure: height={_fmt(h)}: {exc}")
        else:
            rows.append([h, analytic.j_joint, analytic.j_ul, analytic.j_dl, *mc_cols])
    out = cfg.out_dir / "coverage.csv"
    write_csv(
        out,
        ["h", "analytic_joint", "analytic_ul", "analytic_dl",
         "mc_joint", "mc_ul", "mc_dl", "mc_halfwidth"],
        rows,
        cfg.metadata("coverage"),
        comments,
    )
    print(f"wrote {out} ({len(rows)} heights)")
    return 1 if comments else 0


#: One grid point of a training subcommand: the row labels that identify
#: it, the suffix its failure notes carry, and what is trained there.
GridPoint = tuple[tuple, str, NetworkParams, TrainConfig]


def _train_points(cfg: ExperimentConfig) -> list[GridPoint]:
    return [((), "", cfg.network, cfg.train)]


def _epoch_points(cfg: ExperimentConfig) -> list[GridPoint]:
    epochs = cfg.sweep_values
    if any(not is_integer(e) or e < 1 for e in epochs):
        raise SystemExit("epoch values must be integers >= 1")
    return [((e,), f" (E={e})", cfg.network, dataclasses.replace(cfg.train, epochs=e))
            for e in sorted(epochs)]


def _height_points(cfg: ExperimentConfig) -> list[GridPoint]:
    return [((h,), f" (h={_fmt(h)})", cfg.network.with_(height=h), cfg.train)
            for h in sorted(float(h) for h in cfg.sweep_values)]


def _environment_points(cfg: ExperimentConfig) -> list[GridPoint]:
    heights = sorted(float(h) for h in cfg.sweep_values)
    return [
        ((env, h), f" (env={env}, h={_fmt(h)})",
         cfg.network.with_environment(env).with_(height=h), cfg.train)
        for env in ENVIRONMENT_PRESETS
        for h in heights
    ]


def _round_rows(labels: tuple, kind: AggregatorKind, result: TrainResult) -> list:
    return [[rec.round, kind.value, rec.loss, rec.train_accuracy, rec.test_accuracy]
            for rec in result.records]


def _final_accuracy_row(labels: tuple, kind: AggregatorKind, result: TrainResult) -> list:
    return [[*labels, kind.value, result.final_test_accuracy]]


def _final_row(labels: tuple, kind: AggregatorKind, result: TrainResult) -> list:
    return [[*labels, kind.value, result.final_test_accuracy, result.records[-1].loss]]


#: Training subcommands: output CSV, its columns, the grid points, and the
#: rows one trained aggregator contributes at a point.
TRAINING = {
    "train": ("training.csv", ["round", "kind", "loss", "train_acc", "test_acc"],
              _train_points, _round_rows),
    "sweep-e": ("epoch_sweep.csv", ["E", "kind", "final_test_acc"],
                _epoch_points, _final_accuracy_row),
    "sweep-height": ("height_sweep.csv", ["h", "kind", "final_test_acc", "final_loss"],
                     _height_points, _final_row),
    "env-compare": ("environment_compare.csv",
                    ["environment", "h", "kind", "final_test_acc", "final_loss"],
                    _environment_points, _final_row),
}


def cmd_training(args: argparse.Namespace) -> int:
    """Train every requested aggregator at each grid point; one CSV out.

    A failing aggregator at one point is noted in the CSV header and the
    run goes on; the exit code is 1 if any note was written.
    """
    csv_name, columns, grid, row_builder = TRAINING[args.command]
    cfg = load_config(args.config, args)
    points = grid(cfg)
    bundle = load_dataset(cfg)
    rows, comments = [], []
    for labels, note, network, train_cfg in points:
        for kind in cfg.aggregators:
            try:
                result = train(train_cfg, network, kind, bundle, cfg.quad)
            except Exception as exc:  # noqa: BLE001 - kind-level isolation
                comments.append(f"partial-failure: kind={kind.value}: {exc}{note}")
            else:
                rows += row_builder(labels, kind, result)
    out = cfg.out_dir / csv_name
    write_csv(out, columns, rows, cfg.metadata(args.command), comments)
    print(f"wrote {out} ({len(rows)} rows)")
    return 1 if comments else 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    if cfg.trials == 0:
        raise SystemExit("validate compares against Monte-Carlo oracles; --trials must be positive")
    trials = cfg.trials
    failures = 0
    r_k = 50.0
    transforms = {Direction.DL: laplace_dl, Direction.UL: laplace_ul}
    counter = 0
    for h in cfg.sweep_values:
        params = cfg.network.with_(height=float(h))
        for direction, closed_form in transforms.items():
            for link in (LinkType.LOS, LinkType.NLOS):
                s_values = laplace_arguments(params, r_k, direction, link)
                for j, s in enumerate(s_values, start=1):
                    counter += 1
                    rng = np.random.default_rng(
                        np.random.SeedSequence((cfg.seed, counter))
                    )
                    closed = float(closed_form(s, params, cfg.quad))
                    mc, half = laplace_oracle(params, direction, s, trials, rng)
                    # Values the Monte-Carlo mean cannot resolve (rare-event
                    # regime, CI comparable to the mean) are judged on an
                    # absolute scale that is negligible for any probability.
                    if mc > 50 * half:
                        rel = abs(closed - mc) / mc
                        ok = abs(closed - mc) <= 0.01 * mc + 2 * half
                        detail = f"rel={rel:.4f}"
                    else:
                        ok = abs(closed - mc) <= max(3 * half, 1e-4)
                        detail = f"|diff|={abs(closed - mc):.2e} (noise floor)"
                    failures += 0 if ok else 1
                    print(
                        f"laplace_{direction.value} h={h:g} {link.name} j={j}: "
                        f"closed={closed:.6f} oracle={mc:.6f} {detail} "
                        f"{'OK' if ok else 'FAIL'}"
                    )
        analytic = cluster_average_success(params, cfg.quad)
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 10_000 + counter)))
        mc = estimate_coverage(params, trials, rng)
        budget = 0.02 + binomial_half_width(mc.p_joint, trials)
        diff = abs(analytic.j_joint - mc.p_joint)
        ok = diff <= budget
        failures += 0 if ok else 1
        print(
            f"coverage h={h:g}: analytic={analytic.j_joint:.4f} "
            f"mc={mc.p_joint:.4f} |diff|={diff:.4f} budget={budget:.4f} "
            f"{'OK' if ok else 'FAIL'}"
        )
    print("validate:", "PASS" if failures == 0 else f"FAIL ({failures} checks)")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aerialfl",
        description="Coverage analysis and channel-aware federated learning "
        "over UAV-assisted networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, data: bool) -> None:
        p.add_argument("--config", type=Path, default=None,
                       help="YAML config file; flags override its values")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", type=Path, default=None,
                       help=f"output directory (default ${OUTPUT_DIR_ENV} or ./results)")
        if data:
            p.add_argument("--aggregator", action="append",
                           choices=[k.value for k in AggregatorKind],
                           help="aggregation rule; repeatable (default: all)")
            p.add_argument("--dataset", choices=("mnist", "synthetic"),
                           default=None, help="training data source")
            p.add_argument("--mnist-dir", type=Path, default=None,
                           help="directory holding the four IDX files")
            p.add_argument("--rounds", type=int, default=None,
                           help="communication rounds")

    trials_help = {
        "coverage": "Monte-Carlo trials (0 = analytic only)",
        "validate": "Monte-Carlo trials (must be positive)",
    }

    specs = [
        ("coverage", cmd_coverage, False, "coverage vs height, analytic + Monte-Carlo"),
        ("train", cmd_training, True, "train one trajectory per aggregation rule"),
        ("sweep-e", cmd_training, True, "final accuracy vs local epoch count"),
        ("sweep-height", cmd_training, True, "final accuracy vs UAV height"),
        ("env-compare", cmd_training, True, "final accuracy per LOS environment"),
        ("validate", cmd_validate, False, "closed forms vs Monte-Carlo oracles"),
    ]
    for name, fn, data, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        add_common(p, data=data)
        if name in trials_help:
            p.add_argument("--trials", type=int, default=None, help=trials_help[name])
        p.set_defaults(fn=fn)
    return parser


#: glibc's ``mallopt`` parameters (``malloc.h``) and the values ``main`` sets:
#: blocks up to 8 MB come from the heap, and up to 64 MB of freed memory stays
#: mapped.  Setting the mmap threshold turns off glibc's dynamic threshold,
#: so both are set together.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEPT_MEMORY = {_M_MMAP_THRESHOLD: 8 << 20, _M_TRIM_THRESHOLD: 64 << 20}


def _keep_freed_memory() -> None:
    """Make this process reuse freed heap memory instead of returning it.

    Does nothing where the C library has no ``mallopt``.  The outputs do
    not depend on it: only where the allocator places blocks changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    for param, value in _KEPT_MEMORY.items():
        mallopt(param, value)


def main(argv: Sequence[str] | None = None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

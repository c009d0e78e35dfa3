"""Experiment runner: coverage sweeps, federated training, validation.

Subcommands map one-to-one onto the experiments:

- ``coverage``     analytic and Monte-Carlo coverage versus UAV height
- ``train``        loss/accuracy trajectories for each aggregation rule
- ``sweep-e``      final accuracy versus local epoch count
- ``sweep-height`` final training accuracy versus UAV height
- ``env-compare``  final training accuracy per LOS environment preset
- ``validate``     closed-form Laplace transforms and coverage against
                   Monte-Carlo oracles

Configs are YAML files whose sections mirror the dataclasses
(``network:``, ``quad:``, ``train:``, plus top-level keys); command-line
flags override file values.  Every CSV begins with ``#`` metadata lines
carrying the resolved-config hash and the seed, and contains no timestamps,
so rerunning an identical config produces identical bytes.  The default
output directory is taken from ``AERIALFL_OUT`` when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
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
from .channel import LinkType
from .data import DataBundle, load_mnist, synthetic_blobs
from .fl import AggregatorKind, TrainConfig, train
from .montecarlo import binomial_half_width, estimate_coverage, laplace_oracle
from .params import ENVIRONMENT_PRESETS, NetworkParams

__all__ = [
    "EnvironmentPreset",
    "ExperimentConfig",
    "OUTPUT_DIR_ENV",
    "build_parser",
    "environment_presets",
    "main",
]

OUTPUT_DIR_ENV = "AERIALFL_OUT"

#: Default sweep axes per subcommand.
COVERAGE_HEIGHTS = tuple(float(h) for h in range(20, 150, 5))
TRAINING_HEIGHTS = (25.0, 50.0, 120.0)
ENV_HEIGHTS = (25.0, 120.0)
EPOCH_VALUES = (1, 2, 3, 5, 10)

#: Training subcommands default to a small cluster that keeps q_k = M/N at
#: its full-scale value while finishing in minutes; ``coverage`` and
#: ``validate`` keep the full-scale network defaults.
DESK_SCALE_NETWORK = {"n_devices": 20, "n_resource_blocks": 18}
DESK_SCALE_SAMPLES = {"n_train": 10_000, "n_test": 2_000}


@dataclass(frozen=True)
class EnvironmentPreset:
    """Named (a, b) constant pair of the LOS-probability model."""

    name: str
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ValueError("environment constants must be positive")


def environment_presets() -> list[EnvironmentPreset]:
    """All shipped LOS environment presets, in a fixed order."""
    return [
        EnvironmentPreset(name=k, a=a, b=b)
        for k, (a, b) in ENVIRONMENT_PRESETS.items()
    ]


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
    workers: int

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if self.dataset not in ("synthetic", "mnist"):
            raise ValueError("dataset must be 'synthetic' or 'mnist'")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
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


def load_config(
    path: Path | None,
    args: argparse.Namespace,
    *,
    command: str,
    default_sweep: tuple,
    sweep_name: str,
) -> ExperimentConfig:
    """Merge YAML config (if any) with CLI overrides into a resolved config."""
    raw: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, Mapping):
            raise SystemExit(f"config file {path} must hold a mapping")
        raw = dict(loaded)

    training_command = command in ("train", "sweep-e", "sweep-height", "env-compare")
    network = _build_network(
        _coerce_section(raw.get("network"), "network"), desk_scale=training_command
    )
    quad = QuadratureSpec(**_coerce_section(raw.get("quad"), "quad"))

    seed = raw.get("seed", 0)
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    seed = int(seed)

    train_section = _coerce_section(raw.get("train"), "train")
    train_section["seed"] = seed
    if getattr(args, "rounds", None) is not None:
        train_section["rounds"] = args.rounds
    train_cfg = TrainConfig(**train_section)

    sweep_section = _coerce_section(raw.get("sweep"), "sweep")
    values = tuple(sweep_section.get("values", default_sweep))
    name = str(sweep_section.get("name", sweep_name))
    if name != sweep_name:
        raise SystemExit(
            f"subcommand '{command}' sweeps '{sweep_name}', not '{name}'"
        )

    trials = raw.get("trials", 5000)
    if getattr(args, "trials", None) is not None:
        trials = args.trials

    out_dir = raw.get("out", os.environ.get(OUTPUT_DIR_ENV, "results"))
    if getattr(args, "out", None) is not None:
        out_dir = args.out

    dataset = raw.get("dataset", "synthetic")
    if getattr(args, "dataset", None) is not None:
        dataset = args.dataset

    mnist_dir = raw.get("mnist_dir")
    if getattr(args, "mnist_dir", None) is not None:
        mnist_dir = args.mnist_dir

    agg_values = raw.get("aggregators", [k.value for k in AggregatorKind])
    if getattr(args, "aggregator", None):
        agg_values = args.aggregator
    aggregators = tuple(AggregatorKind(v) for v in agg_values)

    return ExperimentConfig(
        network=network,
        quad=quad,
        train=train_cfg,
        sweep_name=sweep_name,
        sweep_values=values,
        out_dir=Path(out_dir),
        trials=int(trials),
        seed=seed,
        dataset=str(dataset),
        mnist_dir=Path(mnist_dir) if mnist_dir is not None else None,
        aggregators=aggregators,
        n_train=int(raw.get("n_train", DESK_SCALE_SAMPLES["n_train"])),
        n_test=int(raw.get("n_test", DESK_SCALE_SAMPLES["n_test"])),
        dataset_seed=int(raw.get("dataset_seed", 12345)),
        workers=int(raw.get("workers", 1)),
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


def _map_pool(fn, items, workers: int):
    """Apply fn over items with a thread pool, preserving item order."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def cmd_coverage(args: argparse.Namespace) -> int:
    cfg = load_config(
        args.config,
        args,
        command="coverage",
        default_sweep=COVERAGE_HEIGHTS,
        sweep_name="height",
    )
    heights = sorted(float(h) for h in cfg.sweep_values)

    def one_height(item):
        index, h = item
        params = cfg.network.with_(height=h)
        try:
            analytic = cluster_average_success(params, cfg.quad)
            if cfg.trials > 0:
                rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index)))
                mc = estimate_coverage(params, cfg.trials, rng)
                mc_cols = [mc.p_joint, mc.p_ul, mc.p_dl, mc.half_width_95]
            else:
                mc_cols = [None, None, None, None]
            row = [h, analytic.j_joint, analytic.j_ul, analytic.j_dl, *mc_cols]
            return row, None
        except Exception as exc:  # noqa: BLE001 - row-level isolation
            return [h] + [None] * 7, f"partial-failure: height={_fmt(h)}: {exc}"

    results = _map_pool(one_height, list(enumerate(heights)), cfg.workers)
    rows = [row for row, _ in results]
    comments = [note for _, note in results if note]
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


def _run_kinds(cfg: ExperimentConfig, bundle: DataBundle, train_cfg: TrainConfig,
               network: NetworkParams):
    """Train each requested aggregator; per-kind failures isolate."""
    trajectories, comments = {}, []
    for kind in cfg.aggregators:
        try:
            trajectories[kind] = train(
                train_cfg, network, kind,
                bundle.train_x, bundle.train_y, bundle.test_x, bundle.test_y,
                cfg.quad,
            )
        except Exception as exc:  # noqa: BLE001 - kind-level isolation
            comments.append(f"partial-failure: kind={kind.value}: {exc}")
    return trajectories, comments


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(
        args.config, args, command="train",
        default_sweep=(), sweep_name="none",
    )
    bundle = load_dataset(cfg)
    trajectories, comments = _run_kinds(cfg, bundle, cfg.train, cfg.network)
    rows = []
    for kind in cfg.aggregators:
        result = trajectories.get(kind)
        if result is None:
            continue
        for rec in result.records:
            rows.append([rec.round, kind.value, rec.loss,
                         rec.train_accuracy, rec.test_accuracy])
    out = cfg.out_dir / "training.csv"
    write_csv(
        out,
        ["round", "kind", "loss", "train_acc", "test_acc"],
        rows,
        cfg.metadata("train"),
        comments,
    )
    print(f"wrote {out} ({len(rows)} rows)")
    return 1 if comments else 0


def cmd_sweep_e(args: argparse.Namespace) -> int:
    cfg = load_config(
        args.config, args, command="sweep-e",
        default_sweep=EPOCH_VALUES, sweep_name="epochs",
    )
    bundle = load_dataset(cfg)
    epochs = sorted(int(e) for e in cfg.sweep_values)
    if any(e < 1 for e in epochs):
        raise SystemExit("epoch values must be >= 1")
    rows, comments = [], []
    for e in epochs:
        train_cfg = dataclasses.replace(cfg.train, epochs=e)
        trajectories, notes = _run_kinds(cfg, bundle, train_cfg, cfg.network)
        comments += [f"{note} (E={e})" for note in notes]
        for kind in cfg.aggregators:
            if kind in trajectories:
                rows.append([e, kind.value, trajectories[kind].final_test_accuracy])
    out = cfg.out_dir / "epoch_sweep.csv"
    write_csv(out, ["E", "kind", "final_test_acc"], rows,
              cfg.metadata("sweep-e"), comments)
    print(f"wrote {out} ({len(rows)} rows)")
    return 1 if comments else 0


def cmd_sweep_height(args: argparse.Namespace) -> int:
    cfg = load_config(
        args.config, args, command="sweep-height",
        default_sweep=TRAINING_HEIGHTS, sweep_name="height",
    )
    bundle = load_dataset(cfg)
    heights = sorted(float(h) for h in cfg.sweep_values)
    rows, comments = [], []
    for h in heights:
        network = cfg.network.with_(height=h)
        trajectories, notes = _run_kinds(cfg, bundle, cfg.train, network)
        comments += [f"{note} (h={_fmt(h)})" for note in notes]
        for kind in cfg.aggregators:
            if kind in trajectories:
                result = trajectories[kind]
                rows.append([h, kind.value, result.final_test_accuracy,
                             result.records[-1].loss])
    out = cfg.out_dir / "height_sweep.csv"
    write_csv(out, ["h", "kind", "final_test_acc", "final_loss"], rows,
              cfg.metadata("sweep-height"), comments)
    print(f"wrote {out} ({len(rows)} rows)")
    return 1 if comments else 0


def cmd_env_compare(args: argparse.Namespace) -> int:
    cfg = load_config(
        args.config, args, command="env-compare",
        default_sweep=ENV_HEIGHTS, sweep_name="height",
    )
    bundle = load_dataset(cfg)
    heights = sorted(float(h) for h in cfg.sweep_values)
    rows, comments = [], []
    for preset in environment_presets():
        for h in heights:
            network = cfg.network.with_(env_a=preset.a, env_b=preset.b, height=h)
            trajectories, notes = _run_kinds(cfg, bundle, cfg.train, network)
            comments += [f"{note} (env={preset.name}, h={_fmt(h)})" for note in notes]
            for kind in cfg.aggregators:
                if kind in trajectories:
                    result = trajectories[kind]
                    rows.append([preset.name, h, kind.value,
                                 result.final_test_accuracy,
                                 result.records[-1].loss])
    out = cfg.out_dir / "environment_compare.csv"
    write_csv(out, ["environment", "h", "kind", "final_test_acc", "final_loss"],
              rows, cfg.metadata("env-compare"), comments)
    print(f"wrote {out} ({len(rows)} rows)")
    return 1 if comments else 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(
        args.config, args, command="validate",
        default_sweep=(45.0, 120.0), sweep_name="height",
    )
    if cfg.trials == 0:
        raise SystemExit("validate compares against Monte-Carlo oracles; --trials must be positive")
    trials = cfg.trials
    failures = 0
    r_k = 50.0
    transforms = {"dl": laplace_dl, "ul": laplace_ul}
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
                        f"laplace_{direction} h={h:g} {link.name} j={j}: "
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
        p.add_argument("--trials", type=int, default=None,
                       help="Monte-Carlo trials (0 = analytic only)")
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

    specs = [
        ("coverage", cmd_coverage, False, "coverage vs height, analytic + Monte-Carlo"),
        ("train", cmd_train, True, "train one trajectory per aggregation rule"),
        ("sweep-e", cmd_sweep_e, True, "final accuracy vs local epoch count"),
        ("sweep-height", cmd_sweep_height, True, "final accuracy vs UAV height"),
        ("env-compare", cmd_env_compare, True, "final accuracy per LOS environment"),
        ("validate", cmd_validate, False, "closed forms vs Monte-Carlo oracles"),
    ]
    for name, fn, data, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        add_common(p, data=data)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
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

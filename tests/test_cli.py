"""Command-line interface: config resolution, CSV outputs, determinism."""

import ctypes
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import yaml
import numpy as np
import pytest

from aerialfl import cli, montecarlo
from aerialfl.cli import (
    OUTPUT_DIR_ENV,
    _environment_points,
    _keep_freed_memory,
    build_parser,
    load_config,
    main,
    write_csv,
)

FAST_QUAD = {"rel_tol": 1e-6, "abs_tol": 1e-10}
SMALL_NETWORK = {"n_devices": 4, "n_resource_blocks": 3}
SMALL_DATA = {"n_train": 80, "n_test": 20}


def _write_config(path, extra):
    payload = {"quad": dict(FAST_QUAD), **extra}
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


def test_write_csv_layout_and_determinism(tmp_path):
    target = tmp_path / "sub" / "out.csv"
    meta = {"generator": "aerialfl test", "seed": "3"}
    rows = [[1, "joint", 0.25, None], [2, "fedavg", 1.0 / 3.0, 0.5]]
    write_csv(target, ["round", "kind", "value", "extra"], rows, meta,
              comments=("note one",))
    first = target.read_bytes()
    write_csv(target, ["round", "kind", "value", "extra"], rows, meta,
              comments=("note one",))
    assert target.read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "# generator: aerialfl test"
    assert lines[1] == "# seed: 3"
    assert lines[2] == "# note one"
    assert lines[3] == "round,kind,value,extra"
    assert lines[4] == "1,joint,0.25,"  # None becomes an empty cell
    assert lines[5].startswith("2,fedavg,0.3333333333")


def test_parser_exposes_all_subcommands():
    parser = build_parser()
    for name in ("coverage", "train", "sweep-e", "sweep-height",
                 "env-compare", "validate"):
        args = parser.parse_args([name])
        assert args.command == name
    # Data flags only exist on the training subcommands.
    with pytest.raises(SystemExit):
        parser.parse_args(["coverage", "--dataset", "synthetic"])
    args = parser.parse_args(
        ["train", "--aggregator", "joint", "--aggregator", "fedavg"]
    )
    assert args.aggregator == ["joint", "fedavg"]


def test_environment_presets_are_the_four_references(tmp_path):
    # ``env-compare`` trains once per preset, in the preset table's order.
    config = _write_config(
        tmp_path / "cfg.yaml", {"sweep": {"name": "height", "values": [45.0]}}
    )
    cfg = load_config(config, build_parser().parse_args(["env-compare"]))
    presets = {labels[0]: (net.env_a, net.env_b)
               for labels, _, net, _ in _environment_points(cfg)}
    assert presets["urban"] == (9.61, 0.16)
    assert list(presets) == ["suburban", "urban", "dense-urban", "high-rise"]


def test_coverage_analytic_only_reruns_byte_identical(tmp_path):
    config = _write_config(
        tmp_path / "cfg.yaml",
        {"sweep": {"name": "height", "values": [45.0]}, "trials": 0},
    )
    outputs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code = main(["coverage", "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        outputs.append((out_dir / "coverage.csv").read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().splitlines()
    assert lines[-1].startswith("45,")
    # trials = 0 leaves the four Monte-Carlo cells empty.
    assert lines[-1].endswith(",,,,")


def test_coverage_notes_a_monte_carlo_batch_that_fails(tmp_path, monkeypatch):
    """A batch raising on a worker thread fails its height's row only."""
    coverage_batch = montecarlo._coverage_batch

    def fail_batch_2_at_60(params, n_trials, rng):
        if params.height == 60.0 and rng.bit_generator.seed_seq.spawn_key == (2,):
            raise FloatingPointError("batch 2 failed")
        return coverage_batch(params, n_trials, rng)

    monkeypatch.setattr(montecarlo, "_coverage_batch", fail_batch_2_at_60)
    config = _write_config(
        tmp_path / "cfg.yaml",
        {"sweep": {"name": "height", "values": [45.0, 60.0]}, "trials": 3 * montecarlo._BATCH},
    )
    out_dir = tmp_path / "out"
    assert main(["coverage", "--config", str(config), "--out", str(out_dir)]) == 1
    lines = (out_dir / "coverage.csv").read_text().splitlines()
    assert [l for l in lines if l.startswith("# partial-failure")] == [
        "# partial-failure: height=60: batch 2 failed"
    ]
    assert lines[-1] == "60,,,,,,,"
    assert all(lines[-2].split(","))


def test_coverage_with_trials_fills_mc_columns(tmp_path):
    config = _write_config(
        tmp_path / "cfg.yaml",
        {"sweep": {"name": "height", "values": [45.0]}, "trials": 400},
    )
    out_dir = tmp_path / "out"
    assert main(["coverage", "--config", str(config), "--out", str(out_dir)]) == 0
    last = (out_dir / "coverage.csv").read_text().splitlines()[-1]
    cells = last.split(",")
    assert len(cells) == 8
    assert all(cell for cell in cells)
    analytic_joint, mc_joint = float(cells[1]), float(cells[4])
    assert abs(analytic_joint - mc_joint) < 0.15


def test_train_zero_rounds_writes_single_row_per_kind(tmp_path, monkeypatch):
    out_dir = tmp_path / "from-env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(out_dir))
    config = _write_config(
        tmp_path / "cfg.yaml", {"network": SMALL_NETWORK, **SMALL_DATA}
    )
    code = main([
        "train", "--config", str(config), "--rounds", "0",
        "--aggregator", "joint",
    ])
    assert code == 0
    lines = (out_dir / "training.csv").read_text().splitlines()
    data_rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(data_rows) == 1
    assert data_rows[0].startswith("0,joint,")


def test_seed_flag_overrides_config_seed(tmp_path):
    config = _write_config(
        tmp_path / "cfg.yaml",
        {"network": SMALL_NETWORK, "seed": 5, **SMALL_DATA},
    )
    out_dir = tmp_path / "out"
    code = main([
        "train", "--config", str(config), "--seed", "7", "--rounds", "0",
        "--aggregator", "joint", "--out", str(out_dir),
    ])
    assert code == 0
    header = (out_dir / "training.csv").read_text().splitlines()
    assert "# seed: 7" in header[:3]


def test_mnist_dataset_requires_directory(tmp_path):
    config = _write_config(
        tmp_path / "cfg.yaml", {"network": SMALL_NETWORK, **SMALL_DATA}
    )
    with pytest.raises(SystemExit, match="mnist-dir"):
        main([
            "train", "--config", str(config), "--dataset", "mnist",
            "--rounds", "0", "--out", str(tmp_path / "out"),
        ])


def test_sweep_name_mismatch_is_rejected(tmp_path):
    config = _write_config(
        tmp_path / "cfg.yaml", {"sweep": {"name": "epochs", "values": [1]}}
    )
    with pytest.raises(SystemExit, match="sweeps 'height'"):
        main(["coverage", "--config", str(config)])


#: Per training command: output CSV, columns, a ``sweep:`` section and the
#: leading cells of each grid point in the order rows must appear.
TRAINING_RUNS = {
    "train": (
        "training.csv", "round,kind,loss,train_acc,test_acc", None, None,
    ),
    "sweep-e": (
        "epoch_sweep.csv", "E,kind,final_test_acc",
        {"name": "epochs", "values": [2, 1]}, [["1"], ["2"]],
    ),
    "sweep-height": (
        "height_sweep.csv", "h,kind,final_test_acc,final_loss",
        {"name": "height", "values": [120.0, 45.0]}, [["45"], ["120"]],
    ),
    "env-compare": (
        "environment_compare.csv", "environment,h,kind,final_test_acc,final_loss",
        {"name": "height", "values": [45.0]},
        [[env, "45"] for env in ("suburban", "urban", "dense-urban", "high-rise")],
    ),
}


@pytest.mark.parametrize("command", list(TRAINING_RUNS))
def test_training_commands_write_grid_by_kind_rows(tmp_path, command):
    csv_name, columns, sweep, points = TRAINING_RUNS[command]
    extra = {"network": SMALL_NETWORK, "train": {"rounds": 1}, **SMALL_DATA}
    if sweep is not None:
        extra["sweep"] = sweep
    config = _write_config(tmp_path / "cfg.yaml", extra)
    kinds = ["joint", "fedavg"]
    outputs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        argv = [command, "--config", str(config), "--out", str(out_dir)]
        for kind in kinds:
            argv += ["--aggregator", kind]
        assert main(argv) == 0
        outputs.append((out_dir / csv_name).read_bytes())
    assert outputs[0] == outputs[1]
    lines = [l for l in outputs[0].decode().splitlines() if not l.startswith("#")]
    assert lines[0] == columns
    width = len(columns.split(","))
    if points is None:
        # ``train`` writes one row per round (0..rounds), kind by kind.
        expected = [[str(r), kind] for kind in kinds for r in (0, 1)]
    else:
        expected = [[*point, kind] for point in points for kind in kinds]
    cells = [line.split(",") for line in lines[1:]]
    assert [row[: len(e)] for row, e in zip(cells, expected)] == expected
    assert len(cells) == len(expected)
    assert all(len(row) == width and all(row) for row in cells)


#: Note suffix each training command appends to a failure at the first
#: grid point of the configs below.
FAILURE_SUFFIXES = {
    "train": "",
    "sweep-e": " (E=1)",
    "sweep-height": " (h=45)",
    "env-compare": " (env=suburban, h=45)",
}


@pytest.mark.parametrize("command", list(FAILURE_SUFFIXES))
def test_partial_failure_is_reported_not_fatal(tmp_path, command):
    """A broken model name spoils one kind, not the whole run."""
    extra = {
        "network": SMALL_NETWORK,
        "train": {"model": "transformer", "rounds": 1},
        **SMALL_DATA,
    }
    if command != "train":
        extra["sweep"] = {"values": [1] if command == "sweep-e" else [45.0]}
    config = _write_config(tmp_path / "cfg.yaml", extra)
    out_dir = tmp_path / "out"
    code = main([
        command, "--config", str(config), "--aggregator", "joint",
        "--out", str(out_dir),
    ])
    assert code == 1
    csv_name = TRAINING_RUNS[command][0]
    notes = [
        l for l in (out_dir / csv_name).read_text().splitlines()
        if l.startswith("# partial-failure")
    ]
    assert notes[0] == (
        "# partial-failure: kind=joint: unknown model 'transformer'"
        + FAILURE_SUFFIXES[command]
    )


@pytest.mark.parametrize("command", list(TRAINING_RUNS))
def test_training_commands_offer_no_trials_flag(command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--trials", "7"])


def test_yaml_trials_leaves_training_csv_unchanged(tmp_path):
    # Training never reads ``trials``, so it must not move the config hash.
    outputs = []
    for sub, extra in (("plain", {}), ("trials", {"trials": 7})):
        config = _write_config(
            tmp_path / f"{sub}.yaml", {"network": SMALL_NETWORK, **SMALL_DATA, **extra}
        )
        out_dir = tmp_path / sub
        code = main([
            "train", "--config", str(config), "--rounds", "0",
            "--aggregator", "joint", "--out", str(out_dir),
        ])
        assert code == 0
        outputs.append((out_dir / "training.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_training_keys_leave_coverage_csv_unchanged(tmp_path):
    # ``coverage`` reads no training field, so none may move the config hash.
    training = {"train": {"epochs": 5}, "aggregators": ["joint"], "n_train": 500}
    outputs = []
    for sub, extra in (("plain", {}), ("training", training)):
        config = _write_config(
            tmp_path / f"{sub}.yaml",
            {"sweep": {"values": [45.0]}, "trials": 0, **extra},
        )
        out_dir = tmp_path / sub
        assert main(["coverage", "--config", str(config), "--out", str(out_dir)]) == 0
        outputs.append((out_dir / "coverage.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "extra, names",
    [
        ({"trails": 10}, ["trails"]),
        ({"rounds": 2, "sead": 1}, ["rounds", "sead"]),
        ({"sweep": {"name": "height", "value": [45.0]}}, ["sweep: value"]),
    ],
)
def test_unknown_config_keys_are_rejected(tmp_path, extra, names):
    config = _write_config(tmp_path / "cfg.yaml", extra)
    with pytest.raises(SystemExit) as excinfo:
        main(["coverage", "--config", str(config), "--out", str(tmp_path / "out")])
    for name in names:
        assert name in str(excinfo.value)


def test_sweep_section_is_rejected_where_nothing_is_swept(tmp_path):
    # ``train`` has no grid; a ``sweep:`` section would only move its hash.
    config = _write_config(tmp_path / "cfg.yaml", {"sweep": {"values": [45.0]}})
    parser = build_parser()
    with pytest.raises(SystemExit, match="sweeps nothing"):
        load_config(config, parser.parse_args(["train"]))
    assert load_config(config, parser.parse_args(["sweep-height"])).sweep_values == (45.0,)


def test_trials_help_matches_each_command(capsys):
    parser = build_parser()
    helps = {}
    for command in ("coverage", "validate"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps[command] = " ".join(capsys.readouterr().out.split())
    assert "0 = analytic only" in helps["coverage"]
    assert "must be positive" in helps["validate"]
    assert "analytic only" not in helps["validate"]


def test_readme_example_config_loads_for_every_subcommand(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = yaml.safe_load(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
    assert "trials" in example
    parser = build_parser()
    for command in ("coverage", "train", "sweep-e", "sweep-height",
                    "env-compare", "validate"):
        raw = dict(example)
        if command in ("train", "sweep-e"):
            del raw["sweep"]  # the example sweeps height
        config = tmp_path / f"{command}.yaml"
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        cfg = load_config(config, parser.parse_args([command]))
        assert cfg.network.height == 60.0


def test_config_errors_exit_with_code_two(tmp_path):
    config = _write_config(tmp_path / "cfg.yaml", {"trials": -5})
    assert main(["coverage", "--config", str(config)]) == 2


def test_validate_rejects_zero_trials(tmp_path, capfd):
    # ``validate`` has no analytic-only mode; zero trials must not silently
    # fall back to some other count.
    with pytest.raises(SystemExit, match="trials must be positive"):
        main(["validate", "--trials", "0", "--out", str(tmp_path / "out")])
    assert capfd.readouterr().out == ""


def test_validate_smoke_passes(tmp_path, capfd):
    config = _write_config(
        tmp_path / "cfg.yaml",
        {"sweep": {"name": "height", "values": [45.0]}, "trials": 400},
    )
    code = main(["validate", "--config", str(config)])
    out = capfd.readouterr().out
    assert "validate: PASS" in out
    assert code == 0
    assert out.count("laplace_dl") == 4  # j = 1..3 LOS, j = 1 NLOS
    assert out.count("laplace_ul") == 4


@pytest.mark.parametrize(
    "command", ["coverage", "sweep-e", "sweep-height", "env-compare", "validate"]
)
def test_empty_sweep_is_rejected(tmp_path, command):
    # Zero grid points would print PASS or write a header-only CSV and exit 0.
    config = _write_config(tmp_path / "cfg.yaml", {"sweep": {"values": []}})
    with pytest.raises(SystemExit, match="at least one sweep value"):
        main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [2.5, 2.0, "2", True, 0])
def test_epoch_sweep_rejects_non_integer_epochs(tmp_path, bad):
    # E=2.5 used to train E=2 and write "2" while the hash recorded 2.5.
    config = _write_config(
        tmp_path / "cfg.yaml", {"sweep": {"values": [1, bad]}, **SMALL_DATA}
    )
    with pytest.raises(SystemExit, match="integers >= 1"):
        main(["sweep-e", "--config", str(config), "--rounds", "0",
              "--out", str(tmp_path / "out")])


#: The integer fields of the resolved config, per section (None: top level).
INTEGER_FIELDS = {
    None: ("trials", "seed", "n_train", "n_test", "dataset_seed"),
    "train": ("epochs", "batch_size", "rounds", "seed", "shards_per_device"),
    "network": ("n_devices", "n_resource_blocks", "m_los", "m_nlos"),
    "quad": ("max_subdivisions",),
}


def _default_config():
    return load_config(None, build_parser().parse_args(["train"]))


def test_integer_fields_are_every_int_field():
    cfg = _default_config()
    for section, names in INTEGER_FIELDS.items():
        obj = cfg if section is None else getattr(cfg, section)
        declared = {f.name for f in dataclasses.fields(obj) if f.type == "int"}
        assert declared == set(names)


@pytest.mark.parametrize("bad", [2.0, True])
@pytest.mark.parametrize(
    "section,name",
    [(section, name) for section, names in INTEGER_FIELDS.items() for name in names],
)
def test_integer_fields_reject_floats_and_booleans(section, name, bad):
    cfg = _default_config()
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        if section is None:
            dataclasses.replace(cfg, **{name: bad})
        else:
            dataclasses.replace(getattr(cfg, section), **{name: bad})


#: The real-valued fields of the resolved config, per section.
REAL_FIELDS = {
    "train": ("eta0", "lr_decay"),
    "network": (
        "lam", "cluster_radius", "height", "p_uav", "p_device", "alpha_los",
        "alpha_nlos", "noise_power", "env_a", "env_b", "tau_dl", "tau_ul",
        "gain_main_uav", "gain_main_device", "gain_side_uav",
        "gain_side_device", "beamwidth_uav", "beamwidth_device",
        "sim_window_radius",
    ),
    "quad": ("rel_tol", "abs_tol", "truncation_radius"),
}


def test_real_fields_are_every_float_field():
    cfg = _default_config()
    assert not any("float" in f.type for f in dataclasses.fields(cfg))
    for section, names in REAL_FIELDS.items():
        obj = getattr(cfg, section)
        declared = {f.name for f in dataclasses.fields(obj) if "float" in f.type}
        assert declared == set(names)


@pytest.mark.parametrize("bad", [True, math.nan, math.inf, "1.0"])
@pytest.mark.parametrize(
    "section,name",
    [(section, name) for section, names in REAL_FIELDS.items() for name in names],
)
def test_real_fields_reject_booleans_and_non_finite_values(section, name, bad):
    obj = getattr(_default_config(), section)
    with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
        dataclasses.replace(obj, **{name: bad})


def test_real_fields_take_integers_as_they_are():
    # No coercion: an int stays an int, so no config hash moves. The default
    # config already holds None for the two optional radii.
    cfg = _default_config()
    assert cfg.network.sim_window_radius is None
    assert cfg.quad.truncation_radius is None
    for section, name in (("network", "height"), ("quad", "truncation_radius"),
                          ("train", "eta0")):
        value = getattr(dataclasses.replace(getattr(cfg, section), **{name: 450}), name)
        assert type(value) is int and value == 450


@pytest.mark.parametrize(
    "extra",
    [
        {"quad": {"rel_tol": math.nan}},  # wrote a different analytic_joint
        {"quad": {"rel_tol": True}},  # ran with a tolerance of 1
        {"network": {"env_b": True}},  # ran the LOS model with b = 1
    ],
)
def test_config_reals_reject_booleans_and_nan(tmp_path, capfd, extra):
    config = _write_config(
        tmp_path / "cfg.yaml", {"sweep": {"values": [45.0]}, "trials": 0, **extra}
    )
    out_dir = tmp_path / "out"
    assert main(["coverage", "--config", str(config), "--out", str(out_dir)]) == 2
    assert "must be a finite real number" in capfd.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command,extra",
    [
        ("coverage", {"seed": 1.7}),  # ran seed 1 and wrote "# seed: 1"
        ("coverage", {"trials": True}),  # ran a 1-trial Monte Carlo
        ("train", {"train": {"epochs": True}}),  # trained 1 epoch
        ("train", {"n_train": 400.9}),  # used 400 rows
    ],
)
def test_config_integers_are_not_coerced(tmp_path, capfd, command, extra):
    config = _write_config(tmp_path / "cfg.yaml", {**SMALL_DATA, **extra})
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out_dir)]) == 2
    assert "must be an integer" in capfd.readouterr().err
    assert not out_dir.exists()


class _FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_keep_freed_memory_sets_both_thresholds(monkeypatch):
    libc = _FakeLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    _keep_freed_memory()
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h.
    assert sorted(libc.calls) == [(-3, 8 << 20), (-1, 64 << 20)]


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()])
def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert _keep_freed_memory() is None


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


#: Runs ``cli.main`` on the command line it is given and prints its exit
#: code and the minor page faults taken inside it.
_FAULT_PROBE = """
import resource, sys
from aerialfl import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = cli.main(sys.argv[1:])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_monte_carlo_batches_reuse_freed_memory(tmp_path):
    # Each 2,048-trial batch frees and reallocates per-link arrays of about
    # 1.6 MB.  With glibc's default thresholds every one is a fresh mapping
    # that faults on first touch: about 24,000 minor faults for this run.
    # Kept in the process, the memory is reused: about 6,000.
    config = _write_config(tmp_path / "h45.yaml", {"sweep": {"values": [45.0]}})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, "coverage", "--trials", "5000",
         "--seed", "3", "--config", str(config), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    rc, faults = map(int, proc.stdout.split()[-2:])
    assert rc == 0
    assert faults < 12_000

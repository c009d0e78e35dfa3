"""Command-line interface: config resolution, CSV outputs, determinism."""

import yaml
import numpy as np
import pytest

from aerialfl.cli import (
    OUTPUT_DIR_ENV,
    build_parser,
    environment_presets,
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


def test_environment_presets_are_the_four_references():
    presets = {p.name: (p.a, p.b) for p in environment_presets()}
    assert presets["urban"] == (9.61, 0.16)
    assert set(presets) == {"suburban", "urban", "dense-urban", "high-rise"}


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


def test_partial_failure_is_reported_not_fatal(tmp_path):
    """A broken model name spoils one kind, not the whole run."""
    config = _write_config(
        tmp_path / "cfg.yaml",
        {
            "network": SMALL_NETWORK,
            "train": {"model": "transformer", "rounds": 1},
            **SMALL_DATA,
        },
    )
    out_dir = tmp_path / "out"
    code = main([
        "train", "--config", str(config), "--aggregator", "joint",
        "--out", str(out_dir),
    ])
    assert code == 1
    content = (out_dir / "training.csv").read_text()
    assert "partial-failure: kind=joint" in content


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

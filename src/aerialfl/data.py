"""Dataset ingestion: MNIST IDX files plus a synthetic no-download fallback."""
from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["DataBundle", "load_mnist", "read_idx_images", "read_idx_labels", "synthetic_blobs"]

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class DataBundle:
    """Train/test feature matrices with integer labels."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self):
        if self.train_x.ndim != 2 or self.test_x.ndim != 2:
            raise ValueError("features must be 2-D (samples x features)")
        if self.train_x.shape[0] != self.train_y.shape[0]:
            raise ValueError("train features and labels must align")
        if self.test_x.shape[0] != self.test_y.shape[0]:
            raise ValueError("test features and labels must align")
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise ValueError("train and test feature dimensions must match")
        if np.any(self.train_y < 0) or np.any(self.test_y < 0):
            raise ValueError("labels must be non-negative integers")

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]

    @property
    def n_classes(self) -> int:
        return int(max(self.train_y.max(), self.test_y.max())) + 1

    def limited(self, n_train: int, n_test: int) -> "DataBundle":
        """First-n subsets, for desk-scale runs."""
        return DataBundle(
            train_x=self.train_x[:n_train],
            train_y=self.train_y[:n_train],
            test_x=self.test_x[:n_test],
            test_y=self.test_y[:n_test],
        )


def _open_binary(path: Path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_header(fh, path, fmt: str) -> tuple[int, ...]:
    """Unpack the big-endian IDX header ``fmt``; short files raise ValueError."""
    size = struct.calcsize(fmt)
    head = fh.read(size)
    if len(head) != size:
        raise ValueError(f"{path}: truncated header")
    return struct.unpack(fmt, head)


def read_idx_images(path) -> np.ndarray:
    """Images from an IDX3 file as floats in [0, 1], one row per image."""
    with _open_binary(Path(path)) as fh:
        magic, count, rows, cols = _read_header(fh, path, ">IIII")
        if magic != IMAGES_MAGIC:
            raise ValueError(f"{path}: bad images magic 0x{magic:08x}")
        raw = fh.read(count * rows * cols)
    if len(raw) != count * rows * cols:
        raise ValueError(f"{path}: truncated image payload")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    return pixels.astype(np.float64) / 255.0


def read_idx_labels(path) -> np.ndarray:
    """Labels from an IDX1 file as int64."""
    with _open_binary(Path(path)) as fh:
        magic, count = _read_header(fh, path, ">II")
        if magic != LABELS_MAGIC:
            raise ValueError(f"{path}: bad labels magic 0x{magic:08x}")
        raw = fh.read(count)
    if len(raw) != count:
        raise ValueError(f"{path}: truncated label payload")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def _find(directory: Path, stem: str) -> Path:
    for name in (stem, stem + ".gz"):
        candidate = directory / name
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"missing {stem}[.gz] under {directory}")


def load_mnist(directory) -> DataBundle:
    """The four standard IDX files (optionally gzipped) from one directory."""
    directory = Path(directory)
    return DataBundle(
        train_x=read_idx_images(_find(directory, "train-images-idx3-ubyte")),
        train_y=read_idx_labels(_find(directory, "train-labels-idx1-ubyte")),
        test_x=read_idx_images(_find(directory, "t10k-images-idx3-ubyte")),
        test_y=read_idx_labels(_find(directory, "t10k-labels-idx1-ubyte")),
    )


def synthetic_blobs(
    n_train: int,
    n_test: int,
    rng: np.random.Generator,
    *,
    n_classes: int = 10,
    n_features: int = 784,
    separation: float = 3.0,
) -> DataBundle:
    """Gaussian class blobs matching MNIST's shape, for download-free runs.

    Class means sit at distance ``separation`` from the origin in random
    directions; unit isotropic noise keeps the Bayes error small but
    nonzero, so channel-induced aggregation bias shows up in accuracy.
    """
    if n_train < n_classes or n_test < 1:
        raise ValueError("need at least one training sample per class")
    means = rng.normal(size=(n_classes, n_features))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)

    def draw(n):
        labels = rng.integers(n_classes, size=n)
        feats = means[labels] + rng.normal(size=(n, n_features))
        return feats, labels

    train_x, train_y = draw(n_train)
    test_x, test_y = draw(n_test)
    return DataBundle(train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y)

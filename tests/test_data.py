"""IDX ingestion and the synthetic no-download dataset."""

import gzip
import struct

import numpy as np
import pytest

from aerialfl.data import (
    DataBundle,
    load_mnist,
    read_idx_images,
    read_idx_labels,
    synthetic_blobs,
)

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def _idx_images_bytes(pixels: np.ndarray) -> bytes:
    count, rows, cols = pixels.shape
    return struct.pack(">IIII", IMAGES_MAGIC, count, rows, cols) + pixels.tobytes()


def _idx_labels_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", LABELS_MAGIC, labels.size) + labels.tobytes()


@pytest.fixture
def toy_pixels(rng):
    return rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)


def test_idx_images_round_trip(tmp_path, toy_pixels):
    path = tmp_path / "imgs-idx3-ubyte"
    path.write_bytes(_idx_images_bytes(toy_pixels))
    out = read_idx_images(path)
    assert out.shape == (7, 12)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, toy_pixels.reshape(7, 12) / 255.0)


def test_idx_images_gzip_round_trip(tmp_path, toy_pixels):
    path = tmp_path / "imgs-idx3-ubyte.gz"
    with gzip.open(path, "wb") as fh:
        fh.write(_idx_images_bytes(toy_pixels))
    out = read_idx_images(path)
    np.testing.assert_array_equal(out, toy_pixels.reshape(7, 12) / 255.0)


def test_idx_labels_round_trip(tmp_path, rng):
    labels = rng.integers(0, 10, size=23, dtype=np.uint8)
    path = tmp_path / "labels-idx1-ubyte"
    path.write_bytes(_idx_labels_bytes(labels))
    out = read_idx_labels(path)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, labels.astype(np.int64))


def test_idx_rejects_wrong_magic(tmp_path, toy_pixels):
    images = tmp_path / "bad-images"
    images.write_bytes(
        struct.pack(">IIII", LABELS_MAGIC, 7, 4, 3) + toy_pixels.tobytes()
    )
    with pytest.raises(ValueError, match="magic"):
        read_idx_images(images)
    labels = tmp_path / "bad-labels"
    labels.write_bytes(struct.pack(">II", IMAGES_MAGIC, 9) + bytes(9))
    with pytest.raises(ValueError, match="magic"):
        read_idx_labels(labels)


def test_idx_rejects_truncated_payload(tmp_path, toy_pixels):
    blob = _idx_images_bytes(toy_pixels)
    path = tmp_path / "short"
    path.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="truncated"):
        read_idx_images(path)
    lab = tmp_path / "short-labels"
    lab.write_bytes(_idx_labels_bytes(np.arange(9, dtype=np.uint8))[:-2])
    with pytest.raises(ValueError, match="truncated"):
        read_idx_labels(lab)
    # A file shorter than its header names the path instead of escaping as
    # struct.error.
    stub = tmp_path / "stub"
    stub.write_bytes(blob[:3])
    for reader in (read_idx_images, read_idx_labels):
        with pytest.raises(ValueError, match="stub: truncated header"):
            reader(stub)


def test_load_mnist_reads_the_four_standard_files(tmp_path, rng):
    train = rng.integers(0, 256, size=(12, 5, 5), dtype=np.uint8)
    test = rng.integers(0, 256, size=(5, 5, 5), dtype=np.uint8)
    train_y = rng.integers(0, 10, size=12, dtype=np.uint8)
    test_y = rng.integers(0, 10, size=5, dtype=np.uint8)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(_idx_images_bytes(train))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(_idx_labels_bytes(train_y))
    with gzip.open(tmp_path / "t10k-images-idx3-ubyte.gz", "wb") as fh:
        fh.write(_idx_images_bytes(test))
    (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(_idx_labels_bytes(test_y))
    bundle = load_mnist(tmp_path)
    assert bundle.train_x.shape == (12, 25)
    assert bundle.test_x.shape == (5, 25)
    np.testing.assert_array_equal(bundle.train_y, train_y.astype(np.int64))
    assert bundle.n_features == 25


def test_load_mnist_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="train-images"):
        load_mnist(tmp_path)


def test_synthetic_blobs_shapes_and_determinism():
    a = synthetic_blobs(200, 40, np.random.default_rng(12345))
    b = synthetic_blobs(200, 40, np.random.default_rng(12345))
    assert a.train_x.shape == (200, 784)
    assert a.test_x.shape == (40, 784)
    assert a.n_classes == 10
    np.testing.assert_array_equal(a.train_x, b.train_x)
    np.testing.assert_array_equal(a.test_y, b.test_y)
    assert set(np.unique(a.train_y)) == set(range(10))


def test_synthetic_blobs_validation(rng):
    with pytest.raises(ValueError):
        synthetic_blobs(5, 10, rng)  # fewer samples than classes
    with pytest.raises(ValueError):
        synthetic_blobs(100, 0, rng)


def test_synthetic_blobs_is_linearly_separable_enough(rng):
    """The default separation keeps a linear model clearly above chance."""
    bundle = synthetic_blobs(600, 200, rng, n_features=32, n_classes=5)
    from aerialfl.models import multinomial_logistic

    model = multinomial_logistic(32, 5)
    w = model.init(None)
    for _ in range(60):
        _, grad = model.loss_and_grad(w, bundle.train_x, bundle.train_y)
        w = w - 0.5 * grad
    accuracy = float(
        (model.predict(w, bundle.test_x) == bundle.test_y).mean()
    )
    assert accuracy > 0.6


def test_data_bundle_validation(rng):
    x = rng.normal(size=(10, 3))
    y = np.zeros(10, dtype=int)
    tx = rng.normal(size=(4, 3))
    ty = np.zeros(4, dtype=int)
    bundle = DataBundle(train_x=x, train_y=y, test_x=tx, test_y=ty)
    assert bundle.n_features == 3
    assert bundle.n_classes == 1
    with pytest.raises(ValueError, match="2-D"):
        DataBundle(train_x=x.ravel(), train_y=y, test_x=tx, test_y=ty)
    with pytest.raises(ValueError, match="align"):
        DataBundle(train_x=x, train_y=y[:-1], test_x=tx, test_y=ty)
    with pytest.raises(ValueError, match="dimensions"):
        DataBundle(train_x=x, train_y=y, test_x=tx[:, :2], test_y=ty)
    with pytest.raises(ValueError, match="non-negative"):
        DataBundle(train_x=x, train_y=y - 1, test_x=tx, test_y=ty)


def test_data_bundle_limited():
    x = np.arange(20.0).reshape(10, 2)
    y = np.arange(10)
    bundle = DataBundle(train_x=x, train_y=y, test_x=x, test_y=y)
    cut = bundle.limited(4, 6)
    assert cut.train_x.shape == (4, 2)
    assert cut.test_x.shape == (6, 2)
    np.testing.assert_array_equal(cut.train_y, np.arange(4))
    full = bundle.limited(100, 100)  # a limit beyond the data keeps it all
    assert full.train_x.shape == (10, 2)
    assert full.test_x.shape == (10, 2)

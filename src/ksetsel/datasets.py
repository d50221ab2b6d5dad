"""Datasets and label corruption.

A Dataset keeps both the true labels and the assigned (possibly
corrupted) labels; selectors and learners only ever see the assigned
ones, while the true labels back precision metrics and test accuracy.

Noise models:
  symmetric(rate)   exactly floor(rate * n) samples, chosen uniformly
                    without replacement, are flipped to a uniformly
                    random *different* class, so every flipped label
                    is wrong.
  asymmetric(rate)  labels whose class is a key of default_pair_map(C)
                    flip to its partner class independently with
                    probability rate; other classes never flip.  The
                    map covers exactly ceil(C / 2) source classes and
                    has no fixed points.

IDX ingestion reads the classic big-endian image/label binary pair
(magic 0x00000803 for u8 images, 0x00000801 for u8 labels) and raises
a distinct error for a wrong magic, a truncated payload, and an
image/label count mismatch.  The pixels stay u8, an eighth of their
float64 size: a u8 feature matrix means value / 255, and `rows` casts
and scales only the rows a caller asks for, in the float dtype it asks
for (float64 unless told otherwise): a cast, then division by 255 in
that dtype, so every row is bitwise the pixel / 255 of that dtype.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    InputError,
    ParameterError,
)
from .tables import read_table, write_table

__all__ = [
    "Dataset",
    "LabelNoiseSpec",
    "make_blobs",
    "inject_symmetric_noise",
    "inject_asymmetric_noise",
    "default_pair_map",
    "apply_label_noise",
    "load_idx",
    "load_csv_dataset",
    "save_csv_dataset",
    "float_rows",
    "IDX_IMAGE_MAGIC",
    "IDX_LABEL_MAGIC",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def float_rows(features: np.ndarray, index=slice(None), out: np.ndarray | None = None, dtype=np.float64) -> np.ndarray:
    """features[index] as dtype values: float rows cast unless they are dtype already, u8 rows cast and divided by 255.

    A u8 result goes into out (of dtype) when given, so a caller that
    scores chunk after chunk reuses one buffer.
    """
    if features.dtype != np.uint8:
        return features[index].astype(dtype, copy=False)
    return np.divide(features[index], 255.0, out=out, dtype=dtype)


@dataclass
class Dataset:
    """Feature matrix with true and assigned labels."""

    features: np.ndarray  # (n, d) float64, or u8 meaning value / 255; read it through rows()
    true_labels: np.ndarray  # (n,) int64
    assigned_labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        x = np.asarray(self.features)
        if x.dtype != np.uint8:
            x = np.asarray(x, dtype=np.float64)
        yt = np.asarray(self.true_labels, dtype=np.int64)
        ya = np.asarray(self.assigned_labels, dtype=np.int64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise InputError(f"samples must be a non-empty (n, d) matrix, got shape {x.shape}")
        if yt.shape != (x.shape[0],) or ya.shape != (x.shape[0],):
            raise InputError("label arrays must match the number of samples")
        if self.num_classes < 1:
            raise InputError(f"num_classes must be >= 1, got {self.num_classes}")
        for name, y in (("true", yt), ("assigned", ya)):
            if y.min() < 0 or y.max() >= self.num_classes:
                raise InputError(f"{name} labels must lie in [0, {self.num_classes - 1}]")
        self.features, self.true_labels, self.assigned_labels = x, yt, ya

    @property
    def samples(self) -> np.ndarray:
        """All (n, d) float64 values: features itself, or a whole scaled copy of u8 features."""
        return self.features if self.features.dtype == np.float64 else self.rows()

    def rows(self, index=slice(None), out: np.ndarray | None = None, dtype=np.float64) -> np.ndarray:
        """The dtype values of features[index]; see float_rows."""
        return float_rows(self.features, index, out, dtype)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def clean_mask(self) -> np.ndarray:
        return self.true_labels == self.assigned_labels

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[indices],
            true_labels=self.true_labels[indices],
            assigned_labels=self.assigned_labels[indices],
            num_classes=self.num_classes,
        )


@dataclass(frozen=True)
class LabelNoiseSpec:
    """How to corrupt assigned labels: kind 'sym' or 'asym' plus a rate."""

    kind: str
    rate: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sym", "asym"):
            raise ParameterError(f"noise kind must be 'sym' or 'asym', got {self.kind!r}")
        if not (np.isfinite(self.rate) and 0.0 <= self.rate <= 1.0):
            raise ParameterError(f"noise rate must lie in [0, 1], got {self.rate}")


def make_blobs(n: int, dim: int, num_classes: int, separation: float, seed: int) -> Dataset:
    """Gaussian class clusters with unit spread and balanced counts.

    Centers are rejection-sampled in a box until all pairwise
    distances reach `separation`; sample order is shuffled so class
    has no correlation with index.
    """
    if n < 1 or dim < 1 or num_classes < 1:
        raise ParameterError(f"need n, dim, num_classes >= 1, got {n}, {dim}, {num_classes}")
    if n < num_classes:
        raise ParameterError(f"need at least one sample per class, got n={n} < C={num_classes}")
    if not (np.isfinite(separation) and separation > 0.0):
        raise ParameterError(f"separation must be finite and > 0, got {separation}")
    rng = np.random.default_rng(seed)
    side = separation * (2.0 + num_classes ** (1.0 / dim))
    if not np.isfinite(side):
        raise ParameterError(f"separation {separation} too large for {dim}-d placement")
    centers = np.empty((num_classes, dim))
    placed = 0
    attempts = 0
    while placed < num_classes:
        if attempts > 1000 * num_classes:
            raise ParameterError(
                f"could not place {num_classes} centers at separation {separation} in {dim}-d"
            )
        cand = rng.uniform(0.0, side, size=dim)
        attempts += 1
        if placed == 0 or np.linalg.norm(centers[:placed] - cand, axis=1).min() >= separation:
            centers[placed] = cand
            placed += 1
    counts = np.full(num_classes, n // num_classes)
    counts[: n % num_classes] += 1
    labels = np.repeat(np.arange(num_classes), counts)
    samples = centers[labels] + rng.standard_normal((n, dim))
    order = rng.permutation(n)
    samples, labels = samples[order], labels[order].astype(np.int64)
    return Dataset(features=samples, true_labels=labels, assigned_labels=labels.copy(), num_classes=num_classes)


def _checked_labels(labels: np.ndarray, num_classes: int, rate: float, kind: str) -> np.ndarray:
    """The int64 labels a noise injector corrupts, after the checks both injectors share."""
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or y.size == 0:
        raise InputError(f"labels must be a non-empty 1-d array, got shape {y.shape}")
    if num_classes < 2:
        raise ParameterError(f"{kind} noise needs num_classes >= 2, got {num_classes}")
    if y.min() < 0 or y.max() >= num_classes:
        raise InputError(f"labels must lie in [0, {num_classes - 1}]")
    if not (np.isfinite(rate) and 0.0 <= rate <= 1.0):
        raise ParameterError(f"rate must lie in [0, 1], got {rate}")
    return y


def inject_symmetric_noise(labels: np.ndarray, num_classes: int, rate: float, seed: int) -> np.ndarray:
    """Flip exactly floor(rate * n) uniformly chosen labels to random other classes."""
    y = _checked_labels(labels, num_classes, rate, "symmetric")
    n = y.shape[0]
    n_flip = int(math.floor(rate * n))
    out = y.copy()
    if n_flip == 0:
        return out
    rng = np.random.default_rng(seed)
    flip_at = rng.choice(n, size=n_flip, replace=False)
    # Offset in [1, C-1] guarantees the new label differs from the old.
    offsets = rng.integers(1, num_classes, size=n_flip)
    out[flip_at] = (out[flip_at] + offsets) % num_classes
    return out


def default_pair_map(num_classes: int) -> dict[int, int]:
    """Pair the first ceil(C / 2) classes with their shifted partners."""
    if num_classes < 2:
        raise ParameterError(f"pair map needs num_classes >= 2, got {num_classes}")
    shift = num_classes // 2
    return {c: (c + shift) % num_classes for c in range((num_classes + 1) // 2)}


def inject_asymmetric_noise(labels: np.ndarray, num_classes: int, rate: float, seed: int) -> np.ndarray:
    """Flip each class of default_pair_map(num_classes) to its partner class with probability rate."""
    y = _checked_labels(labels, num_classes, rate, "asymmetric")
    rng = np.random.default_rng(seed)
    out = y.copy()
    coin = rng.uniform(0.0, 1.0, size=y.shape[0])
    for src, dst in sorted(default_pair_map(num_classes).items()):
        out[(y == src) & (coin < rate)] = dst
    return out


def apply_label_noise(dataset: Dataset, spec: LabelNoiseSpec) -> Dataset:
    """Return a copy of dataset with assigned labels corrupted per spec."""
    if spec.kind == "sym":
        assigned = inject_symmetric_noise(dataset.true_labels, dataset.num_classes, spec.rate, spec.seed)
    else:
        assigned = inject_asymmetric_noise(dataset.true_labels, dataset.num_classes, spec.rate, spec.seed)
    return Dataset(
        features=dataset.features,
        true_labels=dataset.true_labels,
        assigned_labels=assigned,
        num_classes=dataset.num_classes,
    )


def _read_idx_header(raw: np.ndarray, path, expected_magic: int, dims: int) -> tuple[tuple[int, ...], int]:
    header_bytes = 4 * (1 + dims)
    if len(raw) < header_bytes:
        raise IdxTruncatedError(
            f"{path}: header needs {header_bytes} bytes, file has {len(raw)}"
        )
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise IdxMagicError(
            f"{path}: magic 0x{magic:08x} does not match expected 0x{expected_magic:08x}"
        )
    shape = struct.unpack(f">{dims}I", raw[4:header_bytes])
    return shape, header_bytes


def load_idx(images_path, labels_path) -> Dataset:
    """Read a u8 image/label IDX pair into a flat Dataset whose u8 features mean pixel / 255."""
    raw_images, raw_labels = (np.fromfile(path, dtype=np.uint8) for path in (images_path, labels_path))
    raw_images.flags.writeable = False  # the pixels are a view of it, read whole at load time

    (count, rows, cols), offset = _read_idx_header(raw_images, images_path, IDX_IMAGE_MAGIC, 3)
    if rows == 0 or cols == 0:
        raise DataError(f"{images_path}: images of {rows}x{cols} pixels have no features")
    expected = offset + count * rows * cols
    if len(raw_images) != expected:
        raise IdxTruncatedError(
            f"{images_path}: expected {expected} bytes for {count} images of {rows}x{cols}, "
            f"got {len(raw_images)}"
        )
    (label_count,), label_offset = _read_idx_header(raw_labels, labels_path, IDX_LABEL_MAGIC, 1)
    expected_labels = label_offset + label_count
    if len(raw_labels) != expected_labels:
        raise IdxTruncatedError(
            f"{labels_path}: expected {expected_labels} bytes for {label_count} labels, "
            f"got {len(raw_labels)}"
        )
    if count != label_count:
        raise IdxCountMismatchError(
            f"{images_path} has {count} images but {labels_path} has {label_count} labels"
        )
    if count == 0:
        raise DataError(f"{images_path}: empty dataset")
    pixels = raw_images[offset:].reshape(count, rows * cols)  # the images are held once, as u8
    labels = raw_labels[label_offset:].astype(np.int64)
    num_classes = int(labels.max()) + 1
    return Dataset(features=pixels, true_labels=labels, assigned_labels=labels.copy(), num_classes=num_classes)


def load_csv_dataset(path) -> Dataset:
    """Read 'label,f_0,...,f_{d-1}' rows (one header line) into a Dataset."""
    y, x, lines = read_table(path, "label", "f_", "features", DataError)
    negative = np.flatnonzero(y < 0)
    if negative.size:
        raise DataError(f"{path}: row {lines[negative[0]]}: labels must be non-negative")
    num_classes = int(y.max()) + 1
    return Dataset(features=x, true_labels=y, assigned_labels=y.copy(), num_classes=num_classes)


def save_csv_dataset(dataset: Dataset, path) -> None:
    """Write assigned labels and float64 feature values in load_csv_dataset's format."""
    rows = ((y, *dataset.rows(i).tolist()) for i, y in enumerate(dataset.assigned_labels.tolist()))
    write_table(path, ["label", *(f"f_{i}" for i in range(dataset.dim))], rows, ".17g")

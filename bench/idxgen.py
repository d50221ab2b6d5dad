"""Seeded synthetic IDX pairs shaped like MNIST.

Each class gets a smooth 28x28 prototype (a coarse random grid
upsampled by pixel repetition).  A sample is its class prototype
blended with a second, random class's prototype plus Gaussian pixel
noise, quantised to u8.  Classes overlap enough that a learner needs
several epochs, and the labels are balanced so every split holds
every class.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
SIDE = 28
_CHUNK = 8192


def write_idx_pair(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write u8 images (count, rows, cols) and u8 labels as big-endian IDX files."""
    if images.dtype != np.uint8 or images.ndim != 3:
        raise ValueError(f"images must be a u8 (count, rows, cols) array, got {images.dtype} {images.shape}")
    if labels.dtype != np.uint8 or labels.shape != (images.shape[0],):
        raise ValueError("labels must be u8, one per image")
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, *images.shape))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def _prototypes(rng: np.random.Generator, num_classes: int) -> np.ndarray:
    coarse = rng.uniform(0.0, 1.0, size=(num_classes, 7, 7))
    return np.repeat(np.repeat(coarse, 4, axis=1), 4, axis=2).reshape(num_classes, SIDE * SIDE)


def synthetic_digits(
    rng: np.random.Generator, protos: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n balanced, shuffled (images, labels) drawn around the given prototypes."""
    num_classes = protos.shape[0]
    labels = rng.permutation(np.arange(n) % num_classes).astype(np.uint8)
    images = np.empty((n, SIDE * SIDE), dtype=np.uint8)
    for start in range(0, n, _CHUNK):
        y = labels[start : start + _CHUNK]
        other = rng.integers(0, num_classes, size=y.shape[0])
        mix = 0.6 * protos[y] + 0.4 * protos[other]
        noise = rng.standard_normal(mix.shape, dtype=np.float32)
        pixels = 255.0 * mix + 80.0 * noise
        images[start : start + _CHUNK] = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
    return images.reshape(n, SIDE, SIDE), labels


def write_synthetic_split(directory, n_train: int, n_test: int, num_classes: int, seed: int) -> dict[str, str]:
    """Write train and test pairs under directory; returns the four config paths.

    Both splits share one seeded set of class prototypes, so the test
    set measures generalisation, not a new task.  The same seed gives
    the same bytes.
    """
    rng = np.random.default_rng(seed)
    protos = _prototypes(rng, num_classes)
    directory = Path(directory)
    paths = {
        "idx_images": directory / "train-images-idx3-ubyte",
        "idx_labels": directory / "train-labels-idx1-ubyte",
        "idx_test_images": directory / "t10k-images-idx3-ubyte",
        "idx_test_labels": directory / "t10k-labels-idx1-ubyte",
    }
    write_idx_pair(paths["idx_images"], paths["idx_labels"], *synthetic_digits(rng, protos, n_train))
    write_idx_pair(paths["idx_test_images"], paths["idx_test_labels"], *synthetic_digits(rng, protos, n_test))
    return {key: str(path) for key, path in paths.items()}

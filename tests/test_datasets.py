"""Datasets, label-noise injection, and IDX/CSV ingestion."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from ksetsel.datasets import (
    Dataset,
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    LabelNoiseSpec,
    apply_label_noise,
    default_pair_map,
    inject_asymmetric_noise,
    inject_symmetric_noise,
    load_csv_dataset,
    load_idx,
    make_blobs,
    save_csv_dataset,
)
from ksetsel.errors import (
    DataError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    InputError,
    ParameterError,
)


def write_idx_images(path, images: np.ndarray, magic: int = IDX_IMAGE_MAGIC) -> None:
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", magic, count, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray, magic: int = IDX_LABEL_MAGIC) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", magic, labels.shape[0]))
        fh.write(labels.astype(np.uint8).tobytes())


def train_softmax_linear(x, y, num_classes, lr=0.5, steps=600):
    """Tiny multinomial logistic regression, the separability oracle."""
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    w = np.zeros((x.shape[1], num_classes))
    b = np.zeros(num_classes)
    onehot = np.eye(num_classes)[y]
    for _ in range(steps):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        err = (p - onehot) / x.shape[0]
        w -= lr * (x.T @ err)
        b -= lr * err.sum(axis=0)
    return (x @ w + b).argmax(axis=1)


class TestMakeBlobs:
    def test_shapes_and_balance(self):
        data = make_blobs(103, 5, 4, separation=6.0, seed=0)
        assert data.samples.shape == (103, 5)
        counts = np.bincount(data.true_labels, minlength=4)
        assert counts.max() - counts.min() <= 1
        np.testing.assert_array_equal(data.true_labels, data.assigned_labels)

    def test_deterministic(self):
        a = make_blobs(50, 3, 3, separation=5.0, seed=7)
        b = make_blobs(50, 3, 3, separation=5.0, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.true_labels, b.true_labels)

    def test_single_class(self):
        data = make_blobs(10, 2, 1, separation=3.0, seed=1)
        assert (data.true_labels == 0).all()

    def test_linearly_separable_at_wide_separation(self):
        data = make_blobs(4000, 2, 4, separation=10.0, seed=2)
        predicted = train_softmax_linear(data.samples, data.true_labels, 4)
        assert (predicted == data.true_labels).mean() > 0.99

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            make_blobs(0, 2, 2, separation=5.0, seed=0)
        with pytest.raises(ParameterError):
            make_blobs(10, 2, 2, separation=-1.0, seed=0)
        with pytest.raises(ParameterError):
            make_blobs(3, 2, 4, separation=5.0, seed=0)  # fewer samples than classes


class TestSymmetricNoise:
    def test_rate_zero_is_identity(self):
        y = np.arange(10) % 3
        out = inject_symmetric_noise(y, 3, rate=0.0, seed=0)
        np.testing.assert_array_equal(out, y)

    def test_exact_flip_count(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 4, size=10_000)
        out = inject_symmetric_noise(y, 4, rate=0.5, seed=1)
        assert (out != y).sum() == 5000  # floor(0.5 * 10000), every flip changes the label

    def test_floor_of_fractional_count(self):
        y = np.zeros(7, dtype=np.int64)
        out = inject_symmetric_noise(y, 2, rate=0.5, seed=2)
        assert (out != y).sum() == 3  # floor(3.5)

    def test_flips_are_uniform_over_wrong_classes(self):
        y = np.zeros(60_000, dtype=np.int64)
        out = inject_symmetric_noise(y, 4, rate=1.0, seed=4)
        counts = np.bincount(out, minlength=4)
        assert counts[0] == 0
        # Each wrong class gets ~20000; 5 sigma of a fair trinomial is ~630.
        assert np.abs(counts[1:] - 20_000).max() < 700

    def test_deterministic(self):
        y = np.arange(1000) % 5
        a = inject_symmetric_noise(y, 5, rate=0.3, seed=9)
        b = inject_symmetric_noise(y, 5, rate=0.3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_errors(self):
        with pytest.raises(ParameterError):
            inject_symmetric_noise(np.zeros(5, dtype=int), 1, rate=0.5, seed=0)
        with pytest.raises(ParameterError):
            inject_symmetric_noise(np.zeros(5, dtype=int), 3, rate=1.5, seed=0)
        with pytest.raises(InputError):
            inject_symmetric_noise(np.array([0, 7]), 3, rate=0.5, seed=0)


class TestAsymmetricNoise:
    def test_default_pair_map_shape(self):
        pm = default_pair_map(10)
        assert len(pm) == 5
        assert all(src != dst for src, dst in pm.items())
        pm5 = default_pair_map(5)
        assert len(pm5) == 3
        assert all(src != dst for src, dst in pm5.items())

    def test_rate_zero_is_identity(self):
        y = np.arange(12) % 4
        out = inject_asymmetric_noise(y, 4, rate=0.0, seed=0)
        np.testing.assert_array_equal(out, y)

    def test_unmapped_classes_never_flip(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 4, size=5000)
        out = inject_asymmetric_noise(y, 4, rate=1.0, seed=1)
        mapped = set(default_pair_map(4))
        unmapped = ~np.isin(y, list(mapped))
        np.testing.assert_array_equal(out[unmapped], y[unmapped])

    def test_nominal_rate_means_half_flipped_overall(self):
        # Half the classes are mapped, so a 40% nominal rate corrupts ~20%.
        y = np.concatenate([np.full(5000, c) for c in range(4)])
        out = inject_asymmetric_noise(y, 4, rate=0.4, seed=2)
        flipped = (out != y).mean()
        assert abs(flipped - 0.2) < 0.02

    def test_mapped_class_flips_at_rate(self):
        y = np.zeros(20_000, dtype=np.int64)
        out = inject_asymmetric_noise(y, 4, rate=0.4, seed=3)
        flipped = (out != y).mean()
        # 5 sigma of Binomial(20000, 0.4) is ~0.017.
        assert abs(flipped - 0.4) < 0.02
        assert set(np.unique(out[out != y])) == {default_pair_map(4)[0]}

    def test_deterministic(self):
        y = np.arange(2000) % 6
        a = inject_asymmetric_noise(y, 6, rate=0.4, seed=11)
        b = inject_asymmetric_noise(y, 6, rate=0.4, seed=11)
        np.testing.assert_array_equal(a, b)


class TestApplyLabelNoise:
    def test_clean_mask_tracks_flips(self):
        data = make_blobs(400, 3, 4, separation=6.0, seed=0)
        noisy = apply_label_noise(data, LabelNoiseSpec(kind="sym", rate=0.5, seed=1))
        assert noisy.clean_mask.sum() == 200
        np.testing.assert_array_equal(noisy.true_labels, data.true_labels)
        assert data.clean_mask.all()  # original untouched

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            LabelNoiseSpec(kind="weird", rate=0.5)
        with pytest.raises(ParameterError):
            LabelNoiseSpec(kind="sym", rate=-0.2)


class TestLoadIdx:
    def make_pair(self, tmp_path, count=20, rows=4, cols=3, seed=0):
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 256, size=(count, rows, cols)).astype(np.uint8)
        labels = rng.integers(0, 7, size=count).astype(np.uint8)
        ipath, lpath = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        write_idx_images(ipath, images)
        write_idx_labels(lpath, labels)
        return ipath, lpath, images, labels

    def test_roundtrip_values(self, tmp_path):
        ipath, lpath, images, labels = self.make_pair(tmp_path)
        data = load_idx(ipath, lpath)
        assert data.samples.shape == (20, 12)
        np.testing.assert_allclose(data.samples, images.reshape(20, 12) / 255.0)
        np.testing.assert_array_equal(data.true_labels, labels)
        np.testing.assert_array_equal(data.assigned_labels, labels)
        assert data.num_classes == int(labels.max()) + 1

    def test_scaling_matches_out_of_place_division(self, tmp_path):
        ipath, lpath, images, _ = self.make_pair(tmp_path, count=2000, rows=28, cols=28)
        data = load_idx(ipath, lpath)
        np.testing.assert_array_equal(data.samples, images.reshape(2000, 784) / 255.0)

    def test_peak_memory_is_one_float_copy(self, tmp_path):
        ipath, lpath, *_ = self.make_pair(tmp_path, count=2000, rows=28, cols=28)
        tracemalloc.start()
        try:
            data = load_idx(ipath, lpath)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The u8 pixels, held once, plus the labels; no float64 copy of the images at all.
        assert data.features.dtype == np.uint8
        assert peak <= 1.25 * data.features.nbytes

    def test_rows_are_bitwise_the_float_pixels_over_255(self, tmp_path):
        ipath, lpath, images, _ = self.make_pair(tmp_path, count=50, rows=5, cols=5)
        data = load_idx(ipath, lpath)
        reference = images.reshape(50, 25).astype(np.float64) / 255.0
        out = np.full((7, 25), np.nan)
        reads = [
            (slice(None), data.rows()),
            (slice(None), data.samples),
            (np.array([49, 3, 3, 0]), data.rows(np.array([49, 3, 3, 0]))),
            (17, data.rows(17)),
            (slice(40, 47), data.rows(slice(40, 47), out=out)),
        ]
        for index, got in reads:
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.int64), reference[index].view(np.int64))
        np.testing.assert_array_equal(out.view(np.int64), reference[40:47].view(np.int64))

    def test_float32_rows_are_bitwise_the_float32_pixels_over_255(self, tmp_path):
        ipath, lpath, images, _ = self.make_pair(tmp_path, count=50, rows=5, cols=5)
        data = load_idx(ipath, lpath)
        reference = images.reshape(50, 25).astype(np.float32) / np.float32(255.0)
        out = np.full((7, 25), np.nan, dtype=np.float32)
        reads = [
            (slice(None), data.rows(dtype=np.float32)),
            (np.array([49, 3, 3, 0]), data.rows(np.array([49, 3, 3, 0]), dtype=np.float32)),
            (slice(40, 47), data.rows(slice(40, 47), out=out, dtype=np.float32)),
        ]
        for index, got in reads:
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got.view(np.int32), reference[index].view(np.int32))
        np.testing.assert_array_equal(out.view(np.int32), reference[40:47].view(np.int32))
        floats = Dataset(features=data.samples, true_labels=data.true_labels, assigned_labels=data.true_labels,
                         num_classes=data.num_classes)
        np.testing.assert_array_equal(floats.rows([3, 1], dtype=np.float32), data.samples[[3, 1]].astype(np.float32))

    def test_operations_keep_u8_storage(self, tmp_path):
        ipath, lpath, images, _ = self.make_pair(tmp_path)
        data = load_idx(ipath, lpath)
        kept = [
            data.subset(np.array([4, 0, 9])),
            apply_label_noise(data, LabelNoiseSpec("sym", 0.5, seed=1)),
            dataclasses.replace(data, num_classes=data.num_classes + 1),
        ]
        for other in kept:
            assert other.features.dtype == np.uint8
        np.testing.assert_array_equal(kept[0].samples, images.reshape(20, 12)[[4, 0, 9]] / 255.0)

    def test_csv_roundtrip_writes_scaled_values(self, tmp_path):
        ipath, lpath, *_ = self.make_pair(tmp_path)
        data = load_idx(ipath, lpath)
        save_csv_dataset(data, tmp_path / "data.csv")
        loaded = load_csv_dataset(tmp_path / "data.csv")
        assert loaded.features.dtype == np.float64
        np.testing.assert_array_equal(loaded.samples.view(np.int64), data.samples.view(np.int64))
        np.testing.assert_array_equal(loaded.true_labels, data.assigned_labels)

    def test_wrong_image_magic(self, tmp_path):
        ipath, lpath, *_ = self.make_pair(tmp_path)
        write_idx_images(ipath, np.zeros((2, 2, 2), dtype=np.uint8), magic=0x00000802)
        with pytest.raises(IdxMagicError, match="magic"):
            load_idx(ipath, lpath)

    def test_wrong_label_magic(self, tmp_path):
        ipath, lpath, *_ = self.make_pair(tmp_path)
        write_idx_labels(lpath, np.zeros(20, dtype=np.uint8), magic=IDX_IMAGE_MAGIC)
        with pytest.raises(IdxMagicError):
            load_idx(ipath, lpath)

    def test_truncated_images(self, tmp_path):
        ipath, lpath, *_ = self.make_pair(tmp_path)
        raw = ipath.read_bytes()
        ipath.write_bytes(raw[:-5])
        with pytest.raises(IdxTruncatedError) as exc:
            load_idx(ipath, lpath)
        # The message states expected and actual byte counts.
        assert str(len(raw)) in str(exc.value) and str(len(raw) - 5) in str(exc.value)

    def test_truncated_labels(self, tmp_path):
        ipath, lpath, *_ = self.make_pair(tmp_path)
        lpath.write_bytes(lpath.read_bytes()[:-3])
        with pytest.raises(IdxTruncatedError) as exc:
            load_idx(ipath, lpath)
        assert str(exc.value) == f"{lpath}: expected 28 bytes for 20 labels, got 25"

    def test_an_empty_pair_is_a_data_error_naming_the_images(self, tmp_path):
        ipath, lpath, *_ = self.make_pair(tmp_path, count=0)
        with pytest.raises(DataError) as exc:
            load_idx(ipath, lpath)
        assert type(exc.value) is DataError and str(exc.value) == f"{ipath}: empty dataset"

    def test_truncated_header(self, tmp_path):
        ipath, lpath, *_ = self.make_pair(tmp_path)
        ipath.write_bytes(b"\x00\x00\x08")
        with pytest.raises(IdxTruncatedError):
            load_idx(ipath, lpath)

    @pytest.mark.parametrize("rows, cols", [(0, 28), (28, 0), (0, 0)])
    def test_images_without_pixels_are_a_data_error_naming_the_file(self, tmp_path, rows, cols):
        ipath, lpath, *_ = self.make_pair(tmp_path)
        write_idx_images(ipath, np.zeros((20, rows, cols), dtype=np.uint8))
        with pytest.raises(DataError) as exc:
            load_idx(ipath, lpath)
        assert str(exc.value) == f"{ipath}: images of {rows}x{cols} pixels have no features"

    def test_count_mismatch(self, tmp_path):
        ipath, lpath, _, labels = self.make_pair(tmp_path)
        write_idx_labels(lpath, labels[:-1])
        with pytest.raises(IdxCountMismatchError):
            load_idx(ipath, lpath)

    def test_error_types_are_distinct(self):
        kinds = {IdxMagicError, IdxTruncatedError, IdxCountMismatchError}
        assert len(kinds) == 3
        assert all(issubclass(k, DataError) for k in kinds)


class TestCsvDataset:
    def test_roundtrip(self, tmp_path):
        data = make_blobs(30, 4, 3, separation=5.0, seed=1)
        path = tmp_path / "data.csv"
        save_csv_dataset(data, path)
        loaded = load_csv_dataset(path)
        np.testing.assert_array_equal(loaded.samples, data.samples)
        np.testing.assert_array_equal(loaded.true_labels, data.assigned_labels)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,f_0\n1,0.5\n")
        with pytest.raises(DataError):
            load_csv_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f_0,f_1\n1,0.5\n")
        with pytest.raises(DataError):
            load_csv_dataset(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f_0\n1,oops\n")
        with pytest.raises(DataError):
            load_csv_dataset(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_feature_names_file_and_row(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f_0,f_1\n0,0.5,1.0\n1,0.25,{bad}\n0,2.0,3.0\n")
        with pytest.raises(DataError) as exc:
            load_csv_dataset(path)
        assert str(exc.value) == f"{path}: row 3: features must be finite"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("label,f_0\n\n0,1.0\n1,oops\n", "row 4: could not convert string to float: 'oops'"),
            ("label,f_0\n\n0,1.0\n\n1,inf\n", "row 5: features must be finite"),
            ("label,f_0,f_1\n\n\n0,1.0\n", "row 4 has 1 features, expected 2"),
            ("label,f_0\n0,1.0\n\n-1,2.0\n", "row 4: labels must be non-negative"),
        ],
    )
    def test_errors_name_the_file_line_counting_blank_lines(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError) as exc:
            load_csv_dataset(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\nlabel,f_0\n\n0,1.5\n  \n1,-2.0\n\n")
        loaded = load_csv_dataset(path)
        np.testing.assert_array_equal(loaded.samples, [[1.5], [-2.0]])
        np.testing.assert_array_equal(loaded.true_labels, [0, 1])


class TestDatasetType:
    def test_validation(self):
        with pytest.raises(InputError):
            Dataset(features=np.zeros((3, 2)), true_labels=np.array([0, 1]), assigned_labels=np.array([0, 1, 0]), num_classes=2)
        with pytest.raises(InputError):
            Dataset(features=np.zeros((2, 2)), true_labels=np.array([0, 5]), assigned_labels=np.array([0, 1]), num_classes=2)

    def test_subset(self):
        data = make_blobs(20, 2, 2, separation=4.0, seed=0)
        sub = data.subset(np.array([1, 3, 5]))
        assert sub.n == 3
        np.testing.assert_array_equal(sub.samples, data.samples[[1, 3, 5]])

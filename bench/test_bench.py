"""Tests for the benchmark's own helpers: the IDX writer and the span recorder."""

import types

import numpy as np
import pytest

import idxgen
import spans
from ksetsel import load_idx


def test_write_idx_pair_round_trips_through_load_idx(tmp_path):
    images = np.random.default_rng(0).integers(0, 256, size=(12, 28, 28), dtype=np.uint8)
    labels = (np.arange(12) % 4).astype(np.uint8)
    idxgen.write_idx_pair(tmp_path / "images", tmp_path / "labels", images, labels)

    data = load_idx(tmp_path / "images", tmp_path / "labels")
    assert data.num_classes == 4
    np.testing.assert_array_equal(data.samples, images.reshape(12, -1) / 255.0)
    np.testing.assert_array_equal(data.true_labels, labels)


def test_write_idx_pair_rejects_wrong_dtype(tmp_path):
    with pytest.raises(ValueError):
        idxgen.write_idx_pair(tmp_path / "i", tmp_path / "l", np.zeros((2, 2, 2)), np.zeros(2, dtype=np.uint8))


def test_synthetic_split_is_seeded_and_balanced(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        idxgen.write_synthetic_split(tmp_path / name, n_train=60, n_test=30, num_classes=10, seed=seed)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(files) == 4
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / files[0]).read_bytes() != (tmp_path / "c" / files[0]).read_bytes()

    paths = {p.name: str(p) for p in (tmp_path / "a").iterdir()}
    train = load_idx(paths["train-images-idx3-ubyte"], paths["train-labels-idx1-ubyte"])
    test = load_idx(paths["t10k-images-idx3-ubyte"], paths["t10k-labels-idx1-ubyte"])
    assert (train.n, train.dim, test.n) == (60, 28 * 28, 30)
    assert np.bincount(train.true_labels).tolist() == [6] * 10
    assert train.num_classes == test.num_classes == 10


def _span(id_, parent, start, end):
    return spans.Span(id=id_, name=f"s{id_}", parent=parent, start=start, end=end)


def test_self_time_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 0, 5.0, 9.0), _span(3, 2, 6.0, 7.0)]
    assert spans.self_times(tree) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    # Children that overlap each other are covered once, not twice.
    overlapping = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 6.0), _span(2, 0, 4.0, 8.0)]
    assert spans.self_times(overlapping)[0] == 4.0


def test_recorder_nests_spans_and_restores_functions():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    namespace = types.SimpleNamespace()
    namespace.inner = lambda x: x + 1
    namespace.outer = lambda x: namespace.inner(x) * 2
    original_inner = namespace.inner
    recorder.install(
        [
            (namespace, "inner", "mod.inner", lambda args, kwargs: {"rows": float(args[0])}),
            (namespace, "outer", "mod.outer", None),
        ]
    )
    assert namespace.outer(3) == 8
    recorder.uninstall()
    assert namespace.inner is original_inner

    table = spans.aggregate(recorder.spans)
    assert [s.parent for s in recorder.spans] == [None, 0]
    assert table["mod.inner"] == {"calls": 1.0, "busy_s": 1.0, "self_s": 1.0, "rows": 3.0}
    assert table["mod.outer"]["busy_s"] == 3.0 and table["mod.outer"]["self_s"] == 2.0

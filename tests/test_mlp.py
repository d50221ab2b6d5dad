"""MLP forward/backward and the epoch trainer.

The backward pass is checked against central finite differences on
the scalar loss -ln p[label]; that oracle is independent of the
analytic derivation.  The in-place forward pass is checked bitwise
against the out-of-place formulas kept below as the reference.
"""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ksetsel import ahead, mlp
from ksetsel.ahead import fork_map
from ksetsel.datasets import Dataset, make_blobs
from ksetsel.errors import DivergenceError, InputError, ParameterError
from ksetsel.mlp import (
    LearnerSpec,
    MlpModel,
    backward,
    batch_gradients,
    evaluate,
    forward,
    forward_batch,
    init_mlp,
    predict_batch,
    sgd_step,
    train_epoch,
)
from ksetsel.selection import KSetSelection, init_selection


def ref_forward(model, x):
    """Out-of-place forward pass: (pre-activation, hidden, probabilities)."""
    pre = x @ model.w1 + model.b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ model.w2 + model.b2
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return pre, hidden, exp / exp.sum(axis=-1, keepdims=True)


def ref_predict_batch(model, x, chunk):
    """One chunk after another on this thread, in the model's dtype; u8 rows are divided by 255 a chunk at a time."""
    labels = np.empty(x.shape[0], dtype=np.int64)
    conf = np.empty(x.shape[0], dtype=np.float64)
    dtype = model.w1.dtype
    for start in range(0, x.shape[0], chunk):
        rows = x[start : start + chunk].astype(dtype)
        probs = ref_forward(model, rows / dtype.type(255.0) if x.dtype == np.uint8 else rows)[2]
        part = probs.argmax(axis=1)
        labels[start : start + chunk] = part
        conf[start : start + chunk] = probs[np.arange(probs.shape[0]), part]
    return labels, conf


def ref_batch_gradients(model, x, labels):
    m = x.shape[0]
    pre, hidden, err = ref_forward(model, x)
    err[np.arange(m), labels] -= 1.0
    err /= m
    d_hidden = err @ model.w2.T
    d_hidden[pre <= 0.0] = 0.0
    return {"w1": x.T @ d_hidden, "b1": d_hidden.sum(axis=0), "w2": hidden.T @ err, "b2": err.sum(axis=0)}


def bits(a):
    """a's bits, as unsigned integers of its width: equal arrays of these are bitwise equal."""
    return a.view(f"u{a.itemsize}")


def loss_at(model, x, label):
    return -np.log(forward(model, x)[label])


def fd_gradients(model, x, label, step=1e-5):
    """Central finite differences over every parameter."""
    grads = {}
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(model, name)
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            up = loss_at(model, x, label)
            param[idx] = orig - step
            down = loss_at(model, x, label)
            param[idx] = orig
            grad[idx] = (up - down) / (2 * step)
            it.iternext()
        grads[name] = grad
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in ("w1", "b1", "w2", "b2"):
        a, n = getattr(analytic, name), numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestForward:
    def test_zero_model_gives_uniform(self):
        model = MlpModel(w1=np.zeros((3, 4)), b1=np.zeros(4), w2=np.zeros((4, 5)), b2=np.zeros(5))
        probs = forward(model, np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = init_mlp(6, 8, 4, seed=1)
        probs = forward_batch(model, rng.normal(size=(50, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(50), atol=1e-9)
        assert probs.min() >= 0.0

    def test_huge_logits_do_not_overflow(self):
        model = MlpModel(
            w1=np.eye(2) * 1000.0, b1=np.zeros(2), w2=np.eye(2), b2=np.zeros(2)
        )
        probs = forward(model, np.array([1.0, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] > 0.999

    def test_shape_validation(self):
        model = init_mlp(4, 3, 2, seed=0)
        with pytest.raises(InputError):
            forward(model, np.zeros(5))
        with pytest.raises(InputError):
            forward_batch(model, np.zeros((2, 5)))


class TestInPlaceMatchesReference:
    """The in-place pass runs the reference's ufuncs in the same order, so results are bitwise equal."""

    @staticmethod
    def model_and_inputs(seed, m, scale):
        rng = np.random.default_rng(seed)
        model = init_mlp(5, 12, 4, seed=seed)
        model.w2 *= scale  # large scales push logits far apart and confidences to 1.0
        return model, rng.normal(size=(m, 5)) * scale

    @pytest.mark.parametrize("scale", [0.01, 1.0, 300.0])
    def test_forward_batch(self, scale):
        model, x = self.model_and_inputs(0, 30, scale)
        np.testing.assert_array_equal(forward_batch(model, x), ref_forward(model, x)[2])

    @pytest.mark.parametrize("scale", [0.01, 1.0, 300.0])
    def test_predict_batch_across_chunk_boundaries(self, monkeypatch, scale):
        model, x = self.model_and_inputs(1, 200, scale)
        for chunk in (1, 7, 200, 4096):
            monkeypatch.setattr(mlp, "SCORE_CHUNK", chunk)
            labels, conf = predict_batch(model, x)
            ref_labels, ref_conf = ref_predict_batch(model, x, chunk)
            np.testing.assert_array_equal(labels, ref_labels)
            np.testing.assert_array_equal(conf, ref_conf)

    @pytest.mark.parametrize("scale", [0.01, 1.0, 300.0])
    def test_batch_gradients(self, scale):
        model, x = self.model_and_inputs(2, 9, scale)
        labels = np.random.default_rng(3).integers(0, 4, size=9)
        grads = batch_gradients(model, x, labels)
        for name, ref in ref_batch_gradients(model, x, labels).items():
            np.testing.assert_array_equal(getattr(grads, name), ref)

    def test_train_epoch_matches_batch_gradients_loop(self):
        data = make_blobs(60, 4, 3, separation=4.0, seed=4)
        sel = init_selection(60, 23, seed=5)  # batches of 5: four full, one of 3
        model = init_mlp(4, 10, 3, seed=6)
        reference = model.copy()
        for epoch in range(3):
            train_epoch(model, data, sel, LearnerSpec(lr=0.1, batch_size=5), rng=np.random.default_rng(epoch))
            order = sel.indices[np.random.default_rng(epoch).permutation(sel.k)]
            for start in range(0, order.shape[0], 5):
                batch = order[start : start + 5]
                grads = batch_gradients(reference, data.samples[batch], data.assigned_labels[batch])
                sgd_step(reference, grads, LearnerSpec(lr=0.1))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(model, name), getattr(reference, name))


class TestU8Inputs:
    """u8 rows mean value / 255: every path gives the bits of the float64 materialisation."""

    @staticmethod
    def u8_and_float(seed, n=50, d=9, classes=3):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(n, d), dtype=np.uint8)
        labels = rng.integers(0, classes, size=n)
        u8 = Dataset(features=pixels, true_labels=labels, assigned_labels=labels, num_classes=classes)
        floats = Dataset(features=u8.samples, true_labels=labels, assigned_labels=labels, num_classes=classes)
        assert u8.features.dtype == np.uint8 and floats.features.dtype == np.float64
        return u8, floats

    def test_predict_batch_and_evaluate(self, monkeypatch):
        u8, floats = self.u8_and_float(0)
        model = init_mlp(9, 6, 3, seed=1)
        for chunk in (1, 7, 16, 50, 4096):  # 7 and 16 do not divide n = 50
            monkeypatch.setattr(mlp, "SCORE_CHUNK", chunk)
            labels, conf = predict_batch(model, u8.features)
            ref_labels, ref_conf = predict_batch(model, floats.features)
            np.testing.assert_array_equal(labels, ref_labels)
            np.testing.assert_array_equal(conf.view(np.int64), ref_conf.view(np.int64))
        report = evaluate(model, u8.features, u8.true_labels)
        ref = evaluate(model, floats.features, floats.true_labels)
        assert report.accuracy == ref.accuracy
        np.testing.assert_array_equal(report.confidences.view(np.int64), ref.confidences.view(np.int64))

    def test_train_epoch(self):
        u8, floats = self.u8_and_float(2)
        sel = init_selection(50, 37, seed=3)
        models = [init_mlp(9, 6, 3, seed=4) for _ in range(2)]
        for epoch in range(3):
            for model, data in zip(models, (u8, floats)):
                train_epoch(model, data, sel, LearnerSpec(lr=0.1, batch_size=8), rng=np.random.default_rng(epoch))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(models[0], name).view(np.int64), getattr(models[1], name).view(np.int64))

    def test_forward_batch_scales_u8_rows(self):
        u8, floats = self.u8_and_float(5)
        model = init_mlp(9, 6, 3, seed=6)
        np.testing.assert_array_equal(forward_batch(model, u8.features), forward_batch(model, floats.features))


class TestPredictBatch:
    def test_scoring_holds_one_hidden_sized_temporary(self):
        m, hidden = 2000, 128
        model = init_mlp(16, hidden, 10, seed=0)
        x = np.random.default_rng(1).normal(size=(m, 16))
        predict_batch(model, x)
        tracemalloc.start()
        try:
            predict_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m * hidden * 8

    def test_a_float32_model_scores_float32_rows_with_one_hidden_sized_temporary(self):
        m, d, hidden = 2000, 64, 128
        model = init_mlp(d, hidden, 10, seed=0).astype(np.float32)
        x = np.random.default_rng(1).normal(size=(m, d)).astype(np.float32)
        predict_batch(model, x)
        tracemalloc.start()
        try:
            predict_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m * hidden * 4  # no whole float64 copy of the rows


ON_LINUX = pytest.mark.skipif(sys.platform != "linux", reason="ahead.helper gives a worker on Linux only")


class TestScoringWorker:
    """x of two or more chunks: a worker from ahead.helper scores every other chunk, joined before predict_batch ends."""

    @pytest.fixture(autouse=True)
    def helped(self, fake_host):
        fake_host(cpus=2, threads=1)  # a spare CPU on any Linux host, and the test process's BLAS pool let through

    @staticmethod
    def rows(dtype, m, d, seed):
        rng = np.random.default_rng(seed)
        if dtype == "u8":
            return rng.integers(0, 256, size=(m, d), dtype=np.uint8)
        return rng.normal(size=(m, d))

    @pytest.fixture
    def switchy(self):
        # Threads switch every microsecond, so the two threads' chunks interleave at random.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.fixture
    def scored_on(self, monkeypatch):
        """(thread, rows) of every chunk _forward scores."""
        calls, real = [], mlp._forward

        def recorded(model, x, keep_pre=False):
            calls.append((threading.current_thread(), x.shape[0]))
            return real(model, x, keep_pre)

        monkeypatch.setattr(mlp, "_forward", recorded)
        return calls

    @pytest.fixture
    def worker_first(self, monkeypatch):
        """This thread's chunks wait until the worker has begun its own, so its job is never taken back."""
        real, begun = mlp._score_chunks, threading.Event()

        def ordered(*args):
            if threading.current_thread() is threading.main_thread():
                assert begun.wait(timeout=20), "the worker did not begin its chunks"
            else:
                begun.set()
            real(*args)

        monkeypatch.setattr(mlp, "_score_chunks", ordered)

    def assert_matches_reference(self, monkeypatch, model, x, chunk):
        monkeypatch.setattr(mlp, "SCORE_CHUNK", chunk)
        labels, conf = predict_batch(model, x)
        ref_labels, ref_conf = ref_predict_batch(model, x, chunk)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(conf.view(np.int64), ref_conf.view(np.int64))

    @pytest.mark.parametrize("dtype", ["u8", "float"])
    @pytest.mark.parametrize("m", [4096, 4096 + 517, 2 * 4096 + 517, 3 * 4096 + 517])
    def test_idx_width_matches_reference(self, monkeypatch, switchy, dtype, m):
        model = init_mlp(784, 16, 10, seed=0)
        self.assert_matches_reference(monkeypatch, model, self.rows(dtype, m, 784, 1), 4096)

    @pytest.mark.parametrize("dtype", ["u8", "float"])
    @pytest.mark.parametrize("chunk, m", [(7, 7), (7, 12), (7, 19), (7, 23), (16, 50), (1, 5)])
    def test_small_chunks_match_reference(self, monkeypatch, switchy, dtype, chunk, m):
        model = init_mlp(9, 6, 3, seed=2)
        model.w2 *= 50.0  # far-apart logits: some confidences reach 1.0
        self.assert_matches_reference(monkeypatch, model, self.rows(dtype, m, 9, 3), chunk)

    @pytest.mark.parametrize("dtype", ["u8", "float"])
    @pytest.mark.parametrize("m", [4096 + 517, 3 * 4096 + 517])
    def test_a_float32_model_at_idx_width_matches_reference(self, monkeypatch, switchy, dtype, m):
        model = init_mlp(784, 16, 10, seed=0).astype(np.float32)
        self.assert_matches_reference(monkeypatch, model, self.rows(dtype, m, 784, 1), 4096)

    @ON_LINUX
    def test_worker_scores_every_other_chunk(self, monkeypatch, worker_first, scored_on):
        before = threading.active_count()
        monkeypatch.setattr(mlp, "SCORE_CHUNK", 7)
        predict_batch(init_mlp(9, 6, 3, seed=0), self.rows("u8", 23, 9, 1))
        assert threading.active_count() == before
        main = threading.main_thread()
        # rows 0-7 and 14-21 on this thread, rows 7-14 and the remainder 21-23 on the worker
        assert [rows for thread, rows in scored_on if thread is main] == [7, 7]
        on_worker = [(thread, rows) for thread, rows in scored_on if thread is not main]
        assert [rows for _, rows in on_worker] == [7, 2]
        assert len({thread for thread, _ in on_worker}) == 1 and not on_worker[0][0].is_alive()

    @ON_LINUX
    def test_worker_scores_its_chunks_without_waiting_for_the_caller(self, monkeypatch):
        # The caller's first chunk waits until the worker has scored all three of its chunks,
        # which a worker that scores one chunk per step of the caller never does.
        real, worker_chunks, worker_done = mlp._forward, [], threading.Event()

        def gated(model, x, keep_pre=False):
            if threading.current_thread() is threading.main_thread():
                assert worker_done.wait(timeout=20), "the worker waited for the caller"
            else:
                worker_chunks.append(x.shape[0])
                if len(worker_chunks) == 3:
                    worker_done.set()
            return real(model, x, keep_pre)

        monkeypatch.setattr(mlp, "_forward", gated)
        monkeypatch.setattr(mlp, "SCORE_CHUNK", 7)
        predict_batch(init_mlp(9, 6, 3, seed=0), self.rows("u8", 40, 9, 1))
        assert worker_chunks == [7, 7, 5]  # rows 7-14, 21-28 and 35-40

    def test_chunks_a_worker_has_not_started_are_scored_here_with_the_same_bits(self, monkeypatch, scored_on):
        go = threading.Event()
        monkeypatch.setattr(ahead, "_nudge", lambda cpu: go.wait(timeout=20))  # the worker starts no job in the call

        class Stalled(ahead.Helper):
            def __exit__(self, *exc):
                go.set()
                super().__exit__(*exc)

        monkeypatch.setattr(mlp, "helper", lambda: Stalled(None))
        self.assert_matches_reference(monkeypatch, init_mlp(9, 6, 3, seed=0), self.rows("u8", 23, 9, 1), 7)
        main = threading.main_thread()
        # rows 0-7 and 14-21, then the worker's 7-14 and 21-23, all on this thread
        assert scored_on == [(main, 7), (main, 7), (main, 7), (main, 2)]

    def test_one_chunk_starts_no_thread(self, monkeypatch, scored_on):
        def no_thread(thread):
            raise AssertionError(f"a one-chunk call started {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(mlp, "SCORE_CHUNK", 7)
        model = init_mlp(9, 6, 3, seed=0)
        for m in (0, 1, 7):
            predict_batch(model, self.rows("u8", m, 9, 1))
        assert [thread for thread, _ in scored_on] == [threading.main_thread()] * 2  # m = 0 scores nothing

    @pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux")
    @pytest.mark.parametrize("why", ["one usable CPU", "in a fork_map child"])
    def test_many_chunks_without_a_spare_cpu_start_no_thread(self, monkeypatch, fake_host, why):
        def no_thread(thread):
            raise AssertionError(f"predict_batch started {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(mlp, "SCORE_CHUNK", 7)
        model, x = init_mlp(9, 6, 3, seed=0), self.rows("u8", 30, 9, 1)  # five chunks
        if why == "one usable CPU":
            fake_host(cpus=1)
            scored = [(os.getpid(), predict_batch(model, x))]
        else:  # the fixture's two CPUs make fork_map fork, and a child owns its one CPU
            scored = fork_map(lambda _: (os.getpid(), predict_batch(model, x)), [0, 1])
            assert os.getpid() not in {pid for pid, _ in scored}
        ref_labels, ref_conf = ref_predict_batch(model, x, 7)
        for _, (labels, conf) in scored:
            np.testing.assert_array_equal(labels, ref_labels)
            np.testing.assert_array_equal(conf.view(np.int64), ref_conf.view(np.int64))

    @ON_LINUX
    def test_the_worker_scores_under_the_callers_errstate(self, monkeypatch, worker_first):
        # an inf weight makes every chunk's matmul warn; a RuntimeWarning on the worker would fail the test
        monkeypatch.setattr(mlp, "SCORE_CHUNK", 4)
        model = init_mlp(4, 8, 3, seed=0)
        model.w1[:] = np.inf
        with np.errstate(all="ignore"):
            labels, _ = predict_batch(model, self.rows("float", 9, 4, 1))
        assert labels.shape == (9,)

    @ON_LINUX
    @pytest.mark.parametrize("on_worker", [True, False])
    def test_chunk_error_reaches_the_caller_and_leaves_no_thread(self, monkeypatch, worker_first, on_worker):
        real = mlp._forward

        def failing(model, x, keep_pre=False):
            if (threading.current_thread() is not threading.main_thread()) == on_worker:
                raise InputError("chunk failed")
            return real(model, x, keep_pre)

        monkeypatch.setattr(mlp, "_forward", failing)
        monkeypatch.setattr(mlp, "SCORE_CHUNK", 7)
        before = threading.active_count()
        with pytest.raises(InputError, match=r"^chunk failed$"):
            predict_batch(init_mlp(9, 6, 3, seed=0), self.rows("float", 30, 9, 1))
        assert threading.active_count() == before


class TestInit:
    def test_deterministic(self):
        a, b = init_mlp(7, 5, 3, seed=9), init_mlp(7, 5, 3, seed=9)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_fan_in_ranges(self):
        model = init_mlp(16, 64, 10, seed=2)
        assert np.abs(model.w1).max() <= 1.0 / np.sqrt(16)
        assert np.abs(model.w2).max() <= 1.0 / np.sqrt(64)
        assert (model.b1 == 0).all() and (model.b2 == 0).all()

    def test_bad_sizes(self):
        with pytest.raises(ParameterError):
            init_mlp(0, 5, 3, seed=0)


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            d, h, c = int(rng.integers(2, 8)), int(rng.integers(2, 8)), int(rng.integers(2, 5))
            model = init_mlp(d, h, c, seed=trial)
            x = rng.normal(size=d)
            label = int(rng.integers(0, c))
            analytic = backward(model, x, label)
            numeric = fd_gradients(model, x, label)
            assert max_rel_error(analytic, numeric) < 1e-4

    def test_saturated_softmax_gradient_vanishes_on_true_class(self):
        # Confident and correct: the error signal (p - onehot) is ~0.
        model = MlpModel(w1=np.eye(2) * 50.0, b1=np.zeros(2), w2=np.eye(2) * 50.0, b2=np.zeros(2))
        grads = backward(model, np.array([1.0, 0.0]), 0)
        assert np.abs(grads.w2).max() < 1e-6

    def test_batch_gradient_is_mean_of_singles(self):
        rng = np.random.default_rng(4)
        model = init_mlp(5, 6, 3, seed=0)
        x = rng.normal(size=(8, 5))
        labels = rng.integers(0, 3, size=8)
        batch = batch_gradients(model, x, labels)
        singles = [backward(model, x[i], int(labels[i])) for i in range(8)]
        for name in ("w1", "b1", "w2", "b2"):
            mean = np.mean([getattr(s, name) for s in singles], axis=0)
            np.testing.assert_allclose(getattr(batch, name), mean, atol=1e-12)

    def test_label_validation(self):
        model = init_mlp(3, 4, 2, seed=0)
        with pytest.raises(InputError):
            backward(model, np.zeros(3), 5)

    def test_empty_batch_is_rejected(self):
        model = init_mlp(3, 4, 2, seed=0)
        with pytest.raises(InputError, match="batch is empty"):
            batch_gradients(model, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


class TestTrainEpoch:
    def test_lr_zero_leaves_model_bitwise_unchanged(self):
        data = make_blobs(40, 3, 2, separation=5.0, seed=0)
        model = init_mlp(3, 8, 2, seed=1)
        before = model.copy()
        sel = init_selection(40, 10, seed=2)
        train_epoch(model, data, sel, LearnerSpec(lr=0.0, batch_size=4), rng=np.random.default_rng(3))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(model, name), getattr(before, name))

    def test_single_sample_batch_is_one_sgd_step(self):
        data = make_blobs(10, 3, 2, separation=5.0, seed=0)
        model = init_mlp(3, 4, 2, seed=1)
        reference = model.copy()
        sel = KSetSelection(np.array([6]))
        train_epoch(model, data, sel, LearnerSpec(lr=0.1, batch_size=1), rng=np.random.default_rng(0))
        grads = backward(reference, data.samples[6], int(data.assigned_labels[6]))
        sgd_step(reference, grads, LearnerSpec(lr=0.1))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_allclose(getattr(model, name), getattr(reference, name), atol=1e-14)

    def test_sgd_step_leaves_the_callers_gradients_unchanged(self):
        data = make_blobs(10, 3, 2, separation=5.0, seed=0)
        model = init_mlp(3, 4, 2, seed=1)
        expected = {name: getattr(model, name).copy() for name in ("w1", "b1", "w2", "b2")}
        grads = batch_gradients(model, data.samples, data.assigned_labels)
        kept = {name: getattr(grads, name).copy() for name in expected}
        sgd_step(model, grads, LearnerSpec(lr=0.3))
        for name, before in expected.items():
            np.testing.assert_array_equal(getattr(grads, name), kept[name])
            np.testing.assert_array_equal(getattr(model, name), before - 0.3 * kept[name])

    def test_learner_settings_are_checked_only_when_the_spec_is_built(self, monkeypatch):
        learner = LearnerSpec(lr=0.05, batch_size=32)
        checked = []
        monkeypatch.setattr(LearnerSpec, "__post_init__", lambda spec: checked.append(spec))
        data = make_blobs(300, 4, 3, separation=8.0, seed=5)
        model = init_mlp(4, 8, 3, seed=6)
        train_epoch(model, data, KSetSelection(np.arange(300)), learner, rng=np.random.default_rng(7))
        sgd_step(model, batch_gradients(model, data.samples[:5], data.assigned_labels[:5]), learner)
        # ten batches and one step, no check
        assert checked == []

    def test_learns_clean_blobs(self):
        data = make_blobs(300, 4, 3, separation=8.0, seed=5)
        model = init_mlp(4, 16, 3, seed=6)
        sel = KSetSelection(np.arange(300))
        rng = np.random.default_rng(7)
        for _ in range(50):
            train_epoch(model, data, sel, LearnerSpec(lr=0.05, batch_size=16), rng=rng)
        report = evaluate(model, data.samples, data.true_labels)
        assert report.accuracy > 0.99

    def test_deterministic_given_seed(self):
        data = make_blobs(60, 3, 2, separation=5.0, seed=0)
        sel = init_selection(60, 20, seed=1)
        def run():
            model = init_mlp(3, 8, 2, seed=2)
            train_epoch(model, data, sel, LearnerSpec(lr=0.05, batch_size=8), rng=np.random.default_rng(9))
            return model
        a, b = run(), run()
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_selection_out_of_range(self):
        data = make_blobs(10, 2, 2, separation=5.0, seed=0)
        model = init_mlp(2, 4, 2, seed=0)
        with pytest.raises(InputError):
            train_epoch(model, data, KSetSelection(np.array([11])), LearnerSpec(4, 0.1, 4), np.random.default_rng(0))

    def test_bad_batch_size(self):
        data = make_blobs(10, 2, 2, separation=5.0, seed=0)
        model = init_mlp(2, 4, 2, seed=0)
        with pytest.raises(ParameterError):
            train_epoch(model, data, KSetSelection(np.array([0])), LearnerSpec(4, 0.1, 0), np.random.default_rng(0))

    def test_label_range_checked_before_any_update(self):
        # Only the last of the three batches holds a label the 2-class model lacks.
        data = make_blobs(30, 3, 3, separation=5.0, seed=0)
        bad = np.flatnonzero(data.assigned_labels == 2)[:1]
        good = np.flatnonzero(data.assigned_labels < 2)[:8]
        sel = KSetSelection(np.sort(np.concatenate([good, bad])))
        model = init_mlp(3, 4, 2, seed=1)
        before = model.copy()
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            train_epoch(model, data, sel, LearnerSpec(lr=0.1, batch_size=3), rng=np.random.default_rng(0))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(model, name), getattr(before, name))

    def test_feature_width_mismatch(self):
        data = make_blobs(10, 3, 2, separation=5.0, seed=0)
        with pytest.raises(InputError, match=r"\(m, 4\)"):
            train_epoch(init_mlp(4, 4, 2, seed=0), data, KSetSelection(np.arange(4)), LearnerSpec(4, 0.1, 2),
                        np.random.default_rng(0))

    def test_bad_learning_rate_rejected_before_shuffle(self):
        data = make_blobs(10, 3, 2, separation=5.0, seed=0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        # the spec's own check, raised before train_epoch can shuffle
        with pytest.raises(ParameterError, match=r"^lr must be finite and >= 0, got nan$"):
            train_epoch(init_mlp(3, 4, 2, seed=0), data, KSetSelection(np.arange(4)), LearnerSpec(4, float("nan"), 2),
                        rng)
        assert rng.bit_generator.state == state

    def test_divergence_names_parameter_and_learning_rate(self):
        data = make_blobs(40, 3, 2, separation=5.0, seed=0)
        model = init_mlp(3, 8, 2, seed=1)
        sel = init_selection(40, 20, seed=2)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=r"(w1|b1|w2|b2) .*1e\+200"):
            train_epoch(model, data, sel, LearnerSpec(lr=1e200, batch_size=4), rng=np.random.default_rng(3))


class TestSplitTraining:
    """An epoch whose w1 work is split by column halves over two threads gives the serial loop's bits."""

    @pytest.fixture
    def helpers(self, monkeypatch):
        """Every helper train_epoch asks for; unplaced on a host without a spare CPU, so the split runs anywhere."""
        given = []

        def recorded():
            given.append(ahead.helper() or ahead.Helper(None))
            return given[-1]

        monkeypatch.setattr(mlp, "helper", recorded)
        return given

    @staticmethod
    def idx_like(n, d, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, size=n)
        pixels = rng.integers(0, 256, size=(n, d), dtype=np.uint8)
        return Dataset(features=pixels, true_labels=labels, assigned_labels=labels, num_classes=10)

    @staticmethod
    def serial_epoch(model, data, sel, learner, seed):
        """The _gradients + _step loop, batch after batch, on the order train_epoch draws, in the model's dtype."""
        order = sel.indices[np.random.default_rng(seed).permutation(sel.k)]
        for start in range(0, order.shape[0], learner.batch_size):
            batch = order[start : start + learner.batch_size]
            rows = data.rows(batch, dtype=model.dtype)
            mlp._step(model, mlp._gradients(model, rows, data.assigned_labels[batch]), learner.lr)

    def assert_bitwise_serial(self, d, hidden, batch_size, k, helpers, asked, dtype=np.float64):
        """One epoch of a dtype model gives the serial loop's weights, and then its scores, bit for bit."""
        data = self.idx_like(400, d, seed=hidden)
        sel = init_selection(400, k, seed=1)
        learner = LearnerSpec(hidden=hidden, lr=0.05, batch_size=batch_size)
        model = init_mlp(d, hidden, 10, seed=2).astype(dtype)
        reference = model.copy()
        train_epoch(model, data, sel, learner, rng=np.random.default_rng(3))
        self.serial_epoch(reference, data, sel, learner, seed=3)
        assert len(helpers) == asked
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(model, name).dtype == dtype
            np.testing.assert_array_equal(bits(getattr(model, name)), bits(getattr(reference, name)))
        if dtype != np.float64:
            for scored, ref in zip(predict_batch(model, data.features), predict_batch(reference, data.features)):
                np.testing.assert_array_equal(bits(scored), bits(ref))

    @pytest.mark.parametrize("switch_s", [None, 1e-6])
    def test_idx_width_at_batch_32_with_a_short_last_batch(self, helpers, switch_s):
        # 5 full batches split between the threads, then a last batch of 7 rows on this thread alone; at a
        # 1 us switch interval the two threads' steps interleave at random, and a lost update changes a bit
        interval = sys.getswitchinterval()
        sys.setswitchinterval(switch_s or interval)
        try:
            self.assert_bitwise_serial(784, 256, 32, 5 * 32 + 7, helpers, asked=1)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("hidden", [256, 128])
    def test_a_float32_epoch_at_idx_width_and_batch_32_gives_the_serial_loops_bits(self, helpers, monkeypatch, hidden):
        # 784 x 128 at batch 32 (3.2e6 multiply-adds) is below SPLIT_MULADDS, so it is let through to split here
        monkeypatch.setattr(mlp, "SPLIT_MULADDS", min(mlp.SPLIT_MULADDS, 32 * 784 * hidden))
        self.assert_bitwise_serial(784, hidden, 32, 5 * 32 + 7, helpers, asked=1, dtype=np.float32)

    def test_a_float32_odd_hidden_width_stays_serial(self, helpers):
        self.assert_bitwise_serial(784, 255, 32, 5 * 32 + 7, helpers, asked=0, dtype=np.float32)

    def test_halves_a_busy_helper_has_not_started_run_on_this_thread_with_the_same_bits(self, monkeypatch):
        go = threading.Event()
        monkeypatch.setattr(ahead, "_nudge", lambda cpu: go.wait(timeout=20))  # the helper starts no job in the epoch

        class Stalled(ahead.Helper):
            def __exit__(self, *exc):
                go.set()
                super().__exit__(*exc)

        given, ran_on = [], []
        monkeypatch.setattr(mlp, "helper", lambda: given.append(Stalled(None)) or given[-1])
        part = mlp._w1_part
        monkeypatch.setattr(mlp, "_w1_part", lambda *args: ran_on.append(threading.current_thread()) or part(*args))
        self.assert_bitwise_serial(784, 256, 32, 5 * 32 + 7, given, asked=1)
        # 6 split rounds of two halves (5 batches and the last step), then the short batch's 2 whole rounds
        assert ran_on == [threading.main_thread()] * 14

    def test_an_odd_hidden_width_stays_serial(self, helpers):
        # column halves of an odd width do not give the whole-width GEMM's bits, so it never splits
        self.assert_bitwise_serial(784, 255, 32, 5 * 32 + 7, helpers, asked=0)

    def test_batch_size_1(self, helpers, monkeypatch):
        # one row is far below SPLIT_MULADDS; lowering it sends single-row batches through the split
        self.assert_bitwise_serial(784, 256, 1, 70, helpers, asked=0)
        monkeypatch.setattr(mlp, "SPLIT_MULADDS", 1)
        self.assert_bitwise_serial(784, 256, 1, 70, helpers, asked=1)

    def test_the_split_size_rule_keeps_blobs_serial_and_splits_idx(self):
        assert 32 * 16 * 128 < mlp.SPLIT_MULADDS <= 32 * 784 * 256

    def test_a_blobs_sized_model_starts_no_thread(self, monkeypatch):
        def no_thread(thread):
            raise AssertionError(f"train_epoch started {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        data = make_blobs(300, 16, 10, separation=6.0, seed=0)
        model = init_mlp(16, 128, 10, seed=1)
        train_epoch(model, data, KSetSelection(np.arange(300)), LearnerSpec(128, 0.05, 32), np.random.default_rng(2))

    def test_an_epoch_without_a_helper_is_one_pass_with_the_serial_loops_bits(self, monkeypatch):
        passes, sgd = [], mlp._sgd

        def counted(model, data, order, *rest):
            passes.append(order.shape[0])
            sgd(model, data, order, *rest)

        monkeypatch.setattr(mlp, "_sgd", counted)
        data = make_blobs(300, 16, 10, separation=6.0, seed=0)
        sel, learner = init_selection(300, 7 * 32 + 5, seed=1), LearnerSpec(128, 0.05, 32)
        model = init_mlp(16, 128, 10, seed=2)
        reference = model.copy()
        train_epoch(model, data, sel, learner, np.random.default_rng(3))
        self.serial_epoch(reference, data, sel, learner, seed=3)
        assert passes == [7 * 32 + 5]
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(model, name).view(np.int64), getattr(reference, name).view(np.int64))

    def test_a_split_epoch_of_whole_batches_is_one_pass_with_the_serial_loops_bits(self, helpers, monkeypatch):
        # every idx epoch is whole batches (k 36,000 at batch 32): no short last batch, so no second pass
        passes, sgd = [], mlp._sgd

        def counted(model, data, order, labels, learner, pool):
            passes.append((order.shape[0], pool is not None))
            sgd(model, data, order, labels, learner, pool)

        monkeypatch.setattr(mlp, "_sgd", counted)
        self.assert_bitwise_serial(784, 256, 32, 5 * 32, helpers, asked=1)
        assert passes == [(5 * 32, True)]

    @pytest.mark.skipif(
        sys.platform != "linux" or not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="forks on Linux with two or more usable CPUs",
    )
    def test_a_fork_map_child_trains_without_a_helper(self, monkeypatch, fake_host):
        fake_host(threads=1)  # let the test process's BLAS pool through
        given = []
        monkeypatch.setattr(mlp, "helper", lambda: given.append(ahead.helper()) or given[-1])
        data = self.idx_like(200, 784, seed=4)

        def train(seed):
            model, learner = init_mlp(784, 256, 10, seed=seed), LearnerSpec(256, 0.05, 32)
            train_epoch(model, data, init_selection(200, 96, seed=6), learner, np.random.default_rng(7))
            return os.getpid(), given

        trained = fork_map(train, [0, 1])
        assert len({pid for pid, _ in trained} | {os.getpid()}) == 3  # each in its own child
        assert [asked for _, asked in trained] == [[None], [None]]

    def test_the_helper_is_joined_when_training_diverges(self, helpers):
        data = self.idx_like(200, 784, seed=4)
        model, learner = init_mlp(784, 256, 10, seed=5), LearnerSpec(256, 1e300, 32)
        before = threading.active_count()
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=r"1e\+300"):
            train_epoch(model, data, init_selection(200, 96, seed=6), learner, np.random.default_rng(7))
        assert len(helpers) == 1 and not helpers[0]._thread.is_alive()
        assert threading.active_count() == before


class TestEvaluate:
    def test_perfect_model(self):
        data = make_blobs(200, 3, 3, separation=9.0, seed=3)
        model = init_mlp(3, 16, 3, seed=4)
        sel = KSetSelection(np.arange(200))
        rng = np.random.default_rng(5)
        for _ in range(60):
            train_epoch(model, data, sel, LearnerSpec(lr=0.05, batch_size=16), rng=rng)
        assert evaluate(model, data.samples, data.true_labels).accuracy == 1.0

    def test_accuracy_matches_mean_indicator(self):
        data = make_blobs(100, 4, 3, separation=5.0, seed=6)
        model = init_mlp(4, 8, 3, seed=7)
        report = evaluate(model, data.samples, data.true_labels)
        assert report.accuracy == pytest.approx((report.predicted_labels == data.true_labels).mean(), abs=1e-12)

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(10_000, 4))
        y = rng.integers(0, 4, size=10_000)
        model = init_mlp(4, 8, 4, seed=9)
        report = evaluate(model, x, y)
        assert abs(report.accuracy - 0.25) < 0.02

    def test_prediction_records_feed_noise_risk(self):
        data = make_blobs(50, 3, 2, separation=5.0, seed=1)
        model = init_mlp(3, 4, 2, seed=2)
        report = evaluate(model, data.samples, data.assigned_labels)
        preds = report.predictions()
        assert len(preds) == 50
        assert all(0.0 < p.confidence <= 1.0 for p in preds)
        assert preds[0].assigned_label == data.assigned_labels[0]

    def test_argmax_tie_goes_to_smaller_class(self):
        model = MlpModel(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros((2, 3)), b2=np.zeros(3))
        predicted, conf = predict_batch(model, np.zeros((4, 2)))
        assert predicted.tolist() == [0, 0, 0, 0]
        np.testing.assert_allclose(conf, np.full(4, 1 / 3))


class TestFloat32:
    """A float32 model, a run's, computes in float32 throughout: no step promotes an array to float64."""

    @staticmethod
    def float_arrays(value):
        """Every float array in value, looking into tuples, lists and MlpModels."""
        if isinstance(value, np.ndarray):
            return [value] if np.issubdtype(value.dtype, np.floating) else []
        if isinstance(value, MlpModel):
            value = (value.w1, value.b1, value.w2, value.b2)
        if isinstance(value, (tuple, list)):
            return [array for item in value for array in TestFloat32.float_arrays(item)]
        return []

    def test_every_array_training_and_scoring_make_is_float32(self, monkeypatch, fake_host):
        fake_host(cpus=2, threads=1)  # a worker for the split and the scoring chunks where the host has two CPUs
        seen = []

        def spied(name):
            real = getattr(mlp, name)

            def call(*args):
                value = real(*args)
                seen.extend((name, array.dtype) for array in self.float_arrays((args, value)))
                return value

            monkeypatch.setattr(mlp, name, call)

        for name in ("_forward", "_output", "_backprop", "_descend", "_w1_part"):
            spied(name)
        monkeypatch.setattr(mlp, "SPLIT_MULADDS", 1)
        monkeypatch.setattr(mlp, "SCORE_CHUNK", 64)
        idx = TestSplitTraining.idx_like(200, 784, seed=1)
        blobs = make_blobs(200, 784, 10, separation=6.0, seed=2)  # float64 rows, cast a batch or chunk at a time
        for data in (idx, blobs):
            model = init_mlp(784, 64, 10, seed=3).astype(np.float32)
            train_epoch(model, data, init_selection(200, 3 * 32 + 5, seed=4), LearnerSpec(64, 0.01, 32),
                        np.random.default_rng(5))
            predict_batch(model, data.features)
            forward_batch(model, data.features[:3])
        assert {name for name, _ in seen} == {"_forward", "_output", "_backprop", "_descend", "_w1_part"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}

    def test_the_learning_rates_python_or_numpy_type_gives_the_same_bits(self):
        data, sel = make_blobs(300, 16, 4, separation=6.0, seed=0), init_selection(300, 200, seed=1)
        trained = []
        for lr in (0.05, np.float64(0.05), np.float32(0.05)):
            model = init_mlp(16, 32, 4, seed=2).astype(np.float32)
            train_epoch(model, data, sel, LearnerSpec(32, lr, 32), np.random.default_rng(3))
            trained.append(model)
        for model in trained[1:]:
            for name in ("w1", "b1", "w2", "b2"):
                np.testing.assert_array_equal(bits(getattr(model, name)), bits(getattr(trained[0], name)))

    def test_astype_rounds_each_parameter_once(self):
        model = init_mlp(7, 5, 3, seed=9)
        single = model.astype(np.float32)
        assert single.dtype == np.float32 and model.dtype == np.float64
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(bits(getattr(single, name)), bits(getattr(model, name).astype(np.float32)))

"""MLP forward/backward and the epoch trainer.

The backward pass is checked against central finite differences on
the scalar loss -ln p[label]; that oracle is independent of the
analytic derivation.  The in-place forward pass is checked bitwise
against the out-of-place formulas kept below as the reference.
"""

import tracemalloc

import numpy as np
import pytest

from ksetsel.datasets import make_blobs
from ksetsel.errors import DivergenceError, InputError, ParameterError
from ksetsel.mlp import (
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
    labels = np.empty(x.shape[0], dtype=np.int64)
    conf = np.empty(x.shape[0], dtype=np.float64)
    for start in range(0, x.shape[0], chunk):
        probs = ref_forward(model, x[start : start + chunk])[2]
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
    def test_predict_batch_across_chunk_boundaries(self, scale):
        model, x = self.model_and_inputs(1, 200, scale)
        for chunk in (1, 7, 200, 4096):
            labels, conf = predict_batch(model, x, chunk=chunk)
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
            train_epoch(model, data, sel, lr=0.1, batch_size=5, rng=np.random.default_rng(epoch))
            order = sel.indices[np.random.default_rng(epoch).permutation(sel.k)]
            for start in range(0, order.shape[0], 5):
                batch = order[start : start + 5]
                grads = batch_gradients(reference, data.samples[batch], data.assigned_labels[batch])
                sgd_step(reference, grads, 0.1)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(model, name), getattr(reference, name))


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

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_is_rejected(self, chunk):
        model = init_mlp(3, 4, 2, seed=0)
        with pytest.raises(ParameterError, match="chunk"):
            predict_batch(model, np.zeros((5, 3)), chunk=chunk)


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
        train_epoch(model, data, sel, lr=0.0, batch_size=4, rng=np.random.default_rng(3))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(model, name), getattr(before, name))

    def test_single_sample_batch_is_one_sgd_step(self):
        data = make_blobs(10, 3, 2, separation=5.0, seed=0)
        model = init_mlp(3, 4, 2, seed=1)
        reference = model.copy()
        sel = KSetSelection(np.array([6]))
        train_epoch(model, data, sel, lr=0.1, batch_size=1, rng=np.random.default_rng(0))
        grads = backward(reference, data.samples[6], int(data.assigned_labels[6]))
        sgd_step(reference, grads, 0.1)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_allclose(getattr(model, name), getattr(reference, name), atol=1e-14)

    def test_learns_clean_blobs(self):
        data = make_blobs(300, 4, 3, separation=8.0, seed=5)
        model = init_mlp(4, 16, 3, seed=6)
        sel = KSetSelection(np.arange(300))
        rng = np.random.default_rng(7)
        for _ in range(50):
            train_epoch(model, data, sel, lr=0.05, batch_size=16, rng=rng)
        report = evaluate(model, data.samples, data.true_labels)
        assert report.accuracy > 0.99

    def test_deterministic_given_seed(self):
        data = make_blobs(60, 3, 2, separation=5.0, seed=0)
        sel = init_selection(60, 20, seed=1)
        def run():
            model = init_mlp(3, 8, 2, seed=2)
            train_epoch(model, data, sel, lr=0.05, batch_size=8, rng=np.random.default_rng(9))
            return model
        a, b = run(), run()
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_selection_out_of_range(self):
        data = make_blobs(10, 2, 2, separation=5.0, seed=0)
        model = init_mlp(2, 4, 2, seed=0)
        with pytest.raises(InputError):
            train_epoch(model, data, KSetSelection(np.array([11])), 0.1, 4, np.random.default_rng(0))

    def test_bad_batch_size(self):
        data = make_blobs(10, 2, 2, separation=5.0, seed=0)
        model = init_mlp(2, 4, 2, seed=0)
        with pytest.raises(ParameterError):
            train_epoch(model, data, KSetSelection(np.array([0])), 0.1, 0, np.random.default_rng(0))

    def test_label_range_checked_before_any_update(self):
        # Only the last of the three batches holds a label the 2-class model lacks.
        data = make_blobs(30, 3, 3, separation=5.0, seed=0)
        bad = np.flatnonzero(data.assigned_labels == 2)[:1]
        good = np.flatnonzero(data.assigned_labels < 2)[:8]
        sel = KSetSelection(np.sort(np.concatenate([good, bad])))
        model = init_mlp(3, 4, 2, seed=1)
        before = model.copy()
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            train_epoch(model, data, sel, lr=0.1, batch_size=3, rng=np.random.default_rng(0))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(model, name), getattr(before, name))

    def test_feature_width_mismatch(self):
        data = make_blobs(10, 3, 2, separation=5.0, seed=0)
        with pytest.raises(InputError, match=r"\(m, 4\)"):
            train_epoch(init_mlp(4, 4, 2, seed=0), data, KSetSelection(np.arange(4)), 0.1, 2, np.random.default_rng(0))

    def test_bad_learning_rate_rejected_before_shuffle(self):
        data = make_blobs(10, 3, 2, separation=5.0, seed=0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="learning rate"):
            train_epoch(init_mlp(3, 4, 2, seed=0), data, KSetSelection(np.arange(4)), float("nan"), 2, rng)
        assert rng.bit_generator.state == state

    def test_divergence_names_parameter_and_learning_rate(self):
        data = make_blobs(40, 3, 2, separation=5.0, seed=0)
        model = init_mlp(3, 8, 2, seed=1)
        sel = init_selection(40, 20, seed=2)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=r"(w1|b1|w2|b2) .*1e\+200"):
            train_epoch(model, data, sel, lr=1e200, batch_size=4, rng=np.random.default_rng(3))


class TestEvaluate:
    def test_perfect_model(self):
        data = make_blobs(200, 3, 3, separation=9.0, seed=3)
        model = init_mlp(3, 16, 3, seed=4)
        sel = KSetSelection(np.arange(200))
        rng = np.random.default_rng(5)
        for _ in range(60):
            train_epoch(model, data, sel, lr=0.05, batch_size=16, rng=rng)
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

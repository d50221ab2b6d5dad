"""Single-hidden-layer MLP trained by plain mini-batch SGD.

Forward: relu(x W1 + b1) W2 + b2 -> softmax, with the row max
subtracted from the logits before exponentiation so huge logits do
not overflow.  Backward is the exact analytic gradient of the
cross-entropy loss -ln p[assigned]; for the softmax layer that is the
familiar (probs - onehot) error signal pushed back through the relu.

Everything is float64 and seeded; two runs from the same seed produce
bitwise-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import DivergenceError, InputError, ParameterError
from .feedback import Prediction
from .selection import KSetSelection

__all__ = [
    "MlpModel",
    "Gradients",
    "EvalReport",
    "init_mlp",
    "forward",
    "forward_batch",
    "backward",
    "batch_gradients",
    "sgd_step",
    "train_epoch",
    "predict_batch",
    "evaluate",
]


@dataclass
class MlpModel:
    w1: np.ndarray  # (d, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, C)
    b2: np.ndarray  # (C,)

    @property
    def dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def num_classes(self) -> int:
        return self.w2.shape[1]

    def copy(self) -> "MlpModel":
        return MlpModel(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


@dataclass
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def init_mlp(dim: int, hidden: int, num_classes: int, seed: int) -> MlpModel:
    """Weights uniform in +/- 1/sqrt(fan_in), biases zero, seeded."""
    if dim < 1 or hidden < 1 or num_classes < 1:
        raise ParameterError(f"need dim, hidden, num_classes >= 1, got {dim}, {hidden}, {num_classes}")
    rng = np.random.default_rng(seed)
    lim1 = 1.0 / np.sqrt(dim)
    lim2 = 1.0 / np.sqrt(hidden)
    return MlpModel(
        w1=rng.uniform(-lim1, lim1, size=(dim, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-lim2, lim2, size=(hidden, num_classes)),
        b2=np.zeros(num_classes),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """(m, d) inputs -> (m, C) class probabilities."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise InputError(f"expected inputs of shape (m, {model.dim}), got {x.shape}")
    hidden = np.maximum(x @ model.w1 + model.b1, 0.0)
    return _softmax(hidden @ model.w2 + model.b2)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Single-sample probabilities, shape (C,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise InputError(f"expected input of shape ({model.dim},), got {x.shape}")
    return forward_batch(model, x[None, :])[0]


def batch_gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> Gradients:
    """Mean cross-entropy gradient over a batch of assigned labels."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise InputError(f"expected inputs of shape (m, {model.dim}), got {x.shape}")
    if labels.shape != (x.shape[0],):
        raise InputError("labels must be one per input row")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise InputError(f"labels must lie in [0, {model.num_classes - 1}]")
    m = x.shape[0]
    pre = x @ model.w1 + model.b1
    hidden = np.maximum(pre, 0.0)
    probs = _softmax(hidden @ model.w2 + model.b2)
    err = probs
    err[np.arange(m), labels] -= 1.0
    err /= m
    d_hidden = err @ model.w2.T
    d_hidden[pre <= 0.0] = 0.0
    return Gradients(
        w1=x.T @ d_hidden,
        b1=d_hidden.sum(axis=0),
        w2=hidden.T @ err,
        b2=err.sum(axis=0),
    )


def backward(model: MlpModel, x: np.ndarray, label: int) -> Gradients:
    """Exact gradient of -ln p[label] for one sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a single sample of shape ({model.dim},), got {x.shape}")
    return batch_gradients(model, x[None, :], np.array([label]))


def sgd_step(model: MlpModel, grads: Gradients, lr: float) -> None:
    if not (np.isfinite(lr) and lr >= 0.0):
        raise ParameterError(f"learning rate must be finite and >= 0, got {lr}")
    model.w1 -= lr * grads.w1
    model.b1 -= lr * grads.b1
    model.w2 -= lr * grads.w2
    model.b2 -= lr * grads.b2


def train_epoch(
    model: MlpModel,
    dataset: Dataset,
    selection: KSetSelection,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
) -> MlpModel:
    """One pass of mini-batch SGD over the selected samples.

    The selected indices are shuffled, then visited exactly once in
    batches of batch_size (last batch may be short).  Labels are the
    assigned ones; the learner never sees true labels.  lr = 0 leaves
    the model bitwise unchanged.  Raises DivergenceError if a parameter
    is no longer finite at the end of the pass.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if selection.indices[-1] >= dataset.n:
        raise InputError(f"selection index {selection.indices[-1]} out of range for n={dataset.n}")
    order = selection.indices[rng.permutation(selection.k)]
    for start in range(0, order.shape[0], batch_size):
        batch = order[start : start + batch_size]
        grads = batch_gradients(model, dataset.samples[batch], dataset.assigned_labels[batch])
        sgd_step(model, grads, lr)
    for name in ("w1", "b1", "w2", "b2"):
        if not np.isfinite(getattr(model, name)).all():
            raise DivergenceError(f"training diverged: {name} is no longer finite at learning rate {lr}")
    return model


def predict_batch(model: MlpModel, x: np.ndarray, chunk: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and their probabilities; ties go to the smaller class."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise InputError(f"expected inputs of shape (m, {model.dim}), got {x.shape}")
    labels = np.empty(x.shape[0], dtype=np.int64)
    conf = np.empty(x.shape[0], dtype=np.float64)
    for start in range(0, x.shape[0], chunk):
        probs = forward_batch(model, x[start : start + chunk])
        part = probs.argmax(axis=1)
        labels[start : start + chunk] = part
        conf[start : start + chunk] = probs[np.arange(probs.shape[0]), part]
    return labels, conf


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    predicted_labels: np.ndarray
    confidences: np.ndarray
    assigned_labels: np.ndarray

    def predictions(self) -> list[Prediction]:
        return [
            Prediction(predicted_label=int(p), confidence=float(c), assigned_label=int(a))
            for p, c, a in zip(self.predicted_labels, self.confidences, self.assigned_labels)
        ]


def evaluate(model: MlpModel, samples: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Accuracy against the given labels plus per-sample predictions."""
    labels = np.asarray(labels, dtype=np.int64)
    samples = np.asarray(samples, dtype=np.float64)
    if labels.shape != (samples.shape[0],):
        raise InputError("labels must be one per sample")
    predicted, conf = predict_batch(model, samples)
    return EvalReport(
        accuracy=float((predicted == labels).mean()),
        predicted_labels=predicted,
        confidences=conf,
        assigned_labels=labels,
    )

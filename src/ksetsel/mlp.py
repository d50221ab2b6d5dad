"""Single-hidden-layer MLP trained by plain mini-batch SGD; LearnerSpec holds and checks its settings.

Forward: relu(x W1 + b1) W2 + b2 -> softmax, with the row max
subtracted from the logits before exponentiation so huge logits do
not overflow.  Backward is the exact analytic gradient of the
cross-entropy loss -ln p[assigned]; for the softmax layer that is the
familiar (probs - onehot) error signal pushed back through the relu.

Everything is float64 and seeded; two runs from the same seed produce
bitwise-identical parameters.  Inputs may also be u8 rows meaning
value / 255 (an IDX Dataset's features): training converts the rows
of each batch, and scoring converts one chunk at a time into a buffer
each scoring thread reuses, so no whole float64 copy of the inputs is
made.  The forward pass writes each step into the array the step
before made, so a scoring thread holds at most one hidden-sized
(chunk, h) temporary per chunk; training checks its inputs once per
epoch, not once per batch, and its SGD step scales the gradients it
owns in place.

Scoring rows that span two or more chunks runs on two threads: a
ReadAhead worker scores every other chunk while the caller scores the
rest.  The chunk boundaries are fixed by SCORE_CHUNK alone, and a
row's bits can depend on the row count of the GEMM it is scored in,
so the chunk size is part of the output contract and a chunk is never
split between threads.  Training stays on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ahead import ReadAhead
from .datasets import Dataset, float_rows
from .errors import DivergenceError, InputError, ParameterError
from .feedback import Prediction
from .selection import KSetSelection

__all__ = [
    "LearnerSpec",
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

SCORE_CHUNK = 4096  # rows per scoring GEMM, part of the output contract (see above)


@dataclass(frozen=True)
class LearnerSpec:
    """A run's learner settings, the one place they are checked: hidden width, SGD learning rate, batch size."""

    hidden: int = 256
    lr: float = 0.05
    batch_size: int = 32

    def __post_init__(self):
        for name in ("hidden", "batch_size"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise ParameterError(f"lr must be finite and >= 0, got {self.lr}")


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


def _check_width(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """x as (m, d) rows: u8 rows as they are (value / 255), any other rows as float64."""
    x = np.asarray(x)
    if x.dtype != np.uint8:
        x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise InputError(f"expected inputs of shape (m, {model.dim}), got {x.shape}")
    return x


def _check_rows(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return float_rows(_check_width(model, x))


def _check_labels(model: MlpModel, labels: np.ndarray) -> None:
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise InputError(f"labels must lie in [0, {model.num_classes - 1}]")


def _check_lr(lr: float) -> None:
    if not (np.isfinite(lr) and lr >= 0.0):
        raise ParameterError(f"learning rate must be finite and >= 0, got {lr}")


def _softmax(z: np.ndarray) -> None:
    """Turn the (m, C) logits z into probabilities, in place."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)


def _forward(model: MlpModel, x: np.ndarray, keep_pre: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pre-activation, hidden, probabilities) for checked float64 rows x.

    Each step writes into the array the previous one made.  The relu
    overwrites the pre-activation unless keep_pre, which the gradient
    path needs for the relu mask.
    """
    pre = x @ model.w1
    pre += model.b1
    hidden = np.maximum(pre, 0.0, out=None if keep_pre else pre)
    probs = hidden @ model.w2
    probs += model.b2
    _softmax(probs)
    return pre, hidden, probs


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """(m, d) inputs -> (m, C) class probabilities."""
    return _forward(model, _check_rows(model, x))[2]


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Single-sample probabilities, shape (C,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise InputError(f"expected input of shape ({model.dim},), got {x.shape}")
    return forward_batch(model, x[None, :])[0]


def _gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> Gradients:
    """batch_gradients without its checks: x float64 (m >= 1, d), int64 labels in range."""
    m = x.shape[0]
    pre, hidden, err = _forward(model, x, keep_pre=True)
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


def batch_gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> Gradients:
    """Mean cross-entropy gradient over a batch of assigned labels."""
    x = _check_rows(model, x)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (x.shape[0],):
        raise InputError("labels must be one per input row")
    if x.shape[0] == 0:
        raise InputError("batch is empty")
    _check_labels(model, labels)
    return _gradients(model, x, labels)


def backward(model: MlpModel, x: np.ndarray, label: int) -> Gradients:
    """Exact gradient of -ln p[label] for one sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a single sample of shape ({model.dim},), got {x.shape}")
    return batch_gradients(model, x[None, :], np.array([label]))


def sgd_step(model: MlpModel, grads: Gradients, lr: float) -> None:
    """model -= lr * grads; grads are left as they were."""
    _check_lr(lr)
    _step(model, Gradients(grads.w1.copy(), grads.b1.copy(), grads.w2.copy(), grads.b2.copy()), lr)


def _step(model: MlpModel, grads: Gradients, lr: float) -> None:
    """model -= lr * grads with no temporary: grads, which the caller owns and drops, become lr * grads."""
    for w, g in ((model.w1, grads.w1), (model.b1, grads.b1), (model.w2, grads.w2), (model.b2, grads.b2)):
        g *= lr
        w -= g


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
    the model bitwise unchanged.  The learning rate, feature width and
    label range are checked once, before the first batch.  Raises
    DivergenceError if a parameter is no longer finite at the end of
    the pass.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    _check_lr(lr)
    if selection.indices[-1] >= dataset.n:
        raise InputError(f"selection index {selection.indices[-1]} out of range for n={dataset.n}")
    if dataset.dim != model.dim:
        raise InputError(f"expected inputs of shape (m, {model.dim}), got {dataset.features.shape}")
    order = selection.indices[rng.permutation(selection.k)]
    labels = dataset.assigned_labels[order]
    _check_labels(model, labels)
    for start in range(0, order.shape[0], batch_size):
        batch = order[start : start + batch_size]
        grads = _gradients(model, dataset.rows(batch), labels[start : start + batch_size])
        _step(model, grads, lr)
    for name in ("w1", "b1", "w2", "b2"):
        if not np.isfinite(getattr(model, name)).all():
            raise DivergenceError(f"training diverged: {name} is no longer finite at learning rate {lr}")
    return model


def _score_chunks(
    model: MlpModel, x: np.ndarray, starts: range, chunk: int, labels: np.ndarray, conf: np.ndarray
) -> None:
    """Score the chunk-row chunks of checked rows x that begin at starts into labels and conf.

    u8 rows are converted into one (chunk, d) float64 buffer that every
    chunk reuses.
    """
    buf = np.empty((min(chunk, x.shape[0]), x.shape[1])) if x.dtype == np.uint8 else None
    for start in starts:
        stop = min(start + chunk, x.shape[0])
        rows = float_rows(x, slice(start, stop), None if buf is None else buf[: stop - start])
        probs = _forward(model, rows)[2]
        part = probs.argmax(axis=1)
        labels[start:stop] = part
        conf[start:stop] = probs[np.arange(probs.shape[0]), part]


def predict_batch(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and their probabilities; ties go to the smaller class.

    x is float rows, or u8 rows meaning value / 255, scored in chunks of
    SCORE_CHUNK rows.  When x spans two or more chunks, a ReadAhead
    worker (the thread of a one-worker ThreadPoolExecutor) scores every
    other chunk (the second, fourth, ...) as its one item while this
    thread scores the rest, then takes that item: the worker is joined
    before this returns or raises, and its exception is raised here.
    Each chunk is the same computation on the same rows whichever
    thread runs it, so the result does not depend on the split.
    """
    chunk = SCORE_CHUNK
    x = _check_width(model, x)
    labels = np.empty(x.shape[0], dtype=np.int64)
    conf = np.empty(x.shape[0], dtype=np.float64)
    starts = range(0, x.shape[0], chunk)
    if len(starts) < 2:
        _score_chunks(model, x, starts, chunk, labels, conf)
        return labels, conf
    odd = (_score_chunks(model, x, part, chunk, labels, conf) for part in (starts[1::2],))
    with ReadAhead(odd) as worker:
        _score_chunks(model, x, starts[::2], chunk, labels, conf)
        next(worker)
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
    """Accuracy against the given labels plus per-sample predictions; samples as predict_batch takes x."""
    labels = np.asarray(labels, dtype=np.int64)
    samples = np.asarray(samples)
    if labels.shape != (samples.shape[0],):
        raise InputError("labels must be one per sample")
    predicted, conf = predict_batch(model, samples)
    return EvalReport(
        accuracy=float((predicted == labels).mean()),
        predicted_labels=predicted,
        confidences=conf,
        assigned_labels=labels,
    )

"""Single-hidden-layer MLP trained by plain mini-batch SGD; LearnerSpec holds and checks its settings.

Forward: relu(x W1 + b1) W2 + b2 -> softmax, with the row max
subtracted from the logits before exponentiation so huge logits do
not overflow.  Backward is the exact analytic gradient of the
cross-entropy loss -ln p[assigned]; for the softmax layer that is the
familiar (probs - onehot) error signal pushed back through the relu.

Every step computes in the dtype of the model it is given: init_mlp
draws float64 weights, and a run (training.train_selective) trains
and scores a float32 copy of them, while the reference functions
(forward, backward, batch_gradients, sgd_step) keep a float64 model
float64.  Everything is seeded; two runs from the same seed produce
bitwise-identical parameters.  Float rows are cast to the model's
dtype one batch or chunk at a time; u8 rows mean value / 255 (an IDX
Dataset's features): training converts the rows of each batch, and
scoring converts one chunk at a time into a buffer of the model's
dtype that each scoring thread reuses, so no whole float copy of the
inputs is made.  Confidences come back as float64 whatever the
model's dtype.  The forward pass writes each step into the array the
step before made, so a scoring thread holds at most one hidden-sized
(chunk, h) temporary per chunk; training checks its inputs once per
epoch, not once per batch (its LearnerSpec checked itself when built),
and its SGD step scales the gradients it owns in place.

mlp reaches a second thread one way only, ahead.helper: a worker where
there is a spare CPU and no BLAS pool beside it, never in a fork_map
child; without one, all runs on the caller.  A job the worker has not
begun when the caller wants its result runs on the caller too.

Scoring rows that span two or more chunks hands every other chunk to
the worker while the caller scores the rest.  The chunk boundaries are
fixed by SCORE_CHUNK alone, and a row's bits can depend on the row
count of the GEMM it is scored in, so the chunk size is part of the
output contract and a chunk is never split between threads.

Training splits each batch's w1 work by contiguous column halves when
there is a worker, the hidden width is a multiple of 32 and a batch's
x @ w1 has at least SPLIT_MULADDS multiply-adds: the caller takes the
first half of x @ w1, the b1 add and relu, x.T @ d_hidden and the w1
and b1 steps, and the worker the second, in one round trip per batch;
the caller keeps the w2 GEMMs, softmax, error, d_hidden and the w2 and
b2 steps, and reads the next batch's rows while the worker ends its
half.  Every element is the same operation on the same values as in
the serial loop, and with OpenBLAS 0.3.31 a GEMM over a half of a
width that is a multiple of 32 gives each column the bits of the
whole-width GEMM, in float64 and float32 alike, unless just one of the
two takes OpenBLAS's small-matrix path (about 1e6 multiply-adds or
fewer: the float32 halves of 784 x 64 at batch 32 differ); the halves
of an odd width differ even then (784 x 255 at batch 32).
SPLIT_MULADDS >= 2e6 keeps each half off that path, so the weights are
bitwise the serial loop's.  It also keeps batches whose round trip
costs more than the split saves on one thread.  In float32 on 2 vCPUs,
at batch 32 and d 784, over 36,000-row idx epochs, the split read
0.86x at h 96 (2.4e6 multiply-adds), 0.97x at h 128 (3.2e6), 1.05x at
h 160 (4.0e6), 1.12x at h 192 (4.8e6) and 1.14-1.32x at h 256-384,
while a blobs batch (16 x 128) has 6.6e4.  A short last batch runs
whole on the caller.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .ahead import Helper, helper
from .datasets import Dataset, float_rows
from .errors import DivergenceError, InputError, ParameterError
from .feedback import Prediction
from .selection import KSetSelection

__all__ = [
    "LearnerSpec",
    "MlpModel",
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
SPLIT_MULADDS = 4_000_000  # a batch's x @ w1 multiply-adds from which training splits its w1 work (see above)


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

    @property
    def dtype(self) -> np.dtype:
        """The float dtype the model computes in: its weights'."""
        return self.w1.dtype

    def astype(self, dtype) -> "MlpModel":
        """A copy with every parameter cast to dtype."""
        return MlpModel(self.w1.astype(dtype), self.b1.astype(dtype), self.w2.astype(dtype), self.b2.astype(dtype))

    def copy(self) -> "MlpModel":
        return self.astype(self.dtype)


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
    """x as (m, d) rows: u8 rows (value / 255) and float rows as they are, any other rows as float64."""
    x = np.asarray(x)
    if x.dtype != np.uint8 and x.dtype.kind != "f":  # float rows are cast a batch or chunk at a time
        x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise InputError(f"expected inputs of shape (m, {model.dim}), got {x.shape}")
    return x


def _check_rows(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return float_rows(_check_width(model, x), dtype=model.dtype)


def _check_labels(model: MlpModel, labels: np.ndarray) -> None:
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise InputError(f"labels must lie in [0, {model.num_classes - 1}]")


def _softmax(z: np.ndarray) -> None:
    """Turn the (m, C) logits z into probabilities, in place."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)


def _forward(model: MlpModel, x: np.ndarray, keep_pre: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pre-activation, hidden, probabilities) for checked rows x of the model's dtype.

    Each step writes into the array the previous one made.  The relu
    overwrites the pre-activation unless keep_pre, which the gradient
    path needs for the relu mask.
    """
    pre = x @ model.w1
    pre += model.b1
    hidden = np.maximum(pre, 0.0, out=None if keep_pre else pre)
    return pre, hidden, _output(model, hidden)


def _output(model: MlpModel, hidden: np.ndarray) -> np.ndarray:
    """The (m, C) probabilities from the (m, h) hidden layer."""
    probs = hidden @ model.w2
    probs += model.b2
    _softmax(probs)
    return probs


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """(m, d) inputs -> (m, C) class probabilities."""
    return _forward(model, _check_rows(model, x))[2]


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Single-sample probabilities, shape (C,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise InputError(f"expected input of shape ({model.dim},), got {x.shape}")
    return forward_batch(model, x[None, :])[0]


def _gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> MlpModel:
    """batch_gradients without its checks: x of the model's dtype (m >= 1, d), int64 labels in range."""
    pre, hidden, err = _forward(model, x, keep_pre=True)
    d_hidden = _backprop(model, pre, err, labels)
    return MlpModel(
        w1=x.T @ d_hidden,
        b1=d_hidden.sum(axis=0),
        w2=hidden.T @ err,
        b2=err.sum(axis=0),
    )


def _backprop(model: MlpModel, pre: np.ndarray, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The hidden layer's error: probs become the output error (probs - onehot) / m in place."""
    m = probs.shape[0]
    probs[np.arange(m), labels] -= 1.0
    probs /= m
    d_hidden = probs @ model.w2.T
    np.putmask(d_hidden, pre <= 0.0, 0.0)  # branch-free: d_hidden[pre <= 0.0] = 0.0 took 3x as long at 32 x 256
    return d_hidden


def batch_gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> MlpModel:
    """Mean cross-entropy gradient over a batch of assigned labels, as an MlpModel of model's shapes."""
    x = _check_rows(model, x)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (x.shape[0],):
        raise InputError("labels must be one per input row")
    if x.shape[0] == 0:
        raise InputError("batch is empty")
    _check_labels(model, labels)
    return _gradients(model, x, labels)


def backward(model: MlpModel, x: np.ndarray, label: int) -> MlpModel:
    """Exact gradient of -ln p[label] for one sample, as an MlpModel of model's shapes."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a single sample of shape ({model.dim},), got {x.shape}")
    return batch_gradients(model, x[None, :], np.array([label]))


def sgd_step(model: MlpModel, grads: MlpModel, learner: LearnerSpec) -> None:
    """model -= learner.lr * grads, grads being an MlpModel of model's shapes; grads are left as they were."""
    _step(model, grads.copy(), learner.lr)


def _step(model: MlpModel, grads: MlpModel, lr: float) -> None:
    """model -= lr * grads with no temporary: grads, which the caller owns and drops, become lr * grads."""
    for w, g in ((model.w1, grads.w1), (model.b1, grads.b1), (model.w2, grads.w2), (model.b2, grads.b2)):
        _descend(w, g, lr)


def _descend(w: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """w -= lr * grad in place, grad becoming lr * grad, lr rounded to grad's dtype whatever its own type."""
    grad *= grad.dtype.type(lr)  # a numpy float64 lr would make a float32 product in float64 and round it after
    w -= grad


def train_epoch(
    model: MlpModel,
    dataset: Dataset,
    selection: KSetSelection,
    learner: LearnerSpec,
    rng: np.random.Generator,
) -> MlpModel:
    """One pass of mini-batch SGD over the selected samples, at learner's lr and batch_size.

    The selected indices are shuffled, then visited exactly once in
    batches of learner.batch_size (last batch may be short).  Labels
    are the assigned ones; the learner never sees true labels.  lr = 0
    leaves the model bitwise unchanged.  learner was checked when it was
    built; the feature width and label range are checked once, before
    the first batch.  Raises DivergenceError if a parameter is no longer
    finite at the end of the pass.  Each batch's w1 work may be split
    with one helper thread (see above), joined before this returns or
    raises; the weights are the same bits either way.
    """
    if selection.indices[-1] >= dataset.n:
        raise InputError(f"selection index {selection.indices[-1]} out of range for n={dataset.n}")
    if dataset.dim != model.dim:
        raise InputError(f"expected inputs of shape (m, {model.dim}), got {dataset.features.shape}")
    order = selection.indices[rng.permutation(selection.k)]
    labels = dataset.assigned_labels[order]
    _check_labels(model, labels)
    size = learner.batch_size
    splits = model.hidden % 32 == 0 and size * model.dim * model.hidden >= SPLIT_MULADDS and order.shape[0] >= size
    with (splits and helper()) or nullcontext() as pool:
        split = order.shape[0] - order.shape[0] % size if pool else 0  # full batches only: a short last one runs whole
        if pool:
            _sgd(model, dataset, order[:split], labels[:split], learner, pool)
        if split < order.shape[0]:
            _sgd(model, dataset, order[split:], labels[split:], learner, None)
    for name in ("w1", "b1", "w2", "b2"):
        if not np.isfinite(getattr(model, name)).all():
            raise DivergenceError(f"training diverged: {name} is no longer finite at learning rate {learner.lr}")
    return model


def _sgd(
    model: MlpModel, dataset: Dataset, order: np.ndarray, labels: np.ndarray, learner: LearnerSpec, pool: Helper | None
) -> None:
    """SGD over dataset's rows in order, with each batch's w1 work split between this thread and pool's worker if given.

    A batch starts with one round of w1 work: the previous batch's w1
    and b1 step, then this batch's x @ w1, b1 add and relu.  With pool,
    this thread does the round for w1's first h / 2 columns while the
    worker does it for the rest, each on a contiguous copy of its
    columns; this thread then reads the next batch's rows while the
    worker ends its half, and does the rest of the batch alone.  The
    copies go back into w1 whether the pass returns or raises.
    """
    h, size, lr, dtype = model.hidden, learner.batch_size, learner.lr, model.dtype
    cuts = [slice(0, h // 2), slice(h // 2, h)] if pool else [slice(0, h)]
    parts = [(np.ascontiguousarray(model.w1[:, cols]), model.b1[cols], cols) for cols in cuts]  # w1 itself when whole
    pre, hidden = np.empty((size, h), dtype), np.empty((size, h), dtype)
    last = None  # the previous batch's rows and hidden-layer error, whose w1 and b1 step is the next round's
    x = dataset.rows(order[:size], dtype=dtype)
    try:
        for start in range(0, order.shape[0], size):
            m = x.shape[0]
            upcoming = functools.partial(dataset.rows, order[start + size : start + 2 * size], dtype=dtype)
            x_next = _w1_round(parts, pool, lr, last, x, pre[:m], hidden[:m], then=upcoming)
            err = _output(model, hidden[:m])
            d_hidden = _backprop(model, pre[:m], err, labels[start : start + m])
            _descend(model.w2, hidden[:m].T @ err, lr)
            _descend(model.b2, err.sum(axis=0), lr)
            last, x = (x, d_hidden), x_next
        if last is not None:
            _w1_round(parts, pool, lr, last, None, None, None)
    finally:
        if pool:
            for w1, _, cols in parts:
                model.w1[:, cols] = w1


def _w1_round(parts: list[tuple], pool: Helper | None, lr: float, last, x, pre, hidden, then: Callable | None = None):
    """One round of w1 work: the first of parts on this thread and the second, if any, on pool's worker unless it has not started by then.

    then(), if given, runs on this thread after its part, while the
    worker may still be on its own; its value is returned.
    """
    if pool:
        pool.submit(_w1_part, parts[1], lr, last, x, pre, hidden)
    _w1_part(parts[0], lr, last, x, pre, hidden)
    value = then() if then else None
    if pool:
        pool.result()
    return value


def _w1_part(part: tuple, lr: float, last, x, pre, hidden) -> None:
    """part's w1 and b1 take last's step, if any; then x @ w1, b1 add and relu fill part's columns of pre and hidden."""
    w1, b1, cols = part
    if last is not None:
        rows, d_hidden = last
        d_hidden = d_hidden[:, cols]
        _descend(w1, rows.T @ d_hidden, lr)
        _descend(b1, d_hidden.sum(axis=0), lr)
    if x is not None:
        pre, hidden = pre[:, cols], hidden[:, cols]
        np.matmul(x, w1, out=pre)
        pre += b1
        np.maximum(pre, 0.0, out=hidden)


def _score_chunks(
    model: MlpModel, x: np.ndarray, starts: range, chunk: int, labels: np.ndarray, conf: np.ndarray
) -> None:
    """Score the chunk-row chunks of checked rows x that begin at starts into labels and conf.

    Float rows are cast to the model's dtype a chunk at a time; u8 rows
    are converted into one (chunk, d) buffer of that dtype that every
    chunk reuses.
    """
    dtype = model.dtype
    buf = np.empty((min(chunk, x.shape[0]), x.shape[1]), dtype) if x.dtype == np.uint8 else None
    for start in starts:
        stop = min(start + chunk, x.shape[0])
        rows = float_rows(x, slice(start, stop), None if buf is None else buf[: stop - start], dtype)
        probs = _forward(model, rows)[2]
        part = probs.argmax(axis=1)
        labels[start:stop] = part
        conf[start:stop] = probs[np.arange(probs.shape[0]), part]


def predict_batch(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and their probabilities; ties go to the smaller class.

    x is float rows, or u8 rows meaning value / 255, scored in chunks of
    SCORE_CHUNK rows.  When x spans two or more chunks and ahead.helper
    gives a worker, the worker scores every other chunk (the second,
    fourth, ...) as one job while this thread scores the rest, then
    takes its result: the worker is joined before this returns or
    raises, and its exception is raised here.  Each chunk is the same
    computation on the same rows whichever thread runs it, so the
    result does not depend on the split.
    """
    chunk = SCORE_CHUNK
    x = _check_width(model, x)
    labels = np.empty(x.shape[0], dtype=np.int64)
    conf = np.empty(x.shape[0], dtype=np.float64)
    starts = range(0, x.shape[0], chunk)
    with (len(starts) > 1 and helper()) or nullcontext() as pool:
        if pool:
            pool.submit(_score_chunks, model, x, starts[1::2], chunk, labels, conf)
        _score_chunks(model, x, starts[::2] if pool else starts, chunk, labels, conf)
        if pool:
            pool.result()
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

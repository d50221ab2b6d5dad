"""Risk feedback: scoring model predictions and synthetic risk streams.

The noise-risk of a prediction is (1 - s * p) / 2 where p is the
predicted class probability and s is +1 when the prediction agrees
with the assigned (possibly corrupted) label, -1 otherwise.  It lands
in [0, 1] and falls below 0.5 exactly when prediction and assigned
label agree, so low risk marks samples the current model considers
consistently labeled.

Synthetic streams exercise selectors without a learner: a planted
stream gives a known low-risk subset whose advantage grows over the
first quarter of the horizon, a drifting variant re-draws that subset
periodically, a uniform stream is pure iid noise, and the adversary
stream is the classic two-arm construction that forces the
unperturbed leader into linear regret.  stream_epochs builds a stream
one epoch at a time; generate_stream materialises the same floats.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError
from .selection import RiskVector
from .tables import read_table, write_table

__all__ = [
    "Prediction",
    "noise_risk",
    "noise_risk_scores",
    "StreamKind",
    "StreamSpec",
    "RiskStream",
    "stream_epochs",
    "generate_stream",
    "dump_stream_csv",
    "load_stream_csv",
]


@dataclass(frozen=True)
class Prediction:
    """A model's argmax class, its probability, and the assigned label."""

    predicted_label: int
    confidence: float
    assigned_label: int

    def __post_init__(self):
        if not (np.isfinite(self.confidence) and 0.0 < self.confidence <= 1.0):
            raise InputError(f"confidence must lie in (0, 1], got {self.confidence}")
        if self.predicted_label < 0 or self.assigned_label < 0:
            raise InputError("labels must be non-negative")


def noise_risk(pred: Prediction) -> float:
    """Risk of one prediction: (1 - s * confidence) / 2 with s = +/-1."""
    s = 1.0 if pred.predicted_label == pred.assigned_label else -1.0
    return (1.0 - s * pred.confidence) / 2.0


def noise_risk_scores(predicted: np.ndarray, confidence: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """Vectorized noise_risk over per-sample arrays."""
    predicted = np.asarray(predicted)
    assigned = np.asarray(assigned)
    conf = np.asarray(confidence, dtype=np.float64)
    if not (predicted.shape == conf.shape == assigned.shape):
        raise InputError(
            f"shape mismatch: predicted {predicted.shape}, confidence {conf.shape}, assigned {assigned.shape}"
        )
    if conf.size and (not np.isfinite(conf).all() or conf.min() <= 0.0 or conf.max() > 1.0):
        raise InputError("confidences must lie in (0, 1]")
    sign = np.where(predicted == assigned, 1.0, -1.0)
    return (1.0 - sign * conf) / 2.0


class StreamKind(str, enum.Enum):
    UNIFORM = "uniform"
    PLANTED = "planted"
    DRIFTING = "drifting"
    ADVERSARY = "adversary"


@dataclass(frozen=True)
class StreamSpec:
    """Parameters of a synthetic risk stream."""

    kind: StreamKind
    n: int
    epochs: int
    seed: int = 0
    clean_fraction: float = 0.5
    noise_scale: float = 0.1
    drift_period: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.clean_fraction <= 1.0:
            raise ParameterError(f"clean_fraction must lie in [0, 1], got {self.clean_fraction}")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ParameterError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if self.kind is StreamKind.DRIFTING:
            if self.drift_period is None or self.drift_period < 1:
                raise ParameterError("drifting stream needs drift_period >= 1")
        if self.kind is StreamKind.ADVERSARY and self.n != 2:
            raise ParameterError(f"adversary stream is defined for n=2, got n={self.n}")


@dataclass(frozen=True)
class RiskStream:
    """Generated risk vectors plus, when known, the per-epoch clean mask."""

    risks: list[RiskVector]
    clean_masks: np.ndarray | None = None  # (epochs, n) bool

    @property
    def n(self) -> int:
        return self.risks[0].n

    @property
    def epochs(self) -> int:
        return len(self.risks)


def _plant_means(t: int, epochs: int) -> tuple[float, float]:
    # Low-risk mean slides 0.5 -> 0.05 and high-risk 0.5 -> 0.95,
    # linearly over the first quarter of the horizon, then holds.
    warm = max(1, epochs // 4)
    ramp = min(t, warm) / warm
    return 0.5 - 0.45 * ramp, 0.5 + 0.45 * ramp


def _planted(spec: StreamSpec, drift_period: int | None) -> Iterator[tuple[RiskVector, np.ndarray]]:
    rng = np.random.default_rng(spec.seed)
    n_clean = int(round(spec.clean_fraction * spec.n))
    mask = None
    for t in range(1, spec.epochs + 1):
        if mask is None or (drift_period is not None and (t - 1) % drift_period == 0):
            mask = np.zeros(spec.n, dtype=bool)
            if n_clean > 0:
                mask[rng.choice(spec.n, size=n_clean, replace=False)] = True
        mu_clean, mu_noisy = _plant_means(t, spec.epochs)
        mu = np.where(mask, mu_clean, mu_noisy)
        theta = np.clip(mu + spec.noise_scale * rng.standard_normal(spec.n), 0.0, 1.0)
        yield RiskVector(theta), mask


def stream_epochs(spec: StreamSpec) -> Iterator[tuple[RiskVector, np.ndarray | None]]:
    """Yield (theta_t, clean mask or None) one epoch at a time; StreamSpec has checked spec.

    A mask is shared by the epochs up to its next redraw.  A drifting
    stream with drift_period >= epochs equals the planted stream of the
    same spec.  The adversary starts at theta_1 = (0.5, 0),
    then charges index 1 on even epochs and index 0 on odd ones: under
    the smaller-index tie rule the leader flips onto the charged index
    every epoch and accrues risk linear in the horizon, while the best
    fixed index stays near half of it.
    """
    if spec.kind is StreamKind.UNIFORM:
        rng = np.random.default_rng(spec.seed)
        return ((RiskVector(rng.uniform(0.0, 1.0, size=spec.n)), None) for _ in range(spec.epochs))
    if spec.kind is StreamKind.PLANTED:
        return _planted(spec, drift_period=None)
    if spec.kind is StreamKind.DRIFTING:
        return _planted(spec, drift_period=spec.drift_period)
    if spec.kind is StreamKind.ADVERSARY:
        thetas = [[0.5, 0.0]] + [[0.0, 1.0] if t % 2 == 0 else [1.0, 0.0] for t in range(2, spec.epochs + 1)]
        return ((RiskVector(np.array(theta)), None) for theta in thetas)
    raise ParameterError(f"unknown stream kind {spec.kind!r}")  # pragma: no cover


def generate_stream(spec: StreamSpec) -> RiskStream:
    """The stream of stream_epochs(spec), materialised: the same floats."""
    risks, masks = zip(*stream_epochs(spec))
    return RiskStream(risks=list(risks), clean_masks=None if masks[0] is None else np.stack(masks))


def dump_stream_csv(stream: RiskStream, path) -> None:
    """Write one row per epoch: epoch,theta_0,...,theta_{n-1}.

    Values are written with 17 significant digits so a replay
    reproduces the floats exactly.
    """
    rows = ((t, *theta.values.tolist()) for t, theta in enumerate(stream.risks, start=1))
    write_table(path, ["epoch", *(f"theta_{i}" for i in range(stream.n))], rows, ".17g")


def load_stream_csv(path) -> RiskStream:
    """Replay a stream dumped by dump_stream_csv; its epoch column must read 1, 2, ..., T."""
    epochs, values, lines = read_table(path, "epoch", "theta_", "values", InputError)
    wrong = np.flatnonzero(epochs != np.arange(1, epochs.shape[0] + 1))
    if wrong.size:
        i = wrong[0]
        raise InputError(f"{path}: row {lines[i]}: epoch {epochs[i]}, expected {i + 1}")
    return RiskStream(risks=[RiskVector(theta) for theta in values], clean_masks=None)

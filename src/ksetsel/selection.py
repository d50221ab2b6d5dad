"""Online k-set selection over per-sample risk feedback.

Each epoch a selector picks k of n sample indices, then observes a
risk vector theta_t in [0, 1]^n.  The perturbed-leader selector adds
fresh Gaussian noise (scaled by eta) to the accumulated risks before
taking the k smallest entries; with eta = 0 it degenerates to plain
follow-the-leader.  All selectors share one tie rule: on equal scores
the smaller index wins, i.e. selections follow a stable sort by
(score, index).

Selection is O(n) expected per epoch via introselect partitioning
(numpy argpartition); a full sort is never required outside tests.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError

__all__ = [
    "Strategy",
    "RiskVector",
    "KSetSelection",
    "CumulativeRisk",
    "SelectorConfig",
    "top_k_smallest",
    "sample_perturbation",
    "fpl_select",
    "ftl_select",
    "greedy_select",
    "hindsight_best",
    "init_selection",
    "accumulate",
]


class Strategy(str, enum.Enum):
    """Selection strategies exposed by the experiment harness."""

    FPL = "fpl"
    NAIVE = "naive"
    GREEDY = "greedy"
    RANDOM = "random"


def _as_scores(values, name: str = "scores") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class RiskVector:
    """Per-sample risk feedback for one epoch, entries in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_scores(self.values, "risk values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InputError("risk values must lie in [0, 1]")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class KSetSelection:
    """A set of k sample indices, stored strictly increasing."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise InputError(f"selection must be a non-empty 1-d index array, got shape {idx.shape}")
        if idx.min() < 0:
            raise InputError("selection indices must be non-negative")
        if not (np.diff(idx) > 0).all():
            raise InputError("selection indices must be strictly increasing (distinct)")
        object.__setattr__(self, "indices", idx)

    @property
    def k(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class CumulativeRisk:
    """Running elementwise sum of observed risk vectors."""

    sums: np.ndarray
    epochs_seen: int

    def __post_init__(self):
        arr = _as_scores(self.sums, "cumulative sums")
        if self.epochs_seen < 0:
            raise InputError("epochs_seen must be non-negative")
        # Loose bound check: risks are in [0, 1], so sums stay within
        # [0, epochs_seen] up to accumulated rounding.
        tol = 1e-9 * max(1, self.epochs_seen)
        if arr.min() < -tol or arr.max() > self.epochs_seen + tol:
            raise InputError("cumulative sums outside [0, epochs_seen]")
        object.__setattr__(self, "sums", arr)

    @classmethod
    def zeros(cls, n: int) -> "CumulativeRisk":
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        return cls(sums=np.zeros(n, dtype=np.float64), epochs_seen=0)

    @property
    def n(self) -> int:
        return self.sums.shape[0]


@dataclass(frozen=True)
class SelectorConfig:
    """Which strategy to run and with what knobs.

    eta is the perturbation scale used by the FPL strategy; the other
    strategies ignore it.  The regret guarantee needs k <= n - 1, so a
    degenerate k = n selection is accepted but warned about.
    """

    strategy: Strategy
    k: int
    eta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if not np.isfinite(self.eta) or self.eta < 0.0:
            raise ParameterError(f"eta must be finite and >= 0, got {self.eta}")

    def check_n(self, n: int) -> None:
        if self.k > n:
            raise ParameterError(f"k={self.k} exceeds n={n}")
        if self.k == n:
            warnings.warn(
                "k = n selects every sample; the regret guarantee requires k <= n - 1",
                UserWarning,
                stacklevel=3,
            )


def top_k_smallest(scores, k: int) -> KSetSelection:
    """Indices of the k smallest scores, smaller index winning ties.

    Expected O(n) via introselect partitioning: only the boundary
    value's ties need explicit ordering, everything strictly below it
    belongs to the answer outright.
    """
    arr = _as_scores(scores)
    n = arr.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    if k == n:
        return KSetSelection(np.arange(n, dtype=np.int64))
    part = np.argpartition(arr, k - 1)
    boundary = arr[part[k - 1]]
    below = np.flatnonzero(arr < boundary)
    at_boundary = np.flatnonzero(arr == boundary)
    chosen = np.concatenate([below, at_boundary[: k - below.size]])
    chosen.sort()
    return KSetSelection(chosen)


def sample_perturbation(rng: np.random.Generator, n: int) -> np.ndarray:
    """One fresh standard-normal draw per sample index."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return rng.standard_normal(n)


def fpl_select(cum: CumulativeRisk, k: int, eta: float, rng: np.random.Generator) -> KSetSelection:
    """Perturbed leader: k smallest entries of sums + eta * noise.

    Draws fresh perturbations on every call.  eta = 0 reproduces
    ftl_select bit for bit (the perturbation is still drawn, so the
    generator state advances identically for any eta).
    """
    if not np.isfinite(eta) or eta < 0.0:
        raise ParameterError(f"eta must be finite and >= 0, got {eta}")
    noise = sample_perturbation(rng, cum.n)
    return top_k_smallest(cum.sums + eta * noise, k)


def ftl_select(cum: CumulativeRisk, k: int) -> KSetSelection:
    """Plain leader: k smallest cumulative sums, no perturbation.

    This is also the best fixed k-set in hindsight (hindsight_best):
    the objective is linear in the selection, so the optimum over all
    C(n, k) subsets is just the bottom-k of the cumulative sums.
    """
    return top_k_smallest(cum.sums, k)


hindsight_best = ftl_select


def greedy_select(last: RiskVector, k: int) -> KSetSelection:
    """k smallest entries of the most recent risk vector only.

    No history: this is the memoryless ablation.  For epoch 1 (no
    feedback yet) use init_selection instead.
    """
    return top_k_smallest(last.values, k)


def init_selection(n: int, k: int, seed: int | np.random.Generator) -> KSetSelection:
    """Uniformly random k-subset of [0, n); a Generator seed is drawn from in place."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=k, replace=False)
    idx.sort()
    return KSetSelection(idx.astype(np.int64))


def accumulate(cum: CumulativeRisk, theta: RiskVector) -> CumulativeRisk:
    """Fold one epoch of feedback into the running sums."""
    if cum.n != theta.n:
        raise InputError(f"dimension mismatch: cumulative n={cum.n}, risk n={theta.n}")
    return CumulativeRisk(sums=cum.sums + theta.values, epochs_seen=cum.epochs_seen + 1)


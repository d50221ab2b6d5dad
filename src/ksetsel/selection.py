"""Online k-set selection over per-sample risk feedback.

Each epoch a selector picks k of n sample indices, then observes a
risk vector theta_t in [0, 1]^n.  The perturbed-leader selector adds
fresh Gaussian noise (scaled by eta) to the accumulated risks before
taking the k smallest entries; with eta = 0 it degenerates to plain
follow-the-leader.  All selectors share one tie rule: on equal scores
the smaller index wins, i.e. selections follow a stable sort by
(score, index).

Bottom-k is O(n) expected per call: one introselect partition of the
values (numpy partition) finds the k-th smallest score, a mask keeps
everything at or below it, and only when ties at that boundary
overflow k are the largest-index ones cleared; the kept indices come
out increasing, so neither an index partition nor a sort is needed.

Each vector is checked once, where it enters: RiskVector,
CumulativeRisk and top_k_smallest reject non-finite entries through
the same min and max that their range checks use (NaN and +/-inf
propagate through both).  ftl_select and greedy_select hand their
already-checked vectors straight to the bottom-k; fpl_select checks
the perturbed scores it builds, where only a huge eta can overflow.
"""

from __future__ import annotations

import enum
import math
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


def _as_scores(values, name: str = "scores") -> tuple[np.ndarray, float, float]:
    """values as a finite non-empty float64 vector, with its min and max.

    NaN and +/-inf propagate through min and max, so the extremes a
    range check needs carry the finiteness check too.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a non-empty 1-d array, got shape {arr.shape}")
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"{name} contains non-finite entries")
    return arr, lo, hi


@dataclass(frozen=True)
class RiskVector:
    """Per-sample risk feedback for one epoch, entries in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr, lo, hi = _as_scores(self.values, "risk values")
        if lo < 0.0 or hi > 1.0:
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
        arr, lo, hi = _as_scores(self.sums, "cumulative sums")
        if self.epochs_seen < 0:
            raise InputError("epochs_seen must be non-negative")
        # Loose bound check: risks are in [0, 1], so sums stay within
        # [0, epochs_seen] up to accumulated rounding.
        tol = 1e-9 * max(1, self.epochs_seen)
        if lo < -tol or hi > self.epochs_seen + tol:
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
    """What every strategy of one run shares: k, eta and the run seed.

    eta is the perturbation scale used by the FPL strategy; the other
    strategies ignore it.  The regret guarantee needs k <= n - 1, so a
    degenerate k = n selection is accepted but warned about.
    """

    k: int
    eta: float = 0.0
    seed: int = 0  # the run seed, which the selector RNG and the epoch-1 k-set are spawned from

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

    Expected O(n): see _bottom_k.  scores are checked here.
    """
    return _bottom_k(_as_scores(scores)[0], k)


def _bottom_k(arr: np.ndarray, k: int) -> KSetSelection:
    """top_k_smallest of a float64 vector that its caller has checked.

    Everything strictly below the k-th smallest value belongs to the
    answer outright; of the ties at that value, the smallest indices
    fill the remaining places.
    """
    n = arr.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    if k == n:
        return KSetSelection(np.arange(n, dtype=np.int64))
    boundary = np.partition(arr, k - 1)[k - 1]
    keep = arr <= boundary
    surplus = int(np.count_nonzero(keep)) - k
    if surplus:
        keep[np.flatnonzero(arr == boundary)[-surplus:]] = False
    return KSetSelection(np.flatnonzero(keep))


def sample_perturbation(rng: np.random.Generator, n: int) -> np.ndarray:
    """One fresh standard-normal draw per sample index."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return rng.standard_normal(n)


def fpl_select(cum: CumulativeRisk, k: int, eta: float, noise: np.ndarray) -> KSetSelection:
    """Perturbed leader: k smallest entries of sums + eta * noise.

    noise is one fresh sample_perturbation draw of cum.n values, which
    the caller draws from its own generator (run_epochs draws each one
    an epoch ahead).  It must be a finite float64 vector, and it is
    overwritten with the scores, so a draw serves one call.  eta = 0
    reproduces ftl_select bit for bit.
    """
    if not np.isfinite(eta) or eta < 0.0:
        raise ParameterError(f"eta must be finite and >= 0, got {eta}")
    if not isinstance(noise, np.ndarray) or noise.dtype != np.float64:
        raise InputError(f"perturbation must be a float64 array, got {getattr(noise, 'dtype', type(noise).__name__)}")
    if noise.shape != (cum.n,):
        raise InputError(f"perturbation shape {noise.shape} does not match n={cum.n}")
    scores = noise
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is reported below
        scores *= eta  # in place, the same bits as cum.sums + eta * noise
        scores += cum.sums
    try:
        return top_k_smallest(scores, k)
    except InputError:
        # The sums are finite.  An overflow of eta times a finite draw
        # gives inf, never nan, and needs eta > 1; anything else was
        # already in the perturbation.
        if eta <= 1.0 or np.isnan(scores).any():
            raise InputError("perturbation contains non-finite entries") from None
        raise ParameterError(f"eta={eta:g} is too large: the perturbed scores overflow") from None


def ftl_select(cum: CumulativeRisk, k: int) -> KSetSelection:
    """Plain leader: k smallest cumulative sums, no perturbation.

    This is also the best fixed k-set in hindsight (hindsight_best):
    the objective is linear in the selection, so the optimum over all
    C(n, k) subsets is just the bottom-k of the cumulative sums.
    """
    return _bottom_k(cum.sums, k)


hindsight_best = ftl_select


def greedy_select(last: RiskVector, k: int) -> KSetSelection:
    """k smallest entries of the most recent risk vector only.

    No history: this is the memoryless ablation.  For epoch 1 (no
    feedback yet) use init_selection instead.
    """
    return _bottom_k(last.values, k)


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


"""Risk and regret accounting for recorded selection runs.

Pure functions over traces: no learner state, no RNG.  Regret is
measured against the best fixed k-set in hindsight; the linearity of
the objective makes that optimum the bottom-k of the summed risks.

Closed-form guarantees, with ln C(n, k) evaluated through log-gamma
so large (n, k) stay finite:

  regret_bound(n, k, T)        = 2 * sqrt(2 k T ln C(n, k))
      expected-regret ceiling of the perturbed-leader selector at
      eta = sqrt(k T), valid for 1 <= k <= n - 1.

  avg_risk_bound(n, k, T, a)   = a k (2 sqrt(2 ln n) / sqrt(T a) + 1)
      ceiling on average selection risk, where a in (0, 1] scales the
      best fixed selection's total risk as a * k * T.  Decreasing in
      T and tends to a * k as T grows.

BoundReport is the one report of both: `bounds` prints it for
(n, k, T, alpha), and `simulate` prints it under each selector with the
run's empirical regret and average risk appended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, ParameterError
from .selection import CumulativeRisk, KSetSelection, RiskVector, hindsight_best

__all__ = [
    "SelectionTrace",
    "BoundReport",
    "log_binomial",
    "total_selection_risk",
    "regret",
    "average_selection_risk",
    "label_precision",
    "regret_bound",
    "avg_risk_bound",
]


@dataclass(frozen=True)
class SelectionTrace:
    """Aligned per-epoch selections and the risks they were charged."""

    selections: Sequence[KSetSelection]
    risks: Sequence[RiskVector]

    def __post_init__(self):
        if len(self.selections) == 0 or len(self.selections) != len(self.risks):
            raise InputError(
                f"trace needs equal, non-zero epochs: {len(self.selections)} selections, "
                f"{len(self.risks)} risk vectors"
            )
        n = self.risks[0].n
        k = self.selections[0].k
        for t, (sel, theta) in enumerate(zip(self.selections, self.risks)):
            if theta.n != n:
                raise InputError(f"epoch {t + 1}: risk vector has n={theta.n}, expected {n}")
            if sel.k != k:
                raise InputError(f"epoch {t + 1}: selection has k={sel.k}, expected {k}")
            if sel.indices[-1] >= n:
                raise InputError(f"epoch {t + 1}: selection index out of range for n={n}")

    @property
    def n(self) -> int:
        return self.risks[0].n

    @property
    def k(self) -> int:
        return self.selections[0].k

    @property
    def epochs(self) -> int:
        return len(self.risks)

    def summed_risks(self) -> CumulativeRisk:
        total = np.zeros(self.n, dtype=np.float64)
        for theta in self.risks:
            total += theta.values
        return CumulativeRisk(sums=total, epochs_seen=self.epochs)


@dataclass(frozen=True)
class BoundReport:
    """The closed-form ceilings for (n, k, T, alpha), with a run's empirical numbers beside them.

    BoundReport.ceilings builds it and is the one place the domain rules
    apply: at k = n both ceilings are None, and an alpha of 0 (a best
    fixed k-set of zero risk) gives neither alpha nor an avg-risk
    ceiling.  lines() prints the ceilings, then the empirical regret
    and average risk when the report carries them.
    """

    n: int
    k: int
    epochs: int
    regret_ceiling: float | None  # None at k = n, where the guarantee is void
    alpha: float | None = None
    avg_risk_ceiling: float | None = None
    empirical_regret: float | None = None
    empirical_avg_risk: float | None = None

    @classmethod
    def ceilings(cls, n: int, k: int, epochs: int, alpha: float | None = None) -> BoundReport:
        """The report for (n, k, T, alpha); alpha None or 0 gives no avg-risk ceiling."""
        alpha = alpha or None
        if k == n:
            return cls(n, k, epochs, None, alpha)
        risk_ceiling = None if alpha is None else avg_risk_bound(n, k, epochs, alpha)
        return cls(n, k, epochs, regret_bound(n, k, epochs), alpha, risk_ceiling)

    def lines(self) -> list[str]:
        out = [f"n={self.n} k={self.k} T={self.epochs}"]
        if self.regret_ceiling is None:
            out.append("regret ceiling: undefined for k = n (guarantee needs k <= n - 1)")
        else:
            out.append(f"regret ceiling (eta = sqrt(kT)): {self.regret_ceiling:.10g}")
        out.append(f"trivial risk ceiling k*T: {float(self.k * self.epochs):.10g}")
        if self.alpha is not None and self.avg_risk_ceiling is None:
            out.append("avg-risk ceiling: undefined for k = n")
        elif self.alpha is not None:
            out.append(f"avg-risk ceiling (alpha={self.alpha:.10g}): {self.avg_risk_ceiling:.10g}")
        if self.empirical_regret is not None:
            out.append(f"empirical regret:        {self.empirical_regret:.6g}")
            out.append(f"empirical avg risk:      {self.empirical_avg_risk:.6g}")
        return out


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma; exact enough for n in the millions."""
    if n < 1 or not 0 <= k <= n:
        raise ParameterError(f"need 0 <= k <= n with n >= 1, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def total_selection_risk(trace: SelectionTrace) -> float:
    """Sum over epochs of the risk charged to the selected indices."""
    return float(sum(theta.values[sel.indices].sum() for sel, theta in zip(trace.selections, trace.risks)))


def regret(trace: SelectionTrace) -> float:
    """Total selection risk minus the best fixed k-set's total risk."""
    cum = trace.summed_risks()
    best = hindsight_best(cum, trace.k)
    return total_selection_risk(trace) - float(cum.sums[best.indices].sum())


def average_selection_risk(trace: SelectionTrace) -> float:
    """Total selection risk divided by the number of epochs."""
    return total_selection_risk(trace) / trace.epochs


def label_precision(selection: KSetSelection, clean_mask: np.ndarray) -> float:
    """Fraction of the selected indices whose labels are clean."""
    mask = np.asarray(clean_mask)
    if mask.ndim != 1 or mask.dtype != np.bool_:
        raise InputError("clean_mask must be a 1-d boolean array")
    if selection.indices[-1] >= mask.shape[0]:
        raise InputError(
            f"selection index {selection.indices[-1]} out of range for mask of length {mask.shape[0]}"
        )
    return float(mask[selection.indices].mean())


def _check_n_k_epochs(n: int, k: int, epochs: int) -> None:
    """The domain both ceilings share: n >= 2, 1 <= k <= n - 1, epochs >= 1."""
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k must be in [1, n-1] = [1, {n - 1}], got {k}")
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs}")


def regret_bound(n: int, k: int, epochs: int) -> float:
    """Expected-regret ceiling 2 sqrt(2 k T ln C(n, k)).

    Holds for the perturbed-leader selector at eta = sqrt(k T) against
    any risk stream with entries in [0, 1].  Requires 1 <= k <= n - 1:
    at k = n there is nothing to select and the guarantee is void.
    """
    _check_n_k_epochs(n, k, epochs)
    return 2.0 * math.sqrt(2.0 * k * epochs * log_binomial(n, k))


def avg_risk_bound(n: int, k: int, epochs: int, alpha: float) -> float:
    """Average-selection-risk ceiling alpha*k*(2 sqrt(2 ln n)/sqrt(T alpha) + 1).

    alpha in (0, 1] is the best fixed selection's total risk expressed
    as a fraction of its k*T ceiling; measure it post hoc as
    hindsight_total / (k * T) and reject non-positive values.
    """
    _check_n_k_epochs(n, k, epochs)
    if not (np.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha * k * (2.0 * math.sqrt(2.0 * math.log(n)) / math.sqrt(epochs * alpha) + 1.0)

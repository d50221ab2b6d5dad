"""The online selection engine and the one epoch loop every mode drives.

An OnlineSelector holds one strategy and its RNG.  run_epochs drives
a list of them in lockstep over one risk stream: each epoch every
selector picks a k-set from the shared Hindsight ledger, the caller's
feedback function reveals that epoch's risk vector theta_t, the ledger
folds theta_t into its sums once, and each selector is charged its
prefix regret against the best fixed k-set over epochs 1..t.

train_selective plugs the learner in as feedback: train the model on
the selected k samples, then score every training sample's
noise-risk from a full forward pass.  In every mode epoch 1 takes one
seeded uniformly random k-set because no feedback exists yet.

Wall time is recorded but is the one column outside the determinism
contract: with a fixed config and seed everything else is
reproducible bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytics import label_precision
from .datasets import Dataset
from .errors import InputError, ParameterError
from .feedback import noise_risk_scores
from .mlp import MlpModel, init_mlp, predict_batch, train_epoch
from .selection import (
    CumulativeRisk,
    KSetSelection,
    RiskVector,
    SelectorConfig,
    Strategy,
    accumulate,
    fpl_select,
    ftl_select,
    greedy_select,
    init_selection,
)

__all__ = [
    "TrainConfig",
    "EpochMetrics",
    "TrainResult",
    "Hindsight",
    "OnlineSelector",
    "run_epochs",
    "select_sequence",
    "train_selective",
]


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run; SelectorConfig holds the k and eta rules."""

    strategy: Strategy
    k: int
    epochs: int
    eta: float = 0.0
    hidden: int = 256
    lr: float = 0.05
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        self.selector_config()
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.hidden < 1 or self.batch_size < 1:
            raise ParameterError("hidden and batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise ParameterError(f"lr must be finite and >= 0, got {self.lr}")

    def selector_config(self) -> SelectorConfig:
        return SelectorConfig(strategy=self.strategy, k=self.k, eta=self.eta, seed=self.seed)


@dataclass(frozen=True)
class EpochMetrics:
    """One row of the per-epoch metrics table."""

    epoch: int
    selection_risk: float
    cum_regret: float
    label_precision: float
    train_acc: float
    test_acc: float
    wall_ms: float


@dataclass
class TrainResult:
    model: MlpModel
    metrics: list[EpochMetrics]
    selections: list[KSetSelection]
    cum: CumulativeRisk


class Hindsight:
    """What the selectors on one risk stream have seen: sums, last theta and leader.

    The leader, the k smallest sums, is naive's next pick and the best
    fixed k-set in hindsight; best_total is its total risk so far.
    """

    def __init__(self, n: int, k: int):
        self.k = k
        self.cum = CumulativeRisk.zeros(n)
        self.last: RiskVector | None = None
        self.leader: KSetSelection | None = None
        self.best_total = 0.0

    def observe(self, theta: RiskVector) -> None:
        self.cum = accumulate(self.cum, theta)
        self.last = theta
        self.leader = ftl_select(self.cum, self.k)
        self.best_total = float(self.cum.sums[self.leader.indices].sum())


def _seed_streams(seed: int) -> list[np.random.SeedSequence]:
    """The run seed's streams: model init, batch shuffle, selector RNG, epoch-1 k-set; data uses the seed itself."""
    return np.random.SeedSequence(seed).spawn(4)


class OnlineSelector:
    """One strategy and its RNG; select(seen) picks from a Hindsight ledger that has feedback.

    cfg.seed is the run seed and the RNG its selector stream; epoch 1,
    before any feedback, is run_epochs' seeded k-set for every selector.
    """

    def __init__(self, cfg: SelectorConfig, n: int):
        cfg.check_n(n)
        self.cfg = cfg
        self.n = n
        self.rng = np.random.default_rng(_seed_streams(cfg.seed)[2])

    def select(self, seen: Hindsight) -> KSetSelection:
        cfg = self.cfg
        if seen.last is None:
            raise InputError("no feedback observed yet: epoch 1 takes the run's seeded k-set from run_epochs")
        if cfg.strategy is Strategy.FPL:
            return fpl_select(seen.cum, cfg.k, cfg.eta, self.rng)
        if cfg.strategy is Strategy.NAIVE:
            return seen.leader
        if cfg.strategy is Strategy.GREEDY:
            return greedy_select(seen.last, cfg.k)
        if cfg.strategy is Strategy.RANDOM:
            return init_selection(self.n, cfg.k, self.rng)
        raise ParameterError(f"unknown strategy {cfg.strategy!r}")  # pragma: no cover


def run_epochs(
    selectors: list[OnlineSelector], epochs: int, feedback: Callable
) -> tuple[list[list[EpochMetrics]], Hindsight]:
    """The epoch loop over selectors sharing one stream, n, k and run seed; returns their metrics and the ledger.

    feedback(epoch, picks) gets one selection per selector and returns
    (theta_t as a RiskVector, the clean mask or None, train accuracy,
    test accuracy).  Epoch 1 gives every selector the run seed's k-set,
    later epochs each one's own pick.  Label precision is nan without a
    clean mask.  wall_ms runs from the first pick to folding theta_t in,
    alike in every selector's row.  Selections are not kept; a caller
    that needs them records them in its feedback.
    """
    if len({(s.n, s.cfg.k, s.cfg.seed) for s in selectors}) != 1:
        raise ParameterError("selectors in one run must share n, k and seed")
    n, k, seed = selectors[0].n, selectors[0].cfg.k, selectors[0].cfg.seed
    first = init_selection(n, k, seed=int(_seed_streams(seed)[3].generate_state(1)[0]))
    seen = Hindsight(n, k)
    spent = [0.0] * len(selectors)
    metrics: list[list[EpochMetrics]] = [[] for _ in selectors]
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        picks = [first if epoch == 1 else s.select(seen) for s in selectors]
        theta, clean_mask, train_acc, test_acc = feedback(epoch, picks)
        seen.observe(theta)  # first: it rejects a theta of the wrong length
        wall_ms = (time.perf_counter() - t0) * 1000.0
        for i, selection in enumerate(picks):
            risk = float(theta.values[selection.indices].sum())
            spent[i] += risk
            metrics[i].append(
                EpochMetrics(
                    epoch=epoch,
                    selection_risk=risk,
                    cum_regret=spent[i] - seen.best_total,
                    label_precision=float("nan") if clean_mask is None else label_precision(selection, clean_mask),
                    train_acc=train_acc,
                    test_acc=test_acc,
                    wall_ms=wall_ms,
                )
            )
    return metrics, seen


def select_sequence(risks, cfg: SelectorConfig) -> list[KSetSelection]:
    """Run a selector over a prerecorded risk stream.

    risks is a sequence of RiskVector, one per epoch; epoch t's selection
    is made before theta_t is revealed, epoch 1's is run_epochs' seeded k-set.
    """
    if len(risks) == 0:
        raise InputError("risk stream is empty")
    selections: list[KSetSelection] = []

    def feedback(epoch: int, picks: list[KSetSelection]):
        selections.append(picks[0])
        return risks[epoch - 1], None, float("nan"), float("nan")

    run_epochs([OnlineSelector(cfg, risks[0].n)], len(risks), feedback)
    return selections


def train_selective(dataset: Dataset, test_set: Dataset | None, cfg: TrainConfig) -> TrainResult:
    """Run the full loop and return the model plus per-epoch metrics.

    test_set may be None, in which case test accuracy is reported as
    nan.  The test set must share the dataset's feature width and
    class count.
    """
    if test_set is not None and (test_set.dim != dataset.dim or test_set.num_classes != dataset.num_classes):
        raise InputError("test set shape or class count does not match the training set")

    init, shuffle = _seed_streams(cfg.seed)[:2]
    model = init_mlp(dataset.dim, cfg.hidden, dataset.num_classes, seed=int(init.generate_state(1)[0]))
    shuffle_rng = np.random.default_rng(shuffle)
    clean_mask = dataset.clean_mask
    selections: list[KSetSelection] = []

    def feedback(epoch: int, picks: list[KSetSelection]):
        selections.append(picks[0])
        train_epoch(model, dataset, picks[0], cfg.lr, cfg.batch_size, shuffle_rng)
        predicted, conf = predict_batch(model, dataset.features)
        theta = RiskVector(noise_risk_scores(predicted, conf, dataset.assigned_labels))
        train_acc = float((predicted == dataset.assigned_labels).mean())
        if test_set is not None:
            test_pred, _ = predict_batch(model, test_set.features)
            test_acc = float((test_pred == test_set.true_labels).mean())
        else:
            test_acc = float("nan")
        return theta, clean_mask, train_acc, test_acc

    (metrics,), seen = run_epochs([OnlineSelector(cfg.selector_config(), dataset.n)], cfg.epochs, feedback)
    return TrainResult(model=model, metrics=metrics, selections=selections, cum=seen.cum)

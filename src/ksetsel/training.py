"""The online selection engine and the one epoch loop every mode drives.

run_epochs drives a run's strategies in lockstep over one risk stream,
all under the run's one SelectorConfig (k, eta and seed): each epoch
every strategy picks a k-set from the shared Hindsight ledger (greedy
from theta_{t-1}) with its own generator, the caller's feedback
function reveals that epoch's risk vector theta_t, the ledger folds
theta_t into its sums once, and each strategy is charged its prefix
regret against the best fixed k-set over epochs 1..t.  The ledger
keeps no risk vector; the loop holds theta_t until the next picks.

train_selective plugs the learner in as feedback, under the run's
SelectorConfig and LearnerSpec as built: train the model on the
selected k samples, then score every training sample's noise-risk from
a full forward pass.  In every mode epoch 1 takes one
seeded uniformly random k-set because no feedback exists yet.

FPL's perturbation does not depend on feedback, so run_epochs draws
each one an epoch ahead on a ReadAhead's worker thread
while the main thread picks, runs the feedback and folds.  Each
generator is drawn from by one thread only, in its original order, so
every output is the same as with the draws inline.  The picks,
random's k-sets, the folds and the train_epoch and predict_batch calls
themselves stay on the main thread; each of those two calls may hand
part of its work to one worker of its own, which changes no bit (see
mlp).

Wall time is recorded but is the one column outside the determinism
contract: with a fixed config and seed everything else is
reproducible bit for bit.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ahead import ReadAhead
from .analytics import label_precision
from .datasets import Dataset
from .errors import InputError, ParameterError
from .feedback import noise_risk_scores
from .mlp import LearnerSpec, MlpModel, init_mlp, predict_batch, train_epoch
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
    sample_perturbation,
)

__all__ = [
    "EpochMetrics",
    "Hindsight",
    "run_epochs",
    "select_sequence",
    "train_selective",
]


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


class Hindsight:
    """What the strategies on one risk stream derive from its sums: the sums, the leader and best_total.

    The leader, the k smallest sums, is naive's next pick and the best
    fixed k-set in hindsight; best_total is its total risk so far.  It
    holds no risk vector: run_epochs hands theta_{t-1} to greedy itself.
    """

    def __init__(self, n: int, k: int):
        self.k = k
        self.cum = CumulativeRisk.zeros(n)
        self.leader: KSetSelection | None = None
        self.best_total = 0.0

    def observe(self, theta: RiskVector) -> None:
        self.cum = accumulate(self.cum, theta)
        self.leader = ftl_select(self.cum, self.k)
        self.best_total = float(self.cum.sums[self.leader.indices].sum())


def _seed_streams(seed: int) -> list[np.random.SeedSequence]:
    """The run seed's streams: model init, batch shuffle, selector RNG, epoch-1 k-set; data uses the seed itself."""
    return np.random.SeedSequence(seed).spawn(4)


def _pick(
    strategy: Strategy, seen: Hindsight, last: RiskVector, cfg: SelectorConfig,
    rng: np.random.Generator, noise: np.ndarray | None,
) -> KSetSelection:
    """strategy's pick from a ledger that has feedback; last is theta_{t-1}, rng the strategy's own selector stream.

    noise is FPL's perturbation for this pick, drawn from rng; None for the others.
    """
    if strategy is Strategy.FPL:
        return fpl_select(seen.cum, cfg.k, cfg.eta, noise)
    if strategy is Strategy.NAIVE:
        return seen.leader
    if strategy is Strategy.GREEDY:
        return greedy_select(last, cfg.k)
    if strategy is Strategy.RANDOM:
        return init_selection(seen.cum.n, cfg.k, rng)
    raise ParameterError(f"unknown strategy {strategy!r}")  # pragma: no cover


def run_epochs(
    strategies: list[Strategy], cfg: SelectorConfig, n: int, epochs: int, feedback: Callable
) -> tuple[list[list[EpochMetrics]], Hindsight]:
    """The epoch loop of one run's strategies over one stream of n samples; returns their metrics and the ledger.

    feedback(epoch, picks) gets one selection per strategy and returns
    (theta_t as a RiskVector, the clean mask or None, train accuracy,
    test accuracy).  Epoch 1 gives every strategy the run seed's k-set,
    later epochs each one's own pick, drawn from its own generator on
    the run seed's selector stream.  FPL draws one perturbation per pick
    after epoch 1, at any eta; when the run has an FPL strategy these
    draws run one epoch ahead on a worker thread.  The loop holds
    theta_t until the next picks, where greedy reads it, and drops it
    before the next feedback, so a feedback that reads its stream ahead
    holds theta_t and theta_{t+1}, not theta_{t-1} too.
    Label precision is nan without a clean mask.  wall_ms runs from the
    first pick to folding theta_t in, alike in every strategy's row.
    Selections are not kept; a caller that needs them records them in
    its feedback.  epochs must be >= 1.
    """
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs}")
    cfg.check_n(n)
    _, _, selector_stream, first_stream = _seed_streams(cfg.seed)
    first = init_selection(n, cfg.k, seed=int(first_stream.generate_state(1)[0]))
    rngs = [np.random.default_rng(selector_stream) for _ in strategies]
    draws = (
        [sample_perturbation(rng, n) if s is Strategy.FPL else None for s, rng in zip(strategies, rngs)]
        for _ in range(epochs - 1)
    )
    seen = Hindsight(n, cfg.k)
    spent = [0.0] * len(strategies)
    metrics: list[list[EpochMetrics]] = [[] for _ in strategies]
    with ReadAhead(draws) if Strategy.FPL in strategies else nullcontext(draws) as noises:
        for epoch in range(1, epochs + 1):
            t0 = time.perf_counter()
            if epoch == 1:
                picks = [first] * len(strategies)
            else:
                picks = [_pick(s, seen, theta, cfg, rng, z) for s, rng, z in zip(strategies, rngs, next(noises))]
            theta = None  # greedy's pick was theta_{t-1}'s last use: drop it before the feedback reads ahead
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


def select_sequence(risks, strategy: Strategy, cfg: SelectorConfig) -> list[KSetSelection]:
    """Run one strategy over a prerecorded risk stream.

    risks is a sequence of RiskVector, one per epoch; epoch t's selection
    is made before theta_t is revealed, epoch 1's is run_epochs' seeded k-set.
    """
    if len(risks) == 0:
        raise InputError("risk stream is empty")
    selections: list[KSetSelection] = []

    def feedback(epoch: int, picks: list[KSetSelection]):
        selections.append(picks[0])
        return risks[epoch - 1], None, float("nan"), float("nan")

    run_epochs([strategy], cfg, risks[0].n, len(risks), feedback)
    return selections


def train_selective(
    dataset: Dataset,
    test_set: Dataset | None,
    strategy: Strategy,
    epochs: int,
    selector: SelectorConfig,
    learner: LearnerSpec = LearnerSpec(),
) -> tuple[MlpModel, list[EpochMetrics]]:
    """Train under strategy for epochs; returns the model and its per-epoch metrics.

    run_epochs checks epochs and k.  test_set may be None, in which
    case test accuracy is reported as nan.  The test set must share the
    dataset's feature width and class count.
    """
    if test_set is not None and (test_set.dim != dataset.dim or test_set.num_classes != dataset.num_classes):
        raise InputError("test set shape or class count does not match the training set")

    init, shuffle = _seed_streams(selector.seed)[:2]
    model = init_mlp(dataset.dim, learner.hidden, dataset.num_classes, seed=int(init.generate_state(1)[0]))
    shuffle_rng = np.random.default_rng(shuffle)
    clean_mask = dataset.clean_mask

    def feedback(epoch: int, picks: list[KSetSelection]):
        train_epoch(model, dataset, picks[0], learner, shuffle_rng)
        predicted, conf = predict_batch(model, dataset.features)
        theta = RiskVector(noise_risk_scores(predicted, conf, dataset.assigned_labels))
        train_acc = float((predicted == dataset.assigned_labels).mean())
        if test_set is not None:
            test_pred, _ = predict_batch(model, test_set.features)
            test_acc = float((test_pred == test_set.true_labels).mean())
        else:
            test_acc = float("nan")
        return theta, clean_mask, train_acc, test_acc

    (metrics,), _ = run_epochs([strategy], selector, dataset.n, epochs, feedback)
    return model, metrics

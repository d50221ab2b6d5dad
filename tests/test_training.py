"""End-to-end selective training loop."""

import dataclasses
import math

import numpy as np
import pytest

from ksetsel.datasets import LabelNoiseSpec, apply_label_noise, make_blobs
from ksetsel.analytics import SelectionTrace, regret
from ksetsel.errors import InputError, ParameterError
from ksetsel.selection import CumulativeRisk, RiskVector, SelectorConfig, Strategy, fpl_select, init_selection
from ksetsel.training import Hindsight, OnlineSelector, TrainConfig, run_epochs, train_selective


def small_noisy_dataset(seed=0):
    data = make_blobs(120, 4, 3, separation=8.0, seed=seed)
    return apply_label_noise(data, LabelNoiseSpec(kind="sym", rate=0.4, seed=seed + 1))


def strip_wall(metrics):
    # wall time is excluded from determinism, and nan != nan for test_acc
    out = []
    for m in metrics:
        m = dataclasses.replace(m, wall_ms=0.0)
        if np.isnan(m.test_acc):
            m = dataclasses.replace(m, test_acc=-1.0)
        out.append(m)
    return out


class TestTrainSelective:
    def test_fpl_at_eta_zero_equals_naive(self):
        data = small_noisy_dataset()
        base = dict(k=30, epochs=8, hidden=16, lr=0.05, batch_size=16, seed=42)
        fpl = train_selective(data, None, TrainConfig(strategy=Strategy.FPL, eta=0.0, **base))
        naive = train_selective(data, None, TrainConfig(strategy=Strategy.NAIVE, eta=0.0, **base))
        assert strip_wall(fpl.metrics) == strip_wall(naive.metrics)
        for a, b in zip(fpl.selections, naive.selections):
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_deterministic_across_reruns(self):
        data = small_noisy_dataset()
        config = TrainConfig(strategy=Strategy.FPL, k=30, epochs=6, eta=2.0,
                             hidden=16, lr=0.05, batch_size=16, seed=7)
        a = train_selective(data, None, config)
        b = train_selective(data, None, config)
        assert strip_wall(a.metrics) == strip_wall(b.metrics)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(a.model, name), getattr(b.model, name))

    def test_seed_changes_trajectory(self):
        data = small_noisy_dataset()
        base = dict(strategy=Strategy.FPL, k=30, epochs=6, eta=2.0,
                    hidden=16, lr=0.05, batch_size=16)
        a = train_selective(data, None, TrainConfig(seed=1, **base))
        b = train_selective(data, None, TrainConfig(seed=2, **base))
        assert [m.selection_risk for m in a.metrics] != [m.selection_risk for m in b.metrics]

    def test_epoch_metrics_shape_and_ranges(self):
        data = small_noisy_dataset()
        test_data = make_blobs(60, 4, 3, separation=8.0, seed=99)
        result = train_selective(
            data,
            test_data,
            TrainConfig(strategy=Strategy.FPL, k=24, epochs=5, eta=1.0,
                        hidden=16, lr=0.05, batch_size=16, seed=3),
        )
        assert len(result.metrics) == 5
        assert len(result.selections) == 5
        assert [m.epoch for m in result.metrics] == [1, 2, 3, 4, 5]
        for m in result.metrics:
            # selection risk is a sum of k per-sample risks in [0, 1]
            assert 0.0 <= m.selection_risk <= 24.0
            assert 0.0 <= m.label_precision <= 1.0
            assert 0.0 <= m.train_acc <= 1.0
            assert 0.0 <= m.test_acc <= 1.0
            assert m.wall_ms >= 0.0
        for sel in result.selections:
            assert sel.k == 24

    def test_no_test_set_reports_nan(self):
        data = small_noisy_dataset()
        result = train_selective(
            data,
            None,
            TrainConfig(strategy=Strategy.NAIVE, k=20, epochs=3, eta=0.0,
                        hidden=8, lr=0.05, batch_size=16, seed=0),
        )
        assert all(np.isnan(m.test_acc) for m in result.metrics)

    def test_mismatched_test_set_rejected(self):
        data = small_noisy_dataset()
        wrong_dim = make_blobs(30, 5, 3, separation=8.0, seed=1)
        with pytest.raises(InputError):
            train_selective(data, wrong_dim,
                            TrainConfig(strategy=Strategy.FPL, k=10, epochs=2, seed=0))

    def test_cum_regret_is_prefix_consistent(self):
        # Regret at epoch t uses hindsight over epochs 1..t, so the final
        # regret is bounded by the realized total and never negative.
        data = small_noisy_dataset()
        result = train_selective(
            data,
            None,
            TrainConfig(strategy=Strategy.FPL, k=20, epochs=6, eta=1.0,
                        hidden=16, lr=0.05, batch_size=16, seed=5),
        )
        total = sum(m.selection_risk for m in result.metrics)
        assert result.cum.epochs_seen == 6
        assert result.metrics[-1].cum_regret >= -1e-9
        assert result.metrics[-1].cum_regret <= total + 1e-9

    def test_random_with_k_equal_n_selects_everything(self):
        data = small_noisy_dataset()
        with pytest.warns(UserWarning):
            result = train_selective(
                data,
                None,
                TrainConfig(strategy=Strategy.RANDOM, k=120, epochs=3, eta=0.0,
                            hidden=8, lr=0.05, batch_size=16, seed=0),
            )
        for sel in result.selections:
            np.testing.assert_array_equal(sel.indices, np.arange(120))

    def test_selection_favors_clean_labels(self):
        # Directional smoke test: after a few epochs on well-separated blobs,
        # FPL's picks should beat the clean base rate (60% here).
        data = small_noisy_dataset(seed=11)
        result = train_selective(
            data,
            None,
            TrainConfig(strategy=Strategy.FPL, k=30, epochs=15, eta=0.5,
                        hidden=32, lr=0.05, batch_size=16, seed=13),
        )
        assert result.metrics[-1].label_precision > 0.6

    def test_invalid_k(self):
        data = small_noisy_dataset()
        with pytest.raises(ParameterError):
            TrainConfig(strategy=Strategy.FPL, k=0, epochs=2, eta=0.0, seed=0)
        with pytest.raises(ParameterError):
            train_selective(data, None,
                            TrainConfig(strategy=Strategy.FPL, k=121, epochs=2, eta=0.0, seed=0))

    def test_negative_eta_rejected(self):
        with pytest.raises(ParameterError):
            TrainConfig(strategy=Strategy.FPL, k=10, epochs=2, eta=-1.0, seed=0)


def uniform_risks(n, epochs, seed):
    rng = np.random.default_rng(seed)
    return [RiskVector(rng.uniform(size=n)) for _ in range(epochs)]


class TestOnlineSelector:
    def test_first_pick_of_each_strategy(self):
        n, k, seed = 12, 4, 5
        first = {
            s: OnlineSelector(SelectorConfig(strategy=s, k=k, eta=0.7, seed=seed), n).select(Hindsight(n, k))
            for s in Strategy
        }
        # zero sums tie everywhere, so the leader takes the smallest indices
        assert first[Strategy.NAIVE].indices.tolist() == [0, 1, 2, 3]
        fpl = fpl_select(CumulativeRisk.zeros(n), k, 0.7, np.random.default_rng(seed))
        assert first[Strategy.FPL].indices.tolist() == fpl.indices.tolist()
        greedy = init_selection(n, k, seed)
        assert first[Strategy.GREEDY].indices.tolist() == greedy.indices.tolist()
        drawn = np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
        assert first[Strategy.RANDOM].indices.tolist() == drawn.tolist()

    def test_greedy_follows_the_last_observed_vector(self):
        selector = OnlineSelector(SelectorConfig(strategy=Strategy.GREEDY, k=2), 4)
        seen = Hindsight(4, 2)
        seen.observe(RiskVector(np.array([0.9, 0.1, 0.5, 0.2])))
        seen.observe(RiskVector(np.array([0.1, 0.9, 0.2, 0.5])))
        assert selector.select(seen).indices.tolist() == [0, 2]
        assert seen.cum.epochs_seen == 2



class TestRunEpochs:
    def test_prefix_regret_matches_the_trace_oracle(self):
        risks = uniform_risks(15, 10, 1)
        for strategy in Strategy:
            cfg = SelectorConfig(strategy=strategy, k=4, eta=1.5, seed=2)
            seen = []

            def feedback(epoch, picks):
                seen.append(picks[0])
                return risks[epoch - 1], None, float("nan"), float("nan")

            (metrics,), _ = run_epochs([OnlineSelector(cfg, 15)], None, len(risks), feedback)
            assert [m.epoch for m in metrics] == list(range(1, 11))
            assert all(np.isnan(m.label_precision) for m in metrics)
            for t, m in enumerate(metrics, start=1):
                assert m.cum_regret == pytest.approx(regret(SelectionTrace(seen[:t], risks[:t])), abs=1e-12)

    def test_first_selection_is_used_for_epoch_one_only(self):
        risks = uniform_risks(10, 3, 4)
        first = init_selection(10, 3, seed=9)
        selector = OnlineSelector(SelectorConfig(strategy=Strategy.NAIVE, k=3), 10)
        seen = []

        def feedback(epoch, picks):
            seen.append(picks[0].indices.tolist())
            return risks[epoch - 1], np.ones(10, dtype=bool), 0.5, 0.25

        (metrics,), _ = run_epochs([selector], first, 3, feedback)
        assert seen[0] == first.indices.tolist()
        # epoch 2 is the selector's own pick: the leader over epoch 1's risks
        assert seen[1] == sorted(np.argsort(risks[0].values, kind="stable")[:3].tolist())
        assert [(m.label_precision, m.train_acc, m.test_acc) for m in metrics] == [(1.0, 0.5, 0.25)] * 3

    @pytest.mark.parametrize("shapes", [((2, 10), (3, 10)), ((2, 10), (2, 12))])
    def test_selectors_must_share_n_and_k(self, shapes):
        selectors = [OnlineSelector(SelectorConfig(strategy=Strategy.NAIVE, k=k), n) for k, n in shapes]
        with pytest.raises(ParameterError, match="share n and k"):
            run_epochs(selectors, None, 1, None)

    @pytest.mark.parametrize("strategy", [Strategy.FPL, Strategy.NAIVE])
    def test_long_horizon_regret_matches_an_fsum_oracle(self, strategy):
        n, k, epochs = 64, 16, 5000
        risks = uniform_risks(n, epochs, 11)
        charged = []

        def feedback(epoch, picks):
            charged.append(risks[epoch - 1].values[picks[0].indices])
            return risks[epoch - 1], None, float("nan"), float("nan")

        cfg = SelectorConfig(strategy=strategy, k=k, eta=math.sqrt(k * epochs), seed=3)
        (metrics,), _ = run_epochs([OnlineSelector(cfg, n)], None, epochs, feedback)
        final = metrics[-1].cum_regret
        spent = math.fsum(float(v) for values in charged for v in values)
        index_totals = sorted(math.fsum(float(r.values[i]) for r in risks) for i in range(n))
        best = math.fsum(index_totals[:k])
        # Recursive summation of m non-negative terms errs by at most about
        # m * eps/2 times their sum; every total here has at most epochs + k
        # terms, and picking a rounding-tied set costs at most twice that.
        bound = (epochs + k) * np.finfo(np.float64).eps * (spent + best)
        assert abs(final - (spent - best)) <= bound
        assert bound < 1e-6

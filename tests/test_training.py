"""End-to-end selective training loop."""

import dataclasses
import math
import threading
import time

import numpy as np
import pytest

from ksetsel import training
from ksetsel.datasets import LabelNoiseSpec, apply_label_noise, make_blobs
from ksetsel.analytics import SelectionTrace, regret
from ksetsel.errors import InputError, ParameterError
from ksetsel.mlp import LearnerSpec, init_mlp
from ksetsel.selection import RiskVector, SelectorConfig, Strategy, init_selection
from ksetsel.training import run_epochs, select_sequence, train_selective


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


@pytest.fixture
def trained_on(monkeypatch):
    """The selection train_selective hands training.train_epoch each epoch, in call order."""
    selections = []
    real = training.train_epoch

    def recorded(model, dataset, selection, learner, rng):
        selections.append(selection)
        return real(model, dataset, selection, learner, rng)

    monkeypatch.setattr(training, "train_epoch", recorded)
    return selections


class TestTrainSelective:
    def test_fpl_at_eta_zero_equals_naive(self, trained_on):
        data = small_noisy_dataset()
        base = dict(epochs=8, selector=SelectorConfig(k=30, eta=0.0, seed=42), learner=LearnerSpec(16, 0.05, 16))
        _, fpl = train_selective(data, None, strategy=Strategy.FPL, **base)
        _, naive = train_selective(data, None, strategy=Strategy.NAIVE, **base)
        assert strip_wall(fpl) == strip_wall(naive)
        assert len(trained_on) == 16
        for a, b in zip(trained_on[:8], trained_on[8:]):
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_a_run_trains_a_float32_model_of_init_mlps_draws_rounded_once(self):
        data = small_noisy_dataset()
        # lr 0 leaves the model as it was built
        model, _ = train_selective(data, None, Strategy.FPL, 2, SelectorConfig(k=30, seed=5), LearnerSpec(16, 0.0, 16))
        init = np.random.SeedSequence(5).spawn(4)[0]
        drawn = init_mlp(data.dim, 16, data.num_classes, seed=int(init.generate_state(1)[0]))
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(model, name).dtype == np.float32
            np.testing.assert_array_equal(getattr(model, name), getattr(drawn, name).astype(np.float32))

    def test_deterministic_across_reruns(self):
        data = small_noisy_dataset()
        args = (Strategy.FPL, 6, SelectorConfig(k=30, eta=2.0, seed=7), LearnerSpec(hidden=16, lr=0.05, batch_size=16))
        model_a, a = train_selective(data, None, *args)
        model_b, b = train_selective(data, None, *args)
        assert strip_wall(a) == strip_wall(b)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(model_a, name), getattr(model_b, name))

    def test_seed_changes_trajectory(self):
        data = small_noisy_dataset()
        base = dict(strategy=Strategy.FPL, epochs=6, learner=LearnerSpec(hidden=16, lr=0.05, batch_size=16))
        _, a = train_selective(data, None, selector=SelectorConfig(k=30, eta=2.0, seed=1), **base)
        _, b = train_selective(data, None, selector=SelectorConfig(k=30, eta=2.0, seed=2), **base)
        assert [m.selection_risk for m in a] != [m.selection_risk for m in b]

    def test_epoch_metrics_shape_and_ranges(self, trained_on):
        data = small_noisy_dataset()
        test_data = make_blobs(60, 4, 3, separation=8.0, seed=99)
        _, metrics = train_selective(
            data, test_data, Strategy.FPL, 5, SelectorConfig(k=24, eta=1.0, seed=3),
            LearnerSpec(hidden=16, lr=0.05, batch_size=16),
        )
        assert len(metrics) == 5
        assert len(trained_on) == 5
        assert [m.epoch for m in metrics] == [1, 2, 3, 4, 5]
        for m in metrics:
            # selection risk is a sum of k per-sample risks in [0, 1]
            assert 0.0 <= m.selection_risk <= 24.0
            assert 0.0 <= m.label_precision <= 1.0
            assert 0.0 <= m.train_acc <= 1.0
            assert 0.0 <= m.test_acc <= 1.0
            assert m.wall_ms >= 0.0
        for sel in trained_on:
            assert sel.k == 24

    def test_no_test_set_reports_nan(self):
        data = small_noisy_dataset()
        _, metrics = train_selective(
            data, None, Strategy.NAIVE, 3, SelectorConfig(k=20, eta=0.0, seed=0),
            LearnerSpec(hidden=8, lr=0.05, batch_size=16),
        )
        assert all(np.isnan(m.test_acc) for m in metrics)

    def test_mismatched_test_set_rejected(self):
        data = small_noisy_dataset()
        wrong_dim = make_blobs(30, 5, 3, separation=8.0, seed=1)
        with pytest.raises(InputError):
            train_selective(data, wrong_dim, Strategy.FPL, 2, SelectorConfig(k=10, seed=0))

    def test_cum_regret_is_prefix_consistent(self):
        # Regret at epoch t uses hindsight over epochs 1..t, so the final
        # regret is bounded by the realized total and never negative.
        data = small_noisy_dataset()
        _, metrics = train_selective(
            data, None, Strategy.FPL, 6, SelectorConfig(k=20, eta=1.0, seed=5),
            LearnerSpec(hidden=16, lr=0.05, batch_size=16),
        )
        total = sum(m.selection_risk for m in metrics)
        assert len(metrics) == 6
        assert metrics[-1].cum_regret >= -1e-9
        assert metrics[-1].cum_regret <= total + 1e-9

    def test_random_with_k_equal_n_selects_everything(self, trained_on):
        data = small_noisy_dataset()
        with pytest.warns(UserWarning):
            train_selective(
                data, None, Strategy.RANDOM, 3, SelectorConfig(k=120, eta=0.0, seed=0),
                LearnerSpec(hidden=8, lr=0.05, batch_size=16),
            )
        assert len(trained_on) == 3
        for sel in trained_on:
            np.testing.assert_array_equal(sel.indices, np.arange(120))

    def test_selection_favors_clean_labels(self):
        # Directional smoke test: after a few epochs on well-separated blobs,
        # FPL's picks should beat the clean base rate (60% here).
        data = small_noisy_dataset(seed=11)
        _, metrics = train_selective(
            data, None, Strategy.FPL, 15, SelectorConfig(k=30, eta=0.5, seed=13),
            LearnerSpec(hidden=32, lr=0.05, batch_size=16),
        )
        assert metrics[-1].label_precision > 0.6

    def test_invalid_k(self):
        data = small_noisy_dataset()
        with pytest.raises(ParameterError):
            SelectorConfig(k=0, eta=0.0, seed=0)
        with pytest.raises(ParameterError):
            train_selective(data, None, Strategy.FPL, 2, SelectorConfig(k=121, seed=0))

    def test_negative_eta_rejected(self):
        with pytest.raises(ParameterError):
            SelectorConfig(k=10, eta=-1.0, seed=0)


def uniform_risks(n, epochs, seed):
    rng = np.random.default_rng(seed)
    return [RiskVector(rng.uniform(size=n)) for _ in range(epochs)]


class TestOnlineSelector:
    """Each strategy's pick through run_epochs, the one place strategies are dispatched."""

    def test_greedy_follows_the_last_observed_vector(self):
        values = ([0.9, 0.1, 0.5, 0.2], [0.1, 0.9, 0.2, 0.5], [0.5] * 4)
        risks = [RiskVector(np.array(v)) for v in values]
        picks = []

        def feedback(epoch, selections):
            picks.append(selections[0].indices.tolist())
            return risks[epoch - 1], None, float("nan"), float("nan")

        # at epoch 3 the sums' leader is [2, 3]; greedy keeps only the last vector
        _, seen = run_epochs([Strategy.GREEDY], SelectorConfig(k=2), 4, 3, feedback)
        assert picks[1:] == [[1, 3], [0, 2]]
        assert seen.cum.epochs_seen == 3


class TestRunEpochs:
    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_below_one_are_rejected(self, epochs):
        def feedback(epoch, picks):
            raise AssertionError("an epoch ran")

        with pytest.raises(ParameterError, match=rf"^epochs must be >= 1, got {epochs}$"):
            run_epochs([Strategy.FPL], SelectorConfig(k=2, seed=0), 5, epochs, feedback)

    def test_prefix_regret_matches_the_trace_oracle(self):
        risks = uniform_risks(15, 10, 1)
        for strategy in Strategy:
            cfg = SelectorConfig(k=4, eta=1.5, seed=2)
            seen = []

            def feedback(epoch, picks):
                seen.append(picks[0])
                return risks[epoch - 1], None, float("nan"), float("nan")

            (metrics,), _ = run_epochs([strategy], cfg, 15, len(risks), feedback)
            assert [m.epoch for m in metrics] == list(range(1, 11))
            assert all(np.isnan(m.label_precision) for m in metrics)
            for t, m in enumerate(metrics, start=1):
                assert m.cum_regret == pytest.approx(regret(SelectionTrace(seen[:t], risks[:t])), abs=1e-12)

    def test_first_selection_is_used_for_epoch_one_only(self):
        risks = uniform_risks(10, 3, 4)
        strategies = [Strategy.NAIVE, Strategy.GREEDY]
        seen = []

        def feedback(epoch, picks):
            seen.append([p.indices.tolist() for p in picks])
            return risks[epoch - 1], np.ones(10, dtype=bool), 0.5, 0.25

        metrics, _ = run_epochs(strategies, SelectorConfig(k=3, seed=9), 10, 3, feedback)
        # the run seed's fourth spawned stream draws the epoch-1 k-set
        seeded = init_selection(10, 3, seed=int(np.random.SeedSequence(9).spawn(4)[3].generate_state(1)[0]))
        assert seen[0] == [seeded.indices.tolist()] * 2

        def bottom3(values):
            return sorted(np.argsort(values, kind="stable")[:3].tolist())

        # later epochs are each selector's own pick: the leader of the sums, the bottom of the last vector
        assert seen[1] == [bottom3(risks[0].values)] * 2
        assert seen[2] == [bottom3(risks[0].values + risks[1].values), bottom3(risks[1].values)]
        for rows in metrics:
            assert [(m.label_precision, m.train_acc, m.test_acc) for m in rows] == [(1.0, 0.5, 0.25)] * 3

    def test_rng_advances_identically_for_any_eta(self, monkeypatch):
        # FPL draws one perturbation per pick after epoch 1, even at eta = 0, keeping its stream aligned.
        n, k, epochs = 40, 8, 6
        risks = uniform_risks(n, epochs, 5)
        real = training.sample_perturbation
        draws, picks = [], []

        def recorded(rng, size):
            noise = real(rng, size)
            draws.append((size, noise.copy(), rng.bit_generator.state["state"]["state"]))
            return noise

        def feedback(epoch, selections):
            picks.append([s.indices.tolist() for s in selections])
            return risks[epoch - 1], None, float("nan"), float("nan")

        monkeypatch.setattr(training, "sample_perturbation", recorded)
        by_eta = {}
        for eta in (0.0, 3.0):
            draws.clear()
            picks.clear()
            run_epochs([Strategy.FPL, Strategy.NAIVE], SelectorConfig(k=k, eta=eta, seed=1), n, epochs, feedback)
            assert [size for size, _, _ in draws] == [n] * (epochs - 1)
            by_eta[eta] = (list(draws), list(picks))
        for (_, a, state_a), (_, b, state_b) in zip(by_eta[0.0][0], by_eta[3.0][0]):
            assert a.tobytes() == b.tobytes() and state_a == state_b
        # at eta = 0 FPL is the leader: its picks are naive's, bit for bit
        assert [fpl for fpl, _ in by_eta[0.0][1]] == [naive for _, naive in by_eta[0.0][1]]
        assert [fpl for fpl, _ in by_eta[3.0][1]] != [naive for _, naive in by_eta[3.0][1]]

    @pytest.mark.parametrize("strategy", [Strategy.FPL, Strategy.NAIVE])
    def test_long_horizon_regret_matches_an_fsum_oracle(self, strategy):
        n, k, epochs = 64, 16, 5000
        risks = uniform_risks(n, epochs, 11)
        charged = []

        def feedback(epoch, picks):
            charged.append(risks[epoch - 1].values[picks[0].indices])
            return risks[epoch - 1], None, float("nan"), float("nan")

        cfg = SelectorConfig(k=k, eta=math.sqrt(k * epochs), seed=3)
        (metrics,), _ = run_epochs([strategy], cfg, n, epochs, feedback)
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


class TestWorkerThread:
    """run_epochs draws FPL's perturbations one epoch ahead on one worker thread and joins it when the run ends.

    A draw the worker has not started by the time the loop takes it is
    drawn on this thread instead (Helper.result).
    """

    @pytest.fixture
    def drawn_on(self, monkeypatch):
        threads = []
        real = training.sample_perturbation

        def recorded(rng, n):
            threads.append(threading.current_thread())
            return real(rng, n)

        monkeypatch.setattr(training, "sample_perturbation", recorded)
        return threads

    def assert_joined(self, threads, draws):
        """draws draws, each on this thread or on one worker thread, which is joined."""
        assert len(threads) == draws
        workers = set(threads) - {threading.main_thread()}
        assert len(workers) <= 1 and not any(worker.is_alive() for worker in workers)

    def test_train_selective_joins_its_worker(self, drawn_on):
        before = threading.active_count()
        train_selective(small_noisy_dataset(), None, Strategy.FPL, 4, SelectorConfig(30), LearnerSpec(4))
        assert threading.active_count() == before
        self.assert_joined(drawn_on, 3)

    def test_select_sequence_joins_its_worker(self, drawn_on):
        before = threading.active_count()
        select_sequence(uniform_risks(20, 5, 0), Strategy.FPL, SelectorConfig(k=4, eta=1.0))
        assert threading.active_count() == before
        self.assert_joined(drawn_on, 4)

    def test_feedback_error_joins_the_worker(self, drawn_on):
        risks = uniform_risks(20, 6, 0)

        def feedback(epoch, picks):
            if epoch == 2:  # wait until epoch 3's draw, asked for at epoch 2's pick, has begun: on the worker
                deadline = time.monotonic() + 20
                while len(drawn_on) < 2 and time.monotonic() < deadline:
                    time.sleep(0.001)
            if epoch == 3:
                raise InputError("feedback failed at epoch 3")
            return risks[epoch - 1], None, float("nan"), float("nan")

        before = threading.active_count()
        with pytest.raises(InputError, match=r"^feedback failed at epoch 3$"):
            run_epochs([Strategy.FPL, Strategy.GREEDY], SelectorConfig(k=4, eta=1.0), 20, 6, feedback)
        assert threading.active_count() == before
        # epochs 2 to 4: epoch 4's was asked for at epoch 3 and is drawn on the worker before the join
        self.assert_joined(drawn_on, 3)
        assert drawn_on[1] is drawn_on[2] is not threading.main_thread()

    def test_one_epoch_draws_nothing_and_leaves_no_thread(self, drawn_on):
        before = threading.active_count()
        train_selective(small_noisy_dataset(), None, Strategy.FPL, 1, SelectorConfig(30), LearnerSpec(4))
        assert threading.active_count() == before
        assert drawn_on == []

    def test_runs_without_fpl_start_no_worker(self, drawn_on, monkeypatch):
        started = []
        monkeypatch.setattr(training, "ReadAhead", started.append)
        select_sequence(uniform_risks(20, 5, 0), Strategy.RANDOM, SelectorConfig(k=4))
        assert started == [] and drawn_on == []

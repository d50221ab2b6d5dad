"""Selector core: top-k extraction, perturbation, and the selection ops.

The reference oracle for every top-k claim is a full stable sort by
(score, index); the production path must agree with it exactly,
including tie handling, while using only partial selection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsel.errors import InputError, ParameterError
from ksetsel.selection import (
    CumulativeRisk,
    KSetSelection,
    RiskVector,
    SelectorConfig,
    Strategy,
    accumulate,
    fpl_select,
    ftl_select,
    greedy_select,
    hindsight_best,
    init_selection,
    sample_perturbation,
    top_k_smallest,
)
from ksetsel.training import select_sequence


def sorted_topk_oracle(scores, k):
    """First k of a stable sort by (score, index)."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(scores.shape[0]), scores))
    return np.sort(order[:k])


class TestTopKSmallest:
    def test_basic_example(self):
        sel = top_k_smallest([0.9, 0.1, 0.5, 0.1, 0.3], 2)
        assert sel.indices.tolist() == [1, 3]

    def test_k_equals_n_returns_everything(self):
        sel = top_k_smallest([3.0, 1.0, 2.0], 3)
        assert sel.indices.tolist() == [0, 1, 2]

    def test_all_equal_scores_take_smallest_indices(self):
        sel = top_k_smallest(np.zeros(7), 3)
        assert sel.indices.tolist() == [0, 1, 2]

    def test_matches_sort_oracle_on_random_input(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, n + 1))
            scores = rng.normal(size=n)
            got = top_k_smallest(scores, k).indices
            assert got.tolist() == sorted_topk_oracle(scores, k).tolist()

    def test_matches_sort_oracle_with_heavy_ties(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n + 1))
            # Few distinct values force boundary ties.
            scores = rng.integers(0, 4, size=n).astype(np.float64)
            got = top_k_smallest(scores, k).indices
            assert got.tolist() == sorted_topk_oracle(scores, k).tolist()

    def test_large_input_against_oracle(self):
        rng = np.random.default_rng(13)
        scores = rng.uniform(size=10_000)
        got = top_k_smallest(scores, 100).indices
        assert got.tolist() == sorted_topk_oracle(scores, 100).tolist()

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_oracle(self, values, k):
        scores = np.array(values, dtype=np.float64)
        if k > scores.shape[0]:
            k = scores.shape[0]
        got = top_k_smallest(scores, k).indices
        assert got.tolist() == sorted_topk_oracle(scores, k).tolist()

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_k_out_of_range(self, k):
        with pytest.raises(ParameterError):
            top_k_smallest([1.0, 2.0, 3.0, 4.0, 5.0], k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(InputError):
            top_k_smallest([1.0, bad, 3.0], 2)

    def test_empty_scores_rejected(self):
        with pytest.raises(InputError):
            top_k_smallest([], 1)


class TestSamplePerturbation:
    def test_standard_normal_moments(self):
        rng = np.random.default_rng(0)
        draw = sample_perturbation(rng, 1_000_000)
        assert abs(draw.mean()) < 0.01
        assert abs(draw.var() - 1.0) < 0.01

    def test_deterministic_under_seed(self):
        a = sample_perturbation(np.random.default_rng(5), 100)
        b = sample_perturbation(np.random.default_rng(5), 100)
        np.testing.assert_array_equal(a, b)

    def test_fresh_draw_each_call(self):
        rng = np.random.default_rng(5)
        a = sample_perturbation(rng, 100)
        b = sample_perturbation(rng, 100)
        assert not np.array_equal(a, b)

    def test_n_zero_rejected(self):
        with pytest.raises(ParameterError):
            sample_perturbation(np.random.default_rng(0), 0)


class TestFplSelect:
    def test_eta_zero_is_bitwise_ftl(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n + 1))
            sums = rng.uniform(0.0, 7.0, size=n)
            cum = CumulativeRisk(sums=sums, epochs_seen=7)
            a = fpl_select(cum, k, 0.0, np.random.default_rng(9))
            b = ftl_select(cum, k)
            assert a.indices.tolist() == b.indices.tolist()

    def test_tiny_eta_respects_large_gaps(self):
        cum = CumulativeRisk(sums=np.array([5.0, 0.0, 5.0, 0.0]), epochs_seen=5)
        for seed in range(50):
            sel = fpl_select(cum, 2, 1e-9, np.random.default_rng(seed))
            assert sel.indices.tolist() == [1, 3]

    def test_uniform_over_subsets_with_equal_sums(self):
        # Equal cumulative sums make every k-subset equally likely.
        from itertools import combinations

        n, k, trials = 6, 2, 10_000
        cum = CumulativeRisk.zeros(n)
        rng = np.random.default_rng(21)
        counts = {c: 0 for c in combinations(range(n), k)}
        for _ in range(trials):
            sel = fpl_select(cum, k, 1.0, rng)
            counts[tuple(sel.indices.tolist())] += 1
        expected = trials / len(counts)
        for subset, count in counts.items():
            assert abs(count - expected) / trials < 0.02, (subset, count)

    def test_negative_eta_rejected(self):
        cum = CumulativeRisk.zeros(4)
        with pytest.raises(ParameterError):
            fpl_select(cum, 2, -1.0, np.random.default_rng(0))

    def test_rng_advances_identically_for_any_eta(self):
        # The perturbation is drawn even at eta = 0, keeping streams aligned.
        cum = CumulativeRisk.zeros(4)
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        fpl_select(cum, 2, 0.0, rng_a)
        fpl_select(cum, 2, 3.0, rng_b)
        np.testing.assert_array_equal(rng_a.standard_normal(8), rng_b.standard_normal(8))


class TestFtlSelect:
    def test_zero_history_tie_break(self):
        sel = ftl_select(CumulativeRisk.zeros(5), 2)
        assert sel.indices.tolist() == [0, 1]

    def test_picks_minimum_sums(self):
        cum = CumulativeRisk(sums=np.array([4.0, 0.5, 3.0, 1.0]), epochs_seen=4)
        assert ftl_select(cum, 2).indices.tolist() == [1, 3]


class TestGreedySelect:
    def test_uses_only_latest_vector(self):
        theta = RiskVector(np.array([0.9, 0.1, 0.4, 0.2]))
        assert greedy_select(theta, 2).indices.tolist() == [1, 3]


class TestHindsightBest:
    def test_single_epoch_equals_ftl(self):
        sums = np.random.default_rng(2).uniform(size=9)
        cum = CumulativeRisk(sums=sums, epochs_seen=1)
        assert hindsight_best(cum, 3).indices.tolist() == ftl_select(cum, 3).indices.tolist()

    def test_matches_exhaustive_subset_search(self):
        # Linearity makes bottom-k optimal; verify against brute force.
        from itertools import combinations

        rng = np.random.default_rng(17)
        for _ in range(20):
            n, k, epochs = 10, 3, 20
            sums = np.zeros(n)
            for _ in range(epochs):
                sums += rng.uniform(size=n)
            cum = CumulativeRisk(sums=sums, epochs_seen=epochs)
            got = hindsight_best(cum, k)
            best_val = min(sums[list(c)].sum() for c in combinations(range(n), k))
            assert np.isclose(sums[got.indices].sum(), best_val, rtol=0, atol=1e-12)


class TestInitSelection:
    def test_k_equals_n(self):
        assert init_selection(4, 4, seed=0).indices.tolist() == [0, 1, 2, 3]

    def test_deterministic(self):
        a = init_selection(100, 10, seed=42)
        b = init_selection(100, 10, seed=42)
        assert a.indices.tolist() == b.indices.tolist()

    def test_uniform_over_subsets(self):
        from itertools import combinations

        n, k, trials = 5, 2, 10_000
        counts = {c: 0 for c in combinations(range(n), k)}
        for seed in range(trials):
            counts[tuple(init_selection(n, k, seed).indices.tolist())] += 1
        expected = trials / len(counts)
        for subset, count in counts.items():
            assert abs(count - expected) / trials < 0.02, (subset, count)

    def test_bad_k_rejected(self):
        with pytest.raises(ParameterError):
            init_selection(5, 0, seed=0)
        with pytest.raises(ParameterError):
            init_selection(5, 6, seed=0)


class TestAccumulate:
    def test_single_step(self):
        cum = accumulate(CumulativeRisk.zeros(3), RiskVector(np.array([0.1, 0.2, 0.3])))
        np.testing.assert_allclose(cum.sums, [0.1, 0.2, 0.3])
        assert cum.epochs_seen == 1

    def test_thousand_steps_match_one_shot_sum(self):
        rng = np.random.default_rng(8)
        thetas = rng.uniform(size=(1000, 20))
        cum = CumulativeRisk.zeros(20)
        for row in thetas:
            cum = accumulate(cum, RiskVector(row))
        np.testing.assert_allclose(cum.sums, thetas.sum(axis=0), rtol=0, atol=1e-9)
        assert cum.epochs_seen == 1000

    def test_purity(self):
        start = CumulativeRisk.zeros(3)
        accumulate(start, RiskVector(np.array([0.5, 0.5, 0.5])))
        np.testing.assert_array_equal(start.sums, np.zeros(3))
        assert start.epochs_seen == 0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            accumulate(CumulativeRisk.zeros(3), RiskVector(np.array([0.1, 0.2])))


class TestTypes:
    def test_risk_vector_bounds(self):
        with pytest.raises(InputError):
            RiskVector(np.array([0.5, 1.5]))
        with pytest.raises(InputError):
            RiskVector(np.array([-0.1, 0.5]))

    def test_selection_must_be_strictly_increasing(self):
        with pytest.raises(InputError):
            KSetSelection(np.array([3, 1, 2]))
        with pytest.raises(InputError):
            KSetSelection(np.array([1, 1, 2]))

    def test_selector_config_validation(self):
        with pytest.raises(ParameterError):
            SelectorConfig(strategy=Strategy.FPL, k=0)
        with pytest.raises(ParameterError):
            SelectorConfig(strategy=Strategy.FPL, k=2, eta=-0.5)

    def test_k_equals_n_warns(self):
        cfg = SelectorConfig(strategy=Strategy.FPL, k=5)
        with pytest.warns(UserWarning, match="k = n"):
            cfg.check_n(5)


class TestSelectSequence:
    @staticmethod
    def _stream(n, epochs, seed):
        rng = np.random.default_rng(seed)
        return [RiskVector(rng.uniform(size=n)) for _ in range(epochs)]

    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=1, max_value=24), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_every_selection_is_a_valid_kset(self, n, k, seed):
        if k >= n:
            k = n - 1
        risks = self._stream(n, 12, seed)
        for strategy in Strategy:
            cfg = SelectorConfig(strategy=strategy, k=k, eta=0.7, seed=seed)
            for sel in select_sequence(risks, cfg):
                assert sel.k == k
                assert sel.indices[0] >= 0 and sel.indices[-1] < n
                assert len(set(sel.indices.tolist())) == k

    def test_naive_equals_fpl_at_eta_zero(self):
        risks = self._stream(15, 30, 3)
        naive = select_sequence(risks, SelectorConfig(strategy=Strategy.NAIVE, k=4, seed=0))
        fpl = select_sequence(risks, SelectorConfig(strategy=Strategy.FPL, k=4, eta=0.0, seed=0))
        for a, b in zip(naive, fpl):
            assert a.indices.tolist() == b.indices.tolist()

    def test_deterministic_under_seed(self):
        risks = self._stream(20, 15, 5)
        cfg = SelectorConfig(strategy=Strategy.FPL, k=6, eta=2.0, seed=11)
        a = select_sequence(risks, cfg)
        b = select_sequence(risks, cfg)
        for x, y in zip(a, b):
            assert x.indices.tolist() == y.indices.tolist()

    def test_empty_stream_rejected(self):
        with pytest.raises(InputError):
            select_sequence([], SelectorConfig(strategy=Strategy.NAIVE, k=1))

    def test_ragged_stream_rejected(self):
        # a shorter vector would otherwise be indexed past its end
        ragged = self._stream(6, 3, 0) + [RiskVector(np.full(5, 0.5))]
        with pytest.raises(InputError):
            select_sequence(ragged, SelectorConfig(strategy=Strategy.NAIVE, k=5))

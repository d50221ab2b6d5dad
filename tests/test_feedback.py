"""Noise-risk scoring and the synthetic risk streams."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsel.analytics import SelectionTrace, regret, total_selection_risk
from ksetsel.errors import InputError, ParameterError
from ksetsel.feedback import (
    Prediction,
    RiskStream,
    StreamKind,
    StreamSpec,
    dump_stream_csv,
    generate_stream,
    load_stream_csv,
    noise_risk,
    noise_risk_scores,
    stream_epochs,
)
from ksetsel.selection import (
    CumulativeRisk,
    SelectorConfig,
    Strategy,
    accumulate,
    fpl_select,
    init_selection,
    sample_perturbation,
    top_k_smallest,
)
from ksetsel.training import select_sequence


class TestNoiseRisk:
    def test_confident_match_is_zero(self):
        assert noise_risk(Prediction(3, 1.0, 3)) == pytest.approx(0.0)

    def test_confident_mismatch_is_one(self):
        assert noise_risk(Prediction(2, 1.0, 3)) == pytest.approx(1.0)

    def test_half_confidence_match(self):
        assert noise_risk(Prediction(0, 0.5, 0)) == pytest.approx(0.25)

    def test_half_confidence_mismatch(self):
        assert noise_risk(Prediction(0, 0.5, 1)) == pytest.approx(0.75)

    @given(st.floats(min_value=1e-9, max_value=1.0), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_range_and_sign_property(self, conf, match):
        pred = Prediction(0, conf, 0 if match else 1)
        value = noise_risk(pred)
        assert 0.0 <= value <= 1.0
        # Below one half exactly when prediction and assigned label agree.
        if match:
            assert value < 0.5
        else:
            assert value > 0.5

    def test_confidence_domain(self):
        with pytest.raises(InputError):
            Prediction(0, 0.0, 0)
        with pytest.raises(InputError):
            Prediction(0, 1.2, 0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        predicted = rng.integers(0, 4, size=200)
        assigned = rng.integers(0, 4, size=200)
        conf = rng.uniform(0.05, 1.0, size=200)
        vec = noise_risk_scores(predicted, conf, assigned)
        for i in range(200):
            scalar = noise_risk(Prediction(int(predicted[i]), float(conf[i]), int(assigned[i])))
            assert vec[i] == pytest.approx(scalar, rel=1e-12)

    def test_vectorized_validation(self):
        with pytest.raises(InputError):
            noise_risk_scores(np.array([0, 1]), np.array([0.5]), np.array([0, 1]))
        with pytest.raises(InputError):
            noise_risk_scores(np.array([0]), np.array([0.0]), np.array([0]))


class TestPlantedStream:
    def test_deterministic(self):
        spec = StreamSpec(kind=StreamKind.PLANTED, n=30, epochs=20, seed=9)
        a, b = generate_stream(spec), generate_stream(spec)
        for ra, rb in zip(a.risks, b.risks):
            np.testing.assert_array_equal(ra.values, rb.values)
        np.testing.assert_array_equal(a.clean_masks, b.clean_masks)

    def test_clean_count_and_constant_mask(self):
        spec = StreamSpec(kind=StreamKind.PLANTED, n=40, epochs=12, seed=3, clean_fraction=0.25)
        stream = generate_stream(spec)
        assert stream.clean_masks.shape == (12, 40)
        assert (stream.clean_masks.sum(axis=1) == 10).all()
        assert (stream.clean_masks == stream.clean_masks[0]).all()

    def test_clean_fraction_one_tracks_low_mean(self):
        spec = StreamSpec(kind=StreamKind.PLANTED, n=50, epochs=100, seed=5, clean_fraction=1.0)
        stream = generate_stream(spec)
        late = np.mean([r.values.mean() for r in stream.risks[-20:]])
        assert late < 0.12  # mean has converged near 0.05

    def test_means_separate_after_warmup(self):
        spec = StreamSpec(kind=StreamKind.PLANTED, n=200, epochs=80, seed=6, clean_fraction=0.5)
        stream = generate_stream(spec)
        mask = stream.clean_masks[0]
        late = np.mean([r.values[mask].mean() for r in stream.risks[-20:]])
        late_noisy = np.mean([r.values[~mask].mean() for r in stream.risks[-20:]])
        assert late < 0.12 and late_noisy > 0.88

    def test_values_in_unit_interval(self):
        spec = StreamSpec(kind=StreamKind.PLANTED, n=64, epochs=40, seed=7, noise_scale=0.5)
        for theta in generate_stream(spec).risks:
            assert theta.values.min() >= 0.0 and theta.values.max() <= 1.0

    def test_hindsight_prefers_planted_indices(self):
        spec = StreamSpec(kind=StreamKind.PLANTED, n=100, epochs=200, seed=8, clean_fraction=0.5)
        stream = generate_stream(spec)
        totals = np.sum([r.values for r in stream.risks], axis=0)
        best = top_k_smallest(totals, 50)
        overlap = stream.clean_masks[0][best.indices].mean()
        assert overlap >= 0.95


class TestDriftingStream:
    def test_period_beyond_horizon_equals_planted(self):
        base = dict(n=30, epochs=25, seed=4, clean_fraction=0.4)
        planted = generate_stream(StreamSpec(kind=StreamKind.PLANTED, **base))
        drifting = generate_stream(StreamSpec(kind=StreamKind.DRIFTING, drift_period=25, **base))
        for ra, rb in zip(planted.risks, drifting.risks):
            np.testing.assert_array_equal(ra.values, rb.values)
        np.testing.assert_array_equal(planted.clean_masks, drifting.clean_masks)

    def test_mask_redraws_on_period(self):
        spec = StreamSpec(kind=StreamKind.DRIFTING, n=100, epochs=30, seed=4, drift_period=10)
        stream = generate_stream(spec)
        masks = stream.clean_masks
        assert (masks[0] == masks[9]).all()
        assert not (masks[9] == masks[10]).all()  # redraw boundary

    def test_fast_drift_flattens_hindsight_advantage(self):
        # With per-epoch redraws no fixed selection stays lucky for long.
        n, epochs, k = 100, 200, 30
        fast = generate_stream(
            StreamSpec(kind=StreamKind.DRIFTING, n=n, epochs=epochs, seed=2, drift_period=1)
        )
        slow = generate_stream(StreamSpec(kind=StreamKind.PLANTED, n=n, epochs=epochs, seed=2))
        def best_ratio(stream):
            totals = np.sum([r.values for r in stream.risks], axis=0)
            best = totals[top_k_smallest(totals, k).indices].sum()
            mean_total = totals.mean() * k
            return best / mean_total
        assert best_ratio(fast) > 0.8
        assert best_ratio(slow) < 0.6

    def test_missing_period_rejected(self):
        with pytest.raises(ParameterError):
            StreamSpec(kind=StreamKind.DRIFTING, n=10, epochs=5)



def fresh_temporaries_stream(spec: StreamSpec):
    """The planted and drifting formula written out: clip(where(mask, c, n) + scale * z, 0, 1).

    Every epoch builds its means vector and each intermediate anew, and
    draws from the spec's seed in the same order: a mask on redraw
    epochs, then the epoch's normal noise.
    """
    rng = np.random.default_rng(spec.seed)
    n_clean = int(round(spec.clean_fraction * spec.n))
    period = spec.drift_period if spec.kind is StreamKind.DRIFTING else None
    warm = max(1, spec.epochs // 4)
    mask = None
    for t in range(1, spec.epochs + 1):
        if mask is None or (period is not None and (t - 1) % period == 0):
            mask = np.zeros(spec.n, dtype=bool)
            if n_clean > 0:
                mask[rng.choice(spec.n, size=n_clean, replace=False)] = True
        ramp = min(t, warm) / warm
        c, n = 0.5 - 0.45 * ramp, 0.5 + 0.45 * ramp
        yield np.clip(np.where(mask, c, n) + spec.noise_scale * rng.standard_normal(spec.n), 0.0, 1.0), mask.copy()


class TestStreamIsBitwiseTheFormula:
    SPECS = [
        StreamSpec(kind=StreamKind.PLANTED, n=500, epochs=40, seed=3),
        StreamSpec(kind=StreamKind.PLANTED, n=301, epochs=7, seed=4, clean_fraction=0.3, noise_scale=0.4),
        StreamSpec(kind=StreamKind.PLANTED, n=50, epochs=3, seed=5, clean_fraction=0.0),
        StreamSpec(kind=StreamKind.PLANTED, n=1, epochs=5, seed=6, clean_fraction=1.0),
        # Warm-up is epochs // 4 = 10: period 3 redraws inside the ramp and after it,
        # period 13 only after it (epochs 14, 27, 40), period 1 every epoch.
        StreamSpec(kind=StreamKind.DRIFTING, n=400, epochs=40, seed=7, drift_period=3),
        StreamSpec(kind=StreamKind.DRIFTING, n=400, epochs=40, seed=8, drift_period=13),
        StreamSpec(kind=StreamKind.DRIFTING, n=200, epochs=12, seed=9, drift_period=1, noise_scale=0.7),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind.value}-n{s.n}-T{s.epochs}-p{s.drift_period}")
    def test_equals_fresh_temporaries(self, spec):
        got = list(stream_epochs(spec))
        want = list(fresh_temporaries_stream(spec))
        assert len(got) == len(want) == spec.epochs
        for (theta, mask), (ref_theta, ref_mask) in zip(got, want):
            assert theta.values.tobytes() == ref_theta.tobytes()
            np.testing.assert_array_equal(mask, ref_mask)

    @pytest.mark.parametrize("eta", [0.0, 0.05, 3.0])
    def test_fpl_select_is_bottom_k_of_sums_plus_eta_noise(self, eta):
        spec = StreamSpec(kind=StreamKind.DRIFTING, n=300, epochs=12, seed=2, drift_period=2)
        cum, rng = CumulativeRisk.zeros(spec.n), np.random.default_rng(11)
        for theta, _ in stream_epochs(spec):
            cum = accumulate(cum, theta)
            z = copy.deepcopy(rng).standard_normal(spec.n)
            want = top_k_smallest(cum.sums + eta * z, 60).indices
            np.testing.assert_array_equal(fpl_select(cum, 60, eta, sample_perturbation(rng, spec.n)).indices, want)

class TestUniformStream:
    def test_deterministic(self):
        a = generate_stream(StreamSpec(kind=StreamKind.UNIFORM, n=20, epochs=10, seed=1))
        b = generate_stream(StreamSpec(kind=StreamKind.UNIFORM, n=20, epochs=10, seed=1))
        for ra, rb in zip(a.risks, b.risks):
            np.testing.assert_array_equal(ra.values, rb.values)

    def test_concentration(self):
        stream = generate_stream(StreamSpec(kind=StreamKind.UNIFORM, n=1000, epochs=1000, seed=2))
        values = np.stack([r.values for r in stream.risks])
        assert abs(values.mean() - 0.5) < 0.005
        assert abs(values.var() - 1.0 / 12.0) < 0.005

    def test_no_clean_mask(self):
        assert generate_stream(StreamSpec(kind=StreamKind.UNIFORM, n=5, epochs=5, seed=0)).clean_masks is None

    def test_bad_sizes(self):
        with pytest.raises(ParameterError):
            generate_stream(StreamSpec(kind=StreamKind.UNIFORM, n=0, epochs=5, seed=0))
        with pytest.raises(ParameterError):
            generate_stream(StreamSpec(kind=StreamKind.UNIFORM, n=5, epochs=0, seed=0))


class TestFtlAdversary:
    def test_first_and_alternating_vectors(self):
        stream = generate_stream(StreamSpec(kind=StreamKind.ADVERSARY, n=2, epochs=5))
        assert stream.risks[0].values.tolist() == [0.5, 0.0]
        assert stream.risks[1].values.tolist() == [0.0, 1.0]
        assert stream.risks[2].values.tolist() == [1.0, 0.0]
        assert stream.risks[3].values.tolist() == [0.0, 1.0]

    def test_leader_flips_every_epoch_and_pays(self):
        stream = generate_stream(StreamSpec(kind=StreamKind.ADVERSARY, n=2, epochs=100))
        cfg = SelectorConfig(k=1)
        sels = select_sequence(stream.risks, Strategy.NAIVE, cfg)
        per_epoch = [float(r.values[s.indices].sum()) for s, r in zip(sels, stream.risks)]
        # epoch 1 is run seed 0's seeded k-set, index 1, which theta_1 = (0.5, 0) charges nothing
        seeded = init_selection(2, 1, seed=int(np.random.SeedSequence(0).spawn(4)[3].generate_state(1)[0]))
        assert sels[0].indices.tolist() == seeded.indices.tolist() == [1]
        assert per_epoch[0] == 0.0
        assert all(v == 1.0 for v in per_epoch[1:])

    def test_leader_regret_grows_linearly(self):
        stream = generate_stream(StreamSpec(kind=StreamKind.ADVERSARY, n=2, epochs=500))
        cfg = SelectorConfig(k=1)
        trace = SelectionTrace(select_sequence(stream.risks, Strategy.NAIVE, cfg), stream.risks)
        assert regret(trace) >= 0.4 * 500


class TestGenerateStream:
    def test_dispatch(self):
        for kind, n in [(StreamKind.UNIFORM, 7), (StreamKind.PLANTED, 7), (StreamKind.ADVERSARY, 2)]:
            spec = StreamSpec(kind=kind, n=n, epochs=4, seed=0)
            stream = generate_stream(spec)
            assert stream.epochs == 4 and stream.n == n

    @pytest.mark.parametrize("kind", list(StreamKind))
    def test_equals_the_epoch_stream_bitwise(self, kind):
        spec = StreamSpec(
            kind=kind, n=2 if kind is StreamKind.ADVERSARY else 50, epochs=9, seed=4,
            drift_period=3 if kind is StreamKind.DRIFTING else None,
        )
        # snapshot each epoch as it is yielded, before the next one is built
        epochs = [
            (theta.values.tobytes(), None if mask is None else mask.copy()) for theta, mask in stream_epochs(spec)
        ]
        stream = generate_stream(spec)
        assert [theta.values.tobytes() for theta in stream.risks] == [values for values, _ in epochs]
        if kind in (StreamKind.PLANTED, StreamKind.DRIFTING):
            np.testing.assert_array_equal(stream.clean_masks, np.stack([mask for _, mask in epochs]))
        else:
            assert stream.clean_masks is None and all(mask is None for _, mask in epochs)

    def test_adversary_needs_two_indices(self):
        with pytest.raises(ParameterError):
            StreamSpec(kind=StreamKind.ADVERSARY, n=3, epochs=4)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            StreamSpec(kind=StreamKind.UNIFORM, n=5, epochs=5, clean_fraction=1.5)
        with pytest.raises(ParameterError):
            StreamSpec(kind=StreamKind.UNIFORM, n=5, epochs=5, noise_scale=-1.0)


class TestStreamCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        stream = generate_stream(StreamSpec(kind=StreamKind.PLANTED, n=13, epochs=9, seed=12))
        path = tmp_path / "stream.csv"
        dump_stream_csv(stream, path)
        loaded = load_stream_csv(path)
        assert loaded.epochs == stream.epochs and loaded.n == stream.n
        for ra, rb in zip(stream.risks, loaded.risks):
            np.testing.assert_array_equal(ra.values, rb.values)

    def test_header_format(self, tmp_path):
        stream = generate_stream(StreamSpec(kind=StreamKind.UNIFORM, n=3, epochs=2, seed=0))
        path = tmp_path / "s.csv"
        dump_stream_csv(stream, path)
        assert path.read_text().splitlines()[0] == "epoch,theta_0,theta_1,theta_2"

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("epoch,theta_0,theta_2\n1,0.5,0.5\n")
        with pytest.raises(InputError):
            load_stream_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("epoch,theta_0,theta_1\n1,0.5\n")
        with pytest.raises(InputError):
            load_stream_csv(path)

    def test_non_numeric_value_names_file_and_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("epoch,theta_0,theta_1\n1,0.5,0.5\n2,abc,0.5\n")
        with pytest.raises(InputError, match=r"bad\.csv: row 3: .*abc"):
            load_stream_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError):
            load_stream_csv(path)

    def test_error_names_the_file_line_counting_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("epoch,theta_0\n\n1,0.5\n2,oops\n")
        with pytest.raises(InputError) as exc:
            load_stream_csv(path)
        assert str(exc.value) == f"{path}: row 4: could not convert string to float: 'oops'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("epoch,theta_0\n1,0.5\nfoo,0.5\n", "row 3: invalid literal for int() with base 10: 'foo'"),
            ("epoch,theta_0\n1,0.5\n\n-7,0.5\n", "row 4: epoch -7, expected 2"),
            ("epoch,theta_0\n2,0.5\n1,0.5\n", "row 2: epoch 2, expected 1"),
            ("epoch,theta_0\n1,0.5\n1,0.5\n", "row 3: epoch 1, expected 2"),
        ],
    )
    def test_epoch_column_must_count_from_one(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputError) as exc:
            load_stream_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"epoch,theta_0,theta_1\n1,0.5,0.5\n\n2,0.25,{bad}\n")
        with pytest.raises(InputError) as exc:
            load_stream_csv(path)
        assert str(exc.value) == f"{path}: row 4: values must be finite"

    @pytest.mark.parametrize("bad", ["1.5", "-0.25"])
    def test_value_outside_unit_interval_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"epoch,theta_0,theta_1\n1,0.5,0.5\n\n2,{bad},0.25\n")
        with pytest.raises(InputError) as exc:
            load_stream_csv(path)
        assert str(exc.value) == f"{path}: row 4: risk values must lie in [0, 1]"

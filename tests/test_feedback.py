"""Noise-risk scoring and the synthetic risk streams."""

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
from ksetsel.selection import SelectorConfig, Strategy, top_k_smallest
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
        cfg = SelectorConfig(strategy=Strategy.NAIVE, k=1)
        sels = select_sequence(stream.risks, cfg)
        per_epoch = [float(r.values[s.indices].sum()) for s, r in zip(sels, stream.risks)]
        assert per_epoch[0] == 0.5
        assert all(v == 1.0 for v in per_epoch[1:])

    def test_leader_regret_grows_linearly(self):
        stream = generate_stream(StreamSpec(kind=StreamKind.ADVERSARY, n=2, epochs=500))
        cfg = SelectorConfig(strategy=Strategy.NAIVE, k=1)
        trace = SelectionTrace(select_sequence(stream.risks, cfg), stream.risks)
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

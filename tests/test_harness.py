"""Experiment harness: config parsing, run modes, CSV outputs, CLI."""

import argparse
import dataclasses
import gc
import math
import os
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksetsel
from ksetsel import ahead, cli, harness, mlp, selection, training
from ksetsel.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from ksetsel.datasets import LabelNoiseSpec, make_blobs, save_csv_dataset
from ksetsel.errors import ConfigError, DataError, InputError, ParameterError
from ksetsel.feedback import StreamSpec, dump_stream_csv, load_stream_csv, noise_risk_scores
from ksetsel.harness import (
    ETA_COEFFICIENT_GRID,
    METRICS_HEADER,
    VALIDATE_RISK_FRACTIONS,
    ExperimentConfig,
    build_config,
    k_fraction_grid,
    parse_config_file,
    parse_noise,
    resolve_eta,
    run_ablate,
    run_bounds,
    run_grid_search,
    run_simulate,
    run_train,
    run_validate_risk,
    stratified_split,
)
from ksetsel.selection import RiskVector, SelectorConfig, Strategy
from ksetsel.training import select_sequence, train_selective

FIELD_NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)}


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1:]


def drop_wall(rows):
    return [r.rsplit(",", 1)[0] for r in rows]


class TestConfigParsing:
    def test_resolve_eta(self):
        assert resolve_eta(2.0, 9, 4) == pytest.approx(2.0 * 6.0)
        assert resolve_eta(0.0, 9, 4) == 0.0
        with pytest.raises(ConfigError):
            resolve_eta(-1.0, 9, 4)

    def test_parse_noise(self):
        assert parse_noise("sym:0.5") == LabelNoiseSpec("sym", 0.5)
        assert parse_noise("asym:0.4") == LabelNoiseSpec("asym", 0.4)
        # LabelNoiseSpec checks kind and rate; build_config names the key
        bad = {
            "gauss:0.5": "config key 'noise': noise kind must be 'sym' or 'asym', got 'gauss'",
            "bogus:0.2": "config key 'noise': noise kind must be 'sym' or 'asym', got 'bogus'",
            "sym": "noise must look like KIND:RATE, got 'sym'",
            "sym:zap": "config key 'noise': could not convert string to float: 'zap'",
            "sym:1.5": r"config key 'noise': noise rate must lie in \[0, 1\], got 1.5",
        }
        for value, message in bad.items():
            with pytest.raises(ConfigError, match=message):
                build_config({"noise": value})

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            "mode = train\n"
            "seeds = 1, 2, 3\n"
            "k_frac = 0.3   # selection size\n"
            "\n"
            "noise = sym:0.5\n"
            "selectors = greedy, RANDOM\n"
            "test_n = 40\n"
            "lr = 1\n"
            "idx_images = a.idx\n"
        )
        raw = parse_config_file(path)
        assert raw == {
            "mode": "train", "seeds": "1, 2, 3", "k_frac": "0.3", "noise": "sym:0.5",
            "selectors": "greedy, RANDOM", "test_n": "40", "lr": "1", "idx_images": "a.idx",
        }
        cfg = build_config(raw)
        assert cfg.mode == "train"
        assert cfg.seeds == (1, 2, 3)
        assert cfg.k_frac == 0.3
        assert cfg.noise == LabelNoiseSpec("sym", 0.5)
        assert cfg.selectors == (Strategy.GREEDY, Strategy.RANDOM)
        assert cfg.test_n == 40 and type(cfg.lr) is float and cfg.idx_images == "a.idx"

    def test_duplicate_key_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 5\nk = 6\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(path)

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode = train\nbogus line\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "nope.cfg")
        undecodable = tmp_path / "latin1.cfg"
        undecodable.write_bytes(b"mode = train\nout = \xff\xfe.csv\n")
        with pytest.raises(ConfigError):
            parse_config_file(undecodable)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_config({"mode": "train", "zeta": "1"})
        # the noise fields are settable through `noise` only
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"noise_kind": "sym"})

    def test_bad_selector_listed(self):
        with pytest.raises(ConfigError, match="valid:"):
            build_config({"mode": "train", "selectors": "fpl, ftrl"})

    def test_accepted_keys_are_the_config_fields(self):
        def accepted(key):
            try:
                build_config({key: "1"})
            except ConfigError as exc:
                return "unknown config key" not in str(exc)
            return True

        candidates = FIELD_NAMES | {"noise", "zeta"}
        expected = (FIELD_NAMES - {"noise_kind", "noise_rate"}) | {"noise"}
        assert {key for key in candidates if accepted(key)} == expected

    _VALUES = st.one_of(
        st.text(max_size=12),
        st.integers().map(str),
        st.floats().map(repr),
        st.sampled_from([
            "0", "-1", "1e9", "nan", "inf", "train", "blobs", "csv", "fpl, naive", "ftrl", ",",
            "sym:0.5", "asym:2", "sym", "1, 2", "1,,x", "9" * 5000,
        ]),
    )
    _LINES = st.one_of(
        st.tuples(st.sampled_from(sorted(FIELD_NAMES | {"noise", "zeta"})), _VALUES).map(" = ".join),
        st.text(max_size=20),
    )

    @given(st.lists(_LINES, max_size=8))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_files_fail_only_with_config_error(self, tmp_path, lines):
        path = tmp_path / "fuzz.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            cfg = build_config(parse_config_file(path))
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"k": 3, "k_frac": 0.5}, "set only one of k and k_frac"),
            ({"mode": "serve"}, "unknown mode 'serve'"),
            ({"seeds": ()}, "seeds list is empty"),
            ({"seeds": (0, -1)}, "seeds must be >= 0"),
            ({"data_seed": -1}, "seeds must be >= 0"),
            ({"n": 0, "seeds": (0, 0)}, "seeds must be distinct, got [0, 0]"),
            ({"selectors": ()}, "selector list is empty"),
            ({"n": 0}, "n must be >= 1, got 0"),
            ({"epochs": -2}, "epochs must be >= 1, got -2"),
            ({"test_n": 0}, "test_n must be >= 1, got 0"),
            ({"dataset": "parquet"}, "dataset must be blobs, idx, or csv, got 'parquet'"),
            ({"idx_test_images": "t.idx"}, "set both idx_test_images and idx_test_labels, or neither"),
            ({"idx_test_labels": "t.idx"}, "set both idx_test_images and idx_test_labels, or neither"),
            ({"validation_fraction": 0.0}, "validation_fraction must lie in (0, 1), got 0.0"),
            ({"validation_fraction": 1.0}, "validation_fraction must lie in (0, 1), got 1.0"),
            ({"validation_fraction": float("nan")}, "validation_fraction must lie in (0, 1), got nan"),
            ({"selectors": ("fpl", "xyz")}, "unknown selector 'xyz'; valid: fpl, naive, greedy, random"),
            ({"selectors": "fpl"}, "selectors must be a sequence of Strategy, got 'fpl'"),
            ({"noise": "sym:0.4"}, "noise must be of type LabelNoiseSpec, got 'sym:0.4'"),
            ({"seeds": ("0",)}, "seeds must be a sequence of int, got ('0',)"),
            ({"seeds": [0, 1.0]}, "seeds must be a sequence of int, got [0, 1.0]"),
            ({"epochs": "5"}, "epochs must be of type int, got '5'"),
            ({"hidden": "8"}, "hidden must be of type int, got '8'"),
            ({"n": 2.5}, "n must be of type int, got 2.5"),
            ({"k": 3.0}, "k must be of type int, got 3.0"),
            ({"k_frac": "0.5"}, "k_frac must be of type float, got '0.5'"),
            ({"lr": "0.1"}, "lr must be of type float, got '0.1'"),
            ({"seeds": 5}, "seeds must be a sequence of int, got 5"),
            ({"selectors": 5}, "selectors must be a sequence of Strategy, got 5"),
            ({"selectors": ("fpl", 5)}, "selectors must be a sequence of Strategy, got ('fpl', 5)"),
            ({"out": 5}, "out must be of type str, got 5"),
            ({"dataset": "csv", "csv_path": 3}, "csv_path must be of type str, got 3"),
            ({"noise_rate_estimate": 2.0}, "noise_rate_estimate must lie in [0, 1], got 2.0"),
            ({"alpha": 5.0}, "alpha must lie in (0, 1], got 5.0"),
            ({"alpha": 0.0}, "alpha must lie in (0, 1], got 0.0"),
            ({"stream": "bogus"}, "unknown stream 'bogus'; valid: uniform, planted, drifting, adversary, csv"),
            ({"stream": "csv"}, "stream = csv needs stream_csv = PATH"),
            ({"clean_fraction": 3.0}, "clean_fraction must lie in [0, 1], got 3.0"),
            ({"noise_scale": -1.0}, "noise_scale must be finite and >= 0, got -1.0"),
            ({"stream": "drifting", "drift_period": 0}, "drifting stream needs drift_period >= 1"),
            ({"epochs": True}, "epochs must be of type int, got True"),
            ({"lr": False}, "lr must be of type float, got False"),
            ({"seeds": (0, True)}, "seeds must be a sequence of int, got (0, True)"),
            ({"dim": 0}, "dim must be >= 1, got 0"),
            ({"classes": 0}, "classes must be >= 1, got 0"),
            ({"separation": -1.0}, "separation must be finite and > 0, got -1.0"),
            ({"separation": float("nan")}, "separation must be finite and > 0, got nan"),
            ({"dataset": "idx"}, "dataset = idx needs idx_images and idx_labels paths"),
            ({"dataset": "idx", "idx_images": "i.idx"}, "dataset = idx needs idx_images and idx_labels paths"),
            ({"dataset": "csv"}, "dataset = csv needs csv_path"),
            ({"k": 0}, "k must be >= 1, got 0"),
            ({"k": -3}, "k must be >= 1, got -3"),
        ],
    )
    def test_direct_config_checks_itself(self, fields, message):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**fields)
        assert message in str(exc.value)

    def test_a_path_that_is_not_a_str_fails_before_any_file_is_touched(self, tmp_path):
        # an int path would name an open file descriptor to numpy and Path alike
        path = tmp_path / "data.csv"
        path.write_text("x0,label\n0.5,1\n")
        fd = os.open(path, os.O_RDONLY)
        try:
            for key in ("csv_path", "csv_test_path", "out"):
                with pytest.raises(ConfigError, match=f"^{key} must be of type str, got {fd}$"):
                    ExperimentConfig(dataset="csv", **{"csv_path": str(path), key: fd})
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0  # still open, nothing read
        finally:
            os.close(fd)

    def test_a_sequence_is_stored_as_a_tuple(self):
        cfg = ExperimentConfig(seeds=[0], selectors=["naive"])
        assert (cfg.seeds, cfg.selectors) == ((0,), (Strategy.NAIVE,))
        assert hash(cfg) == hash(ExperimentConfig(seeds=(0,), selectors=(Strategy.NAIVE,)))

    @pytest.mark.parametrize("key, value", [("hidden", "0"), ("batch_size", "0"), ("lr", "-1")])
    def test_learner_keys_are_checked_by_learner_spec_alone(self, monkeypatch, key, value):
        # LearnerSpec's check is the one a config reports; nothing else checks these keys
        def sentinel(spec):
            raise ParameterError("sentinel learner check")

        monkeypatch.setattr(mlp.LearnerSpec, "__post_init__", sentinel)
        with pytest.raises(ConfigError, match="^sentinel learner check$"):
            build_config({key: value})
        monkeypatch.setattr(mlp.LearnerSpec, "__post_init__", lambda spec: None)
        cfg = build_config({key: value})
        assert getattr(cfg.learner, key) == getattr(cfg, key)

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"clean_fraction": "3"}, "clean_fraction"),
            ({"noise_scale": "-1"}, "noise_scale"),
            ({"stream": "drifting", "drift_period": "0"}, "drift_period"),
        ],
    )
    def test_stream_keys_are_checked_by_stream_spec_alone(self, monkeypatch, raw, key):
        # StreamSpec's check is the one a config reports; nothing else checks these keys
        def sentinel(spec):
            raise ParameterError("sentinel stream check")

        monkeypatch.setattr(StreamSpec, "__post_init__", sentinel)
        with pytest.raises(ConfigError, match="^sentinel stream check$"):
            build_config(raw)
        monkeypatch.setattr(StreamSpec, "__post_init__", lambda spec: None)
        cfg = build_config(raw)
        assert getattr(cfg.stream_spec, key) == getattr(cfg, key)

    def test_simulate_hands_each_seed_the_configs_stream_spec(self, tmp_path, monkeypatch):
        # one StreamSpec per config; each seed's stream changes its seed and nothing else
        cfg = ExperimentConfig(
            mode="simulate", out=str(tmp_path / "m.csv"), seeds=(3, 1), stream="drifting", n=30, k=5, epochs=4,
            clean_fraction=0.3, noise_scale=0.2, drift_period=2,
        )
        specs = []
        real = harness.stream_epochs

        def recorded(spec):
            specs.append(spec)
            return real(spec)

        monkeypatch.setattr(harness, "stream_epochs", recorded)
        run_simulate(cfg)
        assert specs == [dataclasses.replace(cfg.stream_spec, seed=seed) for seed in cfg.seeds]
        assert cfg.stream_spec.seed == 3 and cfg.stream_spec.drift_period == 2

    def test_train_epoch_is_handed_the_configs_learner(self, tmp_path, monkeypatch):
        # the LearnerSpec a config builds reaches training as built, every epoch
        cfg = tiny_train_cfg(tmp_path, seeds=(0,), epochs=2)
        learners = []
        real = training.train_epoch

        def recorded(model, dataset, selection, learner, rng):
            learners.append(learner)
            return real(model, dataset, selection, learner, rng)

        monkeypatch.setattr(training, "train_epoch", recorded)
        run_train(cfg)
        assert len(learners) == 2 and all(learner is cfg.learner for learner in learners)

    def test_direct_config_takes_any_sequence_and_an_int_for_a_float(self):
        cfg = ExperimentConfig(seeds=[3, np.int64(4)], selectors=["naive"], lr=1, k_frac=1, eta_coefficient=0)
        assert (list(cfg.seeds), cfg.selectors, cfg.learner.lr, cfg.resolve_k(10)) == ([3, 4], (Strategy.NAIVE,), 1, 10)

    def test_direct_config_turns_selector_names_into_strategies(self):
        cfg = ExperimentConfig(selectors=("fpl", "NAIVE", Strategy.FPL, "Greedy"))
        assert cfg.selectors == (Strategy.FPL, Strategy.NAIVE, Strategy.GREEDY)
        assert all(type(s) is Strategy for s in cfg.selectors)

    def test_defaults_are_the_specs_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.learner == mlp.LearnerSpec()
        defaults = {f.name: f.default for f in dataclasses.fields(StreamSpec)}
        assert (cfg.clean_fraction, cfg.noise_scale) == (defaults["clean_fraction"], defaults["noise_scale"])

    def test_direct_config_counts_a_repeated_selector_once(self):
        cfg = ExperimentConfig(selectors=(Strategy.FPL, Strategy.NAIVE, Strategy.FPL))
        assert cfg.selectors == (Strategy.FPL, Strategy.NAIVE)

    def test_resolve_k(self):
        assert ExperimentConfig(k=5).resolve_k(10) == 5
        assert ExperimentConfig(k_frac=0.25).resolve_k(10) == 2
        assert ExperimentConfig(k_frac=0.001).resolve_k(10) == 1  # floor at 1
        with pytest.raises(ConfigError):
            ExperimentConfig().resolve_k(10)
        with pytest.raises(ConfigError):
            ExperimentConfig(k=11).resolve_k(10)


class TestGridHelpers:
    def test_k_fraction_grid_centered(self):
        grid = k_fraction_grid(0.5)
        assert grid == pytest.approx([0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65])

    def test_k_fraction_grid_can_leave_unit_interval(self):
        # run_grid_search clamps k later and warns; the raw grid is honest
        grid = k_fraction_grid(0.9)
        assert min(grid) == pytest.approx(-0.05)
        assert max(grid) == pytest.approx(0.25)

    def test_k_fraction_grid_domain(self):
        with pytest.raises(ConfigError):
            k_fraction_grid(-0.1)
        with pytest.raises(ConfigError):
            k_fraction_grid(1.1)

    def test_stratified_split_covers_and_balances(self):
        labels = np.repeat(np.arange(4), 50)
        train_idx, val_idx = stratified_split(labels, 0.2, seed=0)
        assert np.intersect1d(train_idx, val_idx).size == 0
        assert np.union1d(train_idx, val_idx).size == 200
        for cls in range(4):
            assert (labels[val_idx] == cls).sum() == 10

    def test_stratified_split_deterministic(self):
        labels = np.random.default_rng(0).integers(0, 3, size=90)
        a = stratified_split(labels, 0.2, seed=5)
        b = stratified_split(labels, 0.2, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_stratified_split_domain(self):
        with pytest.raises(ConfigError):
            stratified_split(np.zeros(10, dtype=np.int64), 0.0, seed=0)


def tiny_train_cfg(tmp_path, **over):
    base = dict(
        mode="train",
        out=str(tmp_path / "m.csv"),
        seeds=(0, 1),
        selectors=(Strategy.FPL,),
        n=120,
        k_frac=0.3,
        epochs=4,
        eta_coefficient=1e-3,
        dim=4,
        classes=3,
        separation=8.0,
        test_n=40,
        noise=LabelNoiseSpec("sym", 0.4),
        hidden=8,
        lr=0.05,
        batch_size=16,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestRunTrain:
    def test_csv_schema_and_row_count(self, tmp_path):
        cfg = tiny_train_cfg(tmp_path)
        result = run_train(cfg)
        header, rows = read_rows(tmp_path / "m.csv")
        assert header == METRICS_HEADER
        assert len(rows) == 2 * 4  # seeds x epochs
        seeds = {int(r.split(",")[0]) for r in rows}
        assert seeds == {0, 1}
        sum_header, sum_rows = read_rows(tmp_path / "m_summary.csv")
        assert sum_header == "run_seed,last10_test_acc,last10_label_precision"
        assert len(sum_rows) == 2
        assert 0.0 <= result.mean_test_acc <= 1.0

    def test_rerun_identical_up_to_wall_column(self, tmp_path):
        cfg = tiny_train_cfg(tmp_path)
        run_train(cfg)
        _, first = read_rows(tmp_path / "m.csv")
        run_train(cfg)
        _, second = read_rows(tmp_path / "m.csv")
        assert drop_wall(first) == drop_wall(second)

    def test_requires_single_selector(self, tmp_path):
        cfg = tiny_train_cfg(tmp_path, selectors=(Strategy.FPL, Strategy.NAIVE))
        with pytest.raises(ConfigError):
            run_train(cfg)

    def test_requires_out(self, tmp_path):
        cfg = tiny_train_cfg(tmp_path, out=None)
        with pytest.raises(ConfigError):
            run_train(cfg)

    def test_csv_test_file_may_lack_the_top_class(self, tmp_path):
        data = make_blobs(150, 4, 3, separation=8.0, seed=0)
        save_csv_dataset(data, tmp_path / "train.csv")
        save_csv_dataset(data.subset(np.flatnonzero(data.true_labels < 2)), tmp_path / "test.csv")
        cfg = tiny_train_cfg(
            tmp_path, dataset="csv", csv_path=str(tmp_path / "train.csv"),
            csv_test_path=str(tmp_path / "test.csv"), seeds=(0,),
        )
        result = run_train(cfg)
        assert 0.0 <= result.mean_test_acc <= 1.0


class TestRunSimulate:
    def test_adversary_separates_naive_from_fpl(self, tmp_path):
        cfg = ExperimentConfig(
            mode="simulate",
            out=str(tmp_path / "sim.csv"),
            seeds=(0, 1, 2),
            selectors=(Strategy.NAIVE, Strategy.FPL),
            stream="adversary",
            k=1,
            epochs=400,
            eta_coefficient=1.0,  # eta = sqrt(kT)
        )
        result = run_simulate(cfg)
        naive = result.reports[Strategy.NAIVE]
        fpl = result.reports[Strategy.FPL]
        # the follow-the-leader selector pays ~T/2; the perturbed one stays
        # under the closed-form ceiling
        assert naive.empirical_regret > 0.4 * 400
        assert fpl.empirical_regret <= fpl.regret_ceiling
        assert (tmp_path / "sim_naive.csv").exists()
        assert (tmp_path / "sim_fpl.csv").exists()

    def test_selection_risk_matches_select_sequence(self, tmp_path):
        dump = tmp_path / "stream.csv"
        cfg = ExperimentConfig(
            mode="simulate", out=str(tmp_path / "sim.csv"), seeds=(4,), selectors=tuple(Strategy),
            stream="planted", n=40, k=10, epochs=12, eta_coefficient=0.05, dump_stream=str(dump),
        )
        run_simulate(cfg)
        risks = load_stream_csv(dump)
        eta = resolve_eta(0.05, 10, 12)
        for strategy in Strategy:
            sels = select_sequence(risks, strategy, SelectorConfig(k=10, eta=eta, seed=4))
            expected = [format(float(r.values[s.indices].sum()), ".10g") for s, r in zip(sels, risks)]
            _, rows = read_rows(tmp_path / f"sim_{strategy.value}.csv")
            assert [row.split(",")[2] for row in rows] == expected, strategy

    def test_single_selector_uses_out_directly(self, tmp_path):
        cfg = ExperimentConfig(
            mode="simulate",
            out=str(tmp_path / "sim.csv"),
            seeds=(0,),
            selectors=(Strategy.FPL,),
            stream="uniform",
            n=40,
            k=8,
            epochs=5,
        )
        result = run_simulate(cfg)
        assert result.csv_paths[Strategy.FPL] == str(tmp_path / "sim.csv")
        header, rows = read_rows(tmp_path / "sim.csv")
        assert header == METRICS_HEADER
        assert len(rows) == 5

    def test_dump_stream(self, tmp_path):
        cfg = ExperimentConfig(
            mode="simulate",
            out=str(tmp_path / "sim.csv"),
            seeds=(3,),
            selectors=(Strategy.FPL,),
            stream="planted",
            n=30,
            k=6,
            epochs=4,
            dump_stream=str(tmp_path / "stream.csv"),
        )
        run_simulate(cfg)
        header, rows = read_rows(tmp_path / "stream.csv")
        assert header.startswith("epoch,theta_0")
        assert len(rows) == 4

    def test_dump_holds_one_risk_vector_not_the_stream(self, tmp_path):
        # Each row is written as its epoch is drawn, so ten times the epochs leaves the traced peak flat.
        n = 50_000
        dump = str(tmp_path / "stream.csv")
        run_simulate(sim_cfg(tmp_path, seeds=(0,), n=n, k=n // 5, epochs=2, dump_stream=dump))  # first-call set-up

        def traced_peak(epochs):
            tracemalloc.start()
            try:
                run_simulate(sim_cfg(tmp_path, seeds=(0,), n=n, k=n // 5, epochs=epochs, dump_stream=dump))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = traced_peak(4), traced_peak(40)
        assert long <= 1.25 * short, (short, long)

    def test_replayed_stream_csv(self, tmp_path):
        dump = tmp_path / "stream.csv"
        cfg = ExperimentConfig(
            mode="simulate", out=str(tmp_path / "a.csv"), seeds=(3,),
            selectors=(Strategy.NAIVE,), stream="planted", n=30, k=6, epochs=4,
            dump_stream=str(dump),
        )
        first = run_simulate(cfg)
        replay = ExperimentConfig(
            mode="simulate", out=str(tmp_path / "b.csv"), seeds=(3,),
            selectors=(Strategy.NAIVE,), stream="csv", stream_csv=str(dump),
            k=6, epochs=4,
        )
        second = run_simulate(replay)
        a = first.reports[Strategy.NAIVE]
        b = second.reports[Strategy.NAIVE]
        assert a.empirical_regret == pytest.approx(b.empirical_regret, abs=1e-12)

    def test_replay_takes_n_and_epochs_from_the_file(self, tmp_path):
        dump = tmp_path / "stream.csv"
        base = dict(mode="simulate", seeds=(3,), selectors=tuple(Strategy), k_frac=0.2, eta_coefficient=0.05)
        first = run_simulate(ExperimentConfig(
            out=str(tmp_path / "a.csv"), stream="planted", n=30, epochs=10, dump_stream=str(dump), **base
        ))
        # n and epochs keep their defaults (2000 and 100); the 30 x 10 file decides both
        second = run_simulate(ExperimentConfig(out=str(tmp_path / "b.csv"), stream="csv", stream_csv=str(dump), **base))
        for strategy in Strategy:
            assert second.reports[strategy].lines() == first.reports[strategy].lines(), strategy
            _, a_rows = read_rows(Path(first.csv_paths[strategy]))
            _, b_rows = read_rows(Path(second.csv_paths[strategy]))
            assert [r.split(",")[:4] for r in b_rows] == [r.split(",")[:4] for r in a_rows], strategy
        assert "T=10" in first.reports[Strategy.FPL].lines()[0]

    def test_replayed_file_is_read_once_per_run(self, tmp_path, monkeypatch):
        dump = tmp_path / "stream.csv"
        run_simulate(sim_cfg(tmp_path, seeds=(0,), dump_stream=str(dump)))
        calls = []

        def counted(path):
            calls.append(path)
            return load_stream_csv(path)

        monkeypatch.setattr(harness, "load_stream_csv", counted)
        run_simulate(sim_cfg(tmp_path, stream="csv", stream_csv=str(dump)))
        assert calls == [str(dump)]


class TestRunAblate:
    def test_winner_flag_matches_accuracy(self, tmp_path):
        cfg = tiny_train_cfg(
            tmp_path,
            mode="ablate",
            out=str(tmp_path / "cmp.csv"),
            selectors=(Strategy.FPL, Strategy.RANDOM, Strategy.GREEDY),
            seeds=(0,),
        )
        result = run_ablate(cfg)
        assert result.best == max(result.mean_test_acc, key=result.mean_test_acc.get)
        header, rows = read_rows(tmp_path / "cmp.csv")
        assert header == "selector,mean_last10_test_acc,mean_last10_label_precision,is_best"
        flags = {r.split(",")[0]: r.split(",")[3] for r in rows}
        assert flags[result.best.value] == "1"
        assert sum(v == "1" for v in flags.values()) == 1
        for s in cfg.selectors:
            assert (tmp_path / f"cmp_{s.value}.csv").exists()

    def test_fpl_equals_naive_at_zero_coefficient(self, tmp_path):
        cfg = tiny_train_cfg(
            tmp_path,
            mode="ablate",
            out=str(tmp_path / "cmp.csv"),
            selectors=(Strategy.FPL, Strategy.NAIVE),
            eta_coefficient=0.0,
            seeds=(0,),
        )
        result = run_ablate(cfg)
        assert result.mean_test_acc[Strategy.FPL] == result.mean_test_acc[Strategy.NAIVE]
        _, fpl_rows = read_rows(tmp_path / "cmp_fpl.csv")
        _, naive_rows = read_rows(tmp_path / "cmp_naive.csv")
        assert drop_wall(fpl_rows) == drop_wall(naive_rows)

    def test_direct_config_writes_one_row_per_selector(self, tmp_path):
        cfg = tiny_train_cfg(
            tmp_path,
            mode="ablate",
            out=str(tmp_path / "cmp.csv"),
            selectors=(Strategy.FPL, Strategy.FPL, Strategy.NAIVE),
            seeds=(0,),
        )
        run_ablate(cfg)
        _, rows = read_rows(tmp_path / "cmp.csv")
        assert [row.split(",")[0] for row in rows] == ["fpl", "naive"]
        assert sum(row.endswith(",1") for row in rows) == 1

    def test_selector_names_write_the_same_bytes_as_members(self, tmp_path):
        written = []
        for tag, selectors in (("names", ("fpl", "naive")), ("members", (Strategy.FPL, Strategy.NAIVE))):
            (tmp_path / tag).mkdir()
            run_ablate(ablate_cfg(tmp_path, out=str(tmp_path / tag / "cmp.csv"), seeds=(0, 1), selectors=selectors))
            files = sorted((tmp_path / tag).iterdir())
            written.append({p.name: p.read_text() if p.name == "cmp.csv" else drop_wall(p.read_text().splitlines())
                            for p in files})
        assert list(written[0]) == ["cmp.csv", "cmp_fpl.csv", "cmp_naive.csv"]
        assert written[0] == written[1]

    def test_needs_two_selectors(self, tmp_path):
        cfg = tiny_train_cfg(tmp_path, mode="ablate", selectors=(Strategy.FPL,))
        with pytest.raises(ConfigError):
            run_ablate(cfg)


def sim_cfg(tmp_path, **over):
    base = dict(
        mode="simulate", out=str(tmp_path / "sim.csv"), seeds=(0, 1, 2), selectors=tuple(Strategy),
        stream="planted", n=60, k=12, epochs=6, eta_coefficient=0.05,
    )
    base.update(over)
    return ExperimentConfig(**base)


def ablate_cfg(tmp_path, **over):
    base = dict(mode="ablate", out=str(tmp_path / "cmp.csv"), seeds=(0, 1, 2), selectors=tuple(Strategy))
    base.update(over)
    return tiny_train_cfg(tmp_path, **base)


class TestSeedBySeedRuns:
    """simulate, train and ablate run seed by seed through `_run_seeds`."""

    @pytest.mark.parametrize(
        "builder, make_cfg, run",
        [("stream_epochs", sim_cfg, run_simulate), ("_noisy_copy", ablate_cfg, run_ablate)],
    )
    def test_one_seed_inputs_alive_at_a_time(self, tmp_path, monkeypatch, builder, make_cfg, run):
        real = getattr(harness, builder)
        refs, alive_at_build = [], []

        def tracked(*args):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in refs))
            inputs = real(*args)
            refs.append(weakref.ref(inputs))
            return inputs

        monkeypatch.setattr(harness, builder, tracked)
        run(make_cfg(tmp_path))
        assert alive_at_build == [0, 0, 0]

    @pytest.mark.parametrize("make_cfg, run", [(sim_cfg, run_simulate), (ablate_cfg, run_ablate)])
    def test_multi_seed_rows_equal_single_seed_runs(self, tmp_path, make_cfg, run):
        dirs = {seeds: tmp_path / "_".join(map(str, seeds)) for seeds in ((0, 1, 2), (0,), (1,), (2,))}
        for seeds, out_dir in dirs.items():
            out_dir.mkdir()
            run(make_cfg(out_dir, seeds=seeds))
        for strategy in Strategy:
            name = Path(make_cfg(tmp_path).out).stem + f"_{strategy.value}.csv"
            joined = [row for seed in (0, 1, 2) for row in read_rows(dirs[(seed,)] / name)[1]]
            assert drop_wall(read_rows(dirs[(0, 1, 2)] / name)[1]) == drop_wall(joined), strategy

    @pytest.mark.parametrize(
        "runner, make_cfg, run, seeds",
        # simulate makes one run_epochs call per seed, ablate one train_selective call per (selector, seed)
        [("run_epochs", sim_cfg, run_simulate, (0, 1)), ("train_selective", ablate_cfg, run_ablate, (0,))],
    )
    def test_failed_run_writes_no_metrics(self, tmp_path, monkeypatch, runner, make_cfg, run, seeds):
        # The second run is simulate's second seed, or ablate's second selector, which a forked child
        # runs: children share no call count, so the run is told by its config.
        real = getattr(harness, runner)
        force_fork(monkeypatch)

        def fails_second(*args):
            if args[1].seed == 1 if runner == "run_epochs" else args[2] is Strategy.NAIVE:
                raise ConfigError("second run fails")
            return real(*args)

        monkeypatch.setattr(harness, runner, fails_second)
        with pytest.raises(ConfigError, match="second run fails"):
            run(make_cfg(tmp_path, seeds=seeds))
        assert list(tmp_path.iterdir()) == []


def force_fork(monkeypatch):
    """Let fork_map fork in this test process on any host; its BLAS pool would keep every run inline."""
    monkeypatch.setattr(ahead, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ahead, "_one_thread", lambda: True)


def force_inline(monkeypatch):
    """Keep fork_map inline, so a spy in this test process sees every run.

    A fork makes OpenBLAS stop its pool until a large GEMM restarts it,
    so after one, fork_map may fork in this process too.
    """
    monkeypatch.setattr(ahead, "_usable_cpus", lambda: 1)


needs_two_cpus = pytest.mark.skipif(
    sys.platform != "linux" or ahead._usable_cpus() < 2, reason="forks on Linux with two CPUs"
)


def run_recorded(tmp_path, mode, config, out_name, how):
    """Run mode in a fresh process with one BLAS thread, as a user would, into tmp_path / how / out_name.

    how is "forked", or "inline" pinned to one CPU.  Returns the
    process's pid and the pid of each train_selective call in call order.
    """
    script = (
        "import os, sys\n"
        "from ksetsel import cli, harness\n"
        "real = harness.train_selective\n"
        "def recorded(*args):\n"
        "    with open(sys.argv[4], 'a') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    return real(*args)\n"
        "harness.train_selective = recorded\n"
        "if sys.argv[5] == 'inline':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "print(os.getpid())\n"
        "sys.exit(cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]))\n"
    )
    src = str(Path(ksetsel.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    (tmp_path / how).mkdir()
    log = tmp_path / f"{how}.log"
    done = subprocess.run(
        [sys.executable, "-c", script, mode, str(config), str(tmp_path / how / out_name), str(log), how],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(done.stdout.split()[0]), [int(pid) for pid in log.read_text().split()]


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # neither running nor waiting to be reaped
            os.waitpid(pid, os.WNOHANG)


class TestForkedSelectors:
    """ablate trains a seed's selectors side by side in forked children (ahead.fork_map)."""

    def record_runs(self, monkeypatch, tmp_path, fail=None):
        """Wrap train_selective so each run logs '<pid> <selector>'; fail(strategy, selector) runs in the child."""
        real = harness.train_selective
        log = tmp_path / "runs.log"

        def recorded(dataset, test_set, strategy, epochs, selector, learner):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {strategy.value}\n")
            if fail is not None:
                fail(strategy, selector)
            return real(dataset, test_set, strategy, epochs, selector, learner)

        monkeypatch.setattr(harness, "train_selective", recorded)
        return lambda: [(int(pid), name) for pid, name in (line.split() for line in log.read_text().splitlines())]

    def cfg(self, tmp_path, **over):
        (tmp_path / "out").mkdir(exist_ok=True)
        return ablate_cfg(tmp_path / "out", **{"seeds": (0, 1), **over})

    @needs_two_cpus
    def test_forked_and_inline_runs_write_the_same_bytes(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "n = 300\ndim = 4\nclasses = 3\ntest_n = 60\nhidden = 16\nepochs = 6\nk_frac = 0.3\n"
            "noise = sym:0.4\nseeds = 0, 1\nselectors = fpl, naive, greedy, random\n"
        )
        pids = {how: run_recorded(tmp_path, "ablate", config, "cmp.csv", how) for how in ("forked", "inline")}
        parent, runs = pids["forked"]
        # each seed's four selectors go to min(4, usable CPUs) children of their own
        assert len(runs) == 8 and parent not in runs and len(set(runs)) == 2 * min(4, ahead._usable_cpus())
        parent, runs = pids["inline"]
        assert runs == [parent] * 8
        names = sorted(path.name for path in (tmp_path / "forked").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "inline").iterdir()) and len(names) == 5
        for name in names:
            forked, inline = (read_rows(tmp_path / how / name) for how in ("forked", "inline"))
            if name == "cmp.csv":
                assert forked == inline
            else:
                assert forked[0] == inline[0] == METRICS_HEADER
                assert drop_wall(forked[1]) == drop_wall(inline[1]), name

    def test_a_childs_config_error_exits_one_and_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        force_fork(monkeypatch)

        def fail(strategy, selector):
            if strategy is Strategy.GREEDY:
                raise ConfigError(f"greedy failed in {os.getpid()}")

        runs = self.record_runs(monkeypatch, tmp_path, fail)
        path = tmp_path / "run.cfg"
        path.write_text(
            "n = 120\ndim = 4\nclasses = 3\ntest_n = 40\nhidden = 8\nepochs = 2\nk_frac = 0.5\n"
            f"selectors = fpl, naive, greedy, random\nout = {tmp_path / 'out' / 'cmp.csv'}\n"
        )
        (tmp_path / "out").mkdir()
        assert main(["ablate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: greedy failed in ")
        child = int(err.split()[-1])
        assert child != os.getpid() and (child, "greedy") in runs()
        assert list((tmp_path / "out").iterdir()) == []
        assert_reaped({pid for pid, _ in runs()})

    def test_a_warning_in_a_child_reaches_pytest_warns(self, tmp_path, monkeypatch):
        force_fork(monkeypatch)

        def warn(strategy, selector):
            warnings.warn(f"{strategy.value} ran in {os.getpid()}", UserWarning)

        self.record_runs(monkeypatch, tmp_path, warn)
        with pytest.warns(UserWarning, match="ran in") as caught:
            run_ablate(self.cfg(tmp_path))
        messages = [str(w.message).split(" ran in ") for w in caught]
        assert [name for name, _ in messages] == [s.value for s in Strategy] * 2  # selector order, seed by seed
        assert os.getpid() not in {int(pid) for _, pid in messages}

    @pytest.mark.parametrize("outcome", ["returned", "raised", "killed"])
    def test_no_child_is_left_after_a_run(self, tmp_path, monkeypatch, outcome):
        force_fork(monkeypatch)

        def fail(strategy, selector):
            if strategy is Strategy.RANDOM and selector.seed == 1:
                if outcome == "raised":
                    raise ConfigError("random failed")
                if outcome == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)

        runs = self.record_runs(monkeypatch, tmp_path, fail)
        expected = {
            "returned": nullcontext(),
            "raised": pytest.raises(ConfigError, match="^random failed$"),
            "killed": pytest.raises(ChildProcessError, match="^forked run 4 of 4 died by signal SIGKILL$"),
        }[outcome]
        with expected:
            run_ablate(self.cfg(tmp_path))
        pids = {pid for pid, _ in runs()}
        assert len(pids) == 4 and os.getpid() not in pids  # two children for each of the two seeds
        assert_reaped(pids)
        assert (len(list((tmp_path / "out").iterdir())) == 5) is (outcome == "returned")

    def test_forked_seed_inputs_die_with_the_seed(self, tmp_path, monkeypatch):
        force_fork(monkeypatch)
        real, refs, alive_at_build = harness._noisy_copy, [], []

        def tracked(*args):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in refs))
            inputs = real(*args)
            refs.append(weakref.ref(inputs))
            return inputs

        monkeypatch.setattr(harness, "_noisy_copy", tracked)
        run_ablate(self.cfg(tmp_path, seeds=(0, 1, 2)))
        gc.collect()
        assert alive_at_build == [0, 0, 0] and [ref() for ref in refs] == [None] * 3


class TestLockstepSimulate:
    """simulate runs all its selectors in lockstep over one lazily generated stream per seed."""

    def test_one_seed_folds_each_epoch_once(self, tmp_path, monkeypatch):
        calls = {"accumulate": 0, "top_k_smallest": 0}
        for module, name in ((training, "accumulate"), (selection, "top_k_smallest")):

            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        epochs = 20
        run_simulate(sim_cfg(tmp_path, seeds=(0,), epochs=epochs))
        assert calls["accumulate"] == epochs
        assert calls["top_k_smallest"] <= 3 * epochs

    @pytest.mark.parametrize("stream", ["uniform", "planted", "drifting", "adversary", "csv"])
    def test_rows_equal_single_selector_runs(self, tmp_path, stream):
        over = dict(stream=stream, seeds=(0, 1), drift_period=2)
        if stream == "adversary":
            over.update(k=1)
        if stream == "csv":
            (tmp_path / "dump").mkdir()
            dump = tmp_path / "dump" / "stream.csv"
            run_simulate(sim_cfg(tmp_path / "dump", stream="planted", seeds=(0,), dump_stream=str(dump)))
            over.update(stream_csv=str(dump))
        (tmp_path / "all").mkdir()
        run_simulate(sim_cfg(tmp_path / "all", **over))
        for strategy in Strategy:
            (tmp_path / strategy.value).mkdir()
            run_simulate(sim_cfg(tmp_path / strategy.value, selectors=(strategy,), **over))
            lockstep = read_rows(tmp_path / "all" / f"sim_{strategy.value}.csv")
            alone = read_rows(tmp_path / strategy.value / "sim.csv")
            assert lockstep[0] == alone[0] == METRICS_HEADER
            assert drop_wall(lockstep[1]) == drop_wall(alone[1]), strategy

    @pytest.mark.parametrize("stream", ["planted", "drifting"])
    def test_epoch_one_precision_is_the_clean_fraction(self, tmp_path, stream):
        # epoch 1 is drawn independently of the stream, so no selector starts on the planted clean set
        cfg = sim_cfg(tmp_path, stream=stream, n=20000, k=None, k_frac=0.2, epochs=2, drift_period=1)
        run_simulate(cfg)
        for strategy in Strategy:
            header, rows = read_rows(tmp_path / f"sim_{strategy.value}.csv")
            column = header.split(",").index("label_precision")
            firsts = [row.split(",") for row in rows if row.split(",")[1] == "1"]
            assert [int(row[0]) for row in firsts] == list(cfg.seeds)
            for row in firsts:
                assert abs(float(row[column]) - cfg.clean_fraction) <= 0.05, (strategy, row[0])

    def test_epoch_one_kset_is_shared_by_every_mode(self, tmp_path, monkeypatch):
        n, k, seed = 60, 12, 3
        firsts = []
        real = harness.run_epochs

        def recording(strategies, selector_cfg, n, epochs, feedback):
            def record(epoch, picks):
                if epoch == 1:
                    firsts.extend(pick.indices.tolist() for pick in picks)
                return feedback(epoch, picks)

            return real(strategies, selector_cfg, n, epochs, record)

        monkeypatch.setattr(harness, "run_epochs", recording)
        run_simulate(sim_cfg(tmp_path, seeds=(seed,), n=n, k=k))
        stream = [RiskVector(np.full(n, 0.5))] * 2
        replayed = select_sequence(stream, Strategy.GREEDY, SelectorConfig(k=k, seed=seed))[0]
        data = make_blobs(n, 3, 2, separation=5.0, seed=1)
        trained = []
        monkeypatch.setattr(training, "train_epoch", lambda model, data, selection, *rest: trained.append(selection))
        train_selective(data, None, Strategy.FPL, 1, SelectorConfig(k=k, seed=seed), mlp.LearnerSpec(hidden=4))
        assert firsts == [replayed.indices.tolist()] * len(Strategy)
        assert [pick.indices.tolist() for pick in trained] == [replayed.indices.tolist()]

    def test_holds_at_most_two_risk_vectors(self, tmp_path, monkeypatch):
        real = harness.stream_epochs
        refs, alive_at_build = [], []

        def tracked(*args):
            for theta, mask in real(*args):
                gc.collect()
                alive_at_build.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(theta))
                yield theta, mask

        monkeypatch.setattr(harness, "stream_epochs", tracked)
        run_simulate(sim_cfg(tmp_path, epochs=8))
        assert len(refs) == 3 * 8
        # the vector just built plus the last one observed, which greedy reads
        assert max(alive_at_build) + 1 <= 2

    def test_holds_at_most_two_risk_vectors_when_the_stream_wins_every_race(self, tmp_path, monkeypatch):
        # The worst order, forced: theta_{t+1} is built and counted before epoch t's feedback returns theta_t.
        real_stream, real_run = harness.stream_epochs, harness.run_epochs
        refs, alive_at_build = [], []
        built = threading.Semaphore(0)  # one release per vector built, and one when a stream ends

        def tracked(*args):
            for theta, mask in real_stream(*args):
                gc.collect()
                alive_at_build.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(theta))
                built.release()
                yield theta, mask
            built.release()

        def run_waiting_for_next_build(strategies, selector_cfg, n, epochs, feedback):
            def waiting(epoch, picks):
                out = feedback(epoch, picks)
                # epoch t waits for theta_{t+1}; epoch 1 also for theta_1 itself
                for _ in range(2 if epoch == 1 else 1):
                    assert built.acquire(timeout=30)
                return out

            return real_run(strategies, selector_cfg, n, epochs, waiting)

        monkeypatch.setattr(harness, "stream_epochs", tracked)
        monkeypatch.setattr(harness, "run_epochs", run_waiting_for_next_build)
        run_simulate(sim_cfg(tmp_path, epochs=8))
        assert len(refs) == 3 * 8
        assert max(alive_at_build) + 1 <= 2


    def test_read_ahead_adds_at_most_three_vectors_to_the_traced_peak(self, tmp_path, monkeypatch):
        # Beside what the draws inline peak at, the worker threads hold at most theta_{t+1},
        # FPL's next perturbation and a rebuilt means vector of the planted stream.
        n = 100_000
        cfg = sim_cfg(tmp_path, seeds=(0,), n=n, k=n // 5, epochs=8)
        run_simulate(cfg)  # first-call set-up stays out of the traced runs

        def traced_peak():
            tracemalloc.start()
            try:
                run_simulate(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ahead = traced_peak()
        monkeypatch.setattr(training, "ReadAhead", nullcontext)
        monkeypatch.setattr(harness, "ReadAhead", nullcontext)
        inline = traced_peak()
        assert ahead <= inline + 3 * 8 * n


class TestReadAheadStream:
    """simulate draws each seed's generated stream one epoch ahead on a worker thread, joined when the seed ends."""

    def tracked_stream(self, monkeypatch, fail_at=None, error=None):
        real, threads = harness.stream_epochs, []

        def tracked(*args):
            for t, item in enumerate(real(*args), start=1):
                threads.append(threading.current_thread())
                if t == fail_at:
                    raise error
                yield item

        monkeypatch.setattr(harness, "stream_epochs", tracked)
        return threads

    @pytest.mark.parametrize("epochs", [1, 6])
    def test_simulate_joins_its_workers(self, tmp_path, monkeypatch, epochs):
        threads = self.tracked_stream(monkeypatch)
        before = threading.active_count()
        run_simulate(sim_cfg(tmp_path, epochs=epochs))
        assert threading.active_count() == before
        assert len(threads) == 3 * epochs
        assert threading.main_thread() not in threads and not any(t.is_alive() for t in threads)

    def test_outputs_do_not_depend_on_thread_timing(self, tmp_path):
        # Threads switch every microsecond in the second run, so the draws interleave with the picks at random.
        for name in ("default", "switchy"):
            (tmp_path / name).mkdir()
        run_simulate(sim_cfg(tmp_path / "default", seeds=(0, 1), epochs=12))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_simulate(sim_cfg(tmp_path / "switchy", seeds=(0, 1), epochs=12))
        finally:
            sys.setswitchinterval(interval)
        for strategy in Strategy:
            name = f"sim_{strategy.value}.csv"
            assert drop_wall(read_rows(tmp_path / "default" / name)[1]) == drop_wall(
                read_rows(tmp_path / "switchy" / name)[1]
            ), strategy

    @pytest.mark.parametrize(
        "error, code, prefix",
        [(InputError("stream broke on its third item"), EXIT_DATA, "data error"),
         (ConfigError("stream broke on its third item"), EXIT_CONFIG, "config error")],
    )
    def test_stream_error_reaches_the_caller(self, tmp_path, monkeypatch, capsys, error, code, prefix):
        self.tracked_stream(monkeypatch, fail_at=3, error=error)
        before = threading.active_count()
        with pytest.raises(type(error), match=r"^stream broke on its third item$"):
            run_simulate(sim_cfg(tmp_path, epochs=6))
        assert threading.active_count() == before
        path = tmp_path / "sim.cfg"
        path.write_text(f"stream = planted\nn = 60\nk = 12\nepochs = 6\nout = {tmp_path / 'sim.csv'}\n")
        assert main(["simulate", "--config", str(path)]) == code
        assert capsys.readouterr().err == f"{prefix}: stream broke on its third item\n"
        assert threading.active_count() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.cfg"]


class TestForkedGridAndFractions:
    """grid's points and validate-risk's fractions run side by side in forked children (ahead.fork_map)."""

    @needs_two_cpus
    @pytest.mark.parametrize("mode, runs_per_map, maps", [("grid", 28, 1), ("validate-risk", 5, 2)])
    def test_forked_and_inline_runs_write_the_same_bytes(self, tmp_path, mode, runs_per_map, maps):
        # grid maps its 28 points for the first seed; validate-risk maps five fractions per seed
        config = tmp_path / "run.cfg"
        config.write_text(
            "n = 120\ndim = 4\nclasses = 3\nhidden = 8\nepochs = 3\nk_frac = 0.3\nnoise = sym:0.4\n"
            "noise_rate_estimate = 0.4\nseeds = 0, 1\n"
        )
        pids = {how: run_recorded(tmp_path, mode, config, "out.csv", how) for how in ("forked", "inline")}
        parent, runs = pids["forked"]
        assert len(runs) == maps * runs_per_map and parent not in runs
        assert len(set(runs)) == maps * min(runs_per_map, ahead._usable_cpus())
        parent, runs = pids["inline"]
        assert runs == [parent] * (maps * runs_per_map)
        assert (tmp_path / "forked" / "out.csv").read_bytes() == (tmp_path / "inline" / "out.csv").read_bytes()


class TestRunGrid:
    def test_scans_full_grid_and_picks_max(self, tmp_path):
        cfg = tiny_train_cfg(
            tmp_path,
            mode="grid",
            out=str(tmp_path / "grid.csv"),
            seeds=(0,),
            epochs=3,
            noise_rate_estimate=0.4,
        )
        result = run_grid_search(cfg)
        assert len(result.rows) == len(ETA_COEFFICIENT_GRID) * 7
        best_acc = max(r[3] for r in result.rows)
        assert result.best_val_acc == best_acc
        # first in scan order wins ties
        first_hit = next(r for r in result.rows if r[3] == best_acc)
        assert (result.best_eta_coefficient, result.best_k_frac) == (first_hit[0], first_hit[1])
        header, rows = read_rows(tmp_path / "grid.csv")
        assert header == "eta_coefficient,k_frac,k,val_acc"
        assert len(rows) == len(result.rows)

    def test_out_of_range_fractions_warn_and_clamp(self, tmp_path):
        cfg = tiny_train_cfg(
            tmp_path,
            mode="grid",
            out=str(tmp_path / "grid.csv"),
            seeds=(0,),
            epochs=2,
            noise_rate_estimate=0.95,  # grid spans [0, 0.2] with a negative edge
        )
        with pytest.warns(UserWarning, match="clamp"):
            result = run_grid_search(cfg)
        assert all(r[2] >= 1 for r in result.rows)

    def test_an_empty_validation_split_exits_two_before_any_point_trains(self, tmp_path, monkeypatch, capsys):
        # four blobs of one sample each: a class of one keeps its row for training
        def trained(*args, **kwargs):
            raise AssertionError("a grid point trained")

        monkeypatch.setattr(harness, "train_selective", trained)
        cfg = ExperimentConfig(mode="grid", out=str(tmp_path / "grid.csv"), n=4, classes=4, noise_rate_estimate=0.4)
        message = "grid's validation split is empty: 4 training rows in 4 classes, one each"
        with pytest.raises(DataError, match=f"^{message}$"):
            run_grid_search(cfg)
        path = tmp_path / "grid.cfg"
        path.write_text(f"n = 4\nclasses = 4\nnoise_rate_estimate = 0.4\nout = {cfg.out}\n")
        assert main(["grid", "--config", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.cfg"]

    def test_needs_estimate(self, tmp_path):
        cfg = tiny_train_cfg(tmp_path, mode="grid", noise_rate_estimate=None)
        with pytest.raises(ConfigError):
            run_grid_search(cfg)


class TestRunValidateRisk:
    def test_smoke_and_schema(self, tmp_path):
        cfg = tiny_train_cfg(
            tmp_path,
            mode="validate-risk",
            out=str(tmp_path / "vr.csv"),
            seeds=(0,),
            epochs=3,
        )
        result = run_validate_risk(cfg)
        header, rows = read_rows(tmp_path / "vr.csv")
        assert header == "clean_fraction,run_seed,epoch,selection_risk,cum_selection_risk"
        assert len(rows) == len(VALIDATE_RISK_FRACTIONS) * 3
        assert set(result.total_risk) == set(VALIDATE_RISK_FRACTIONS)
        assert all(v >= 0.0 for v in result.total_risk.values())

    def test_impossible_fraction_rejected(self, tmp_path):
        # k = 108 of n = 120 cannot be 100% clean when only 60% are clean
        cfg = tiny_train_cfg(
            tmp_path,
            mode="validate-risk",
            out=str(tmp_path / "vr.csv"),
            seeds=(0,),
            epochs=2,
            k_frac=0.9,
        )
        with pytest.raises(ConfigError):
            run_validate_risk(cfg)

    def test_risks_equal_a_fixed_set_loop_on_the_full_noisy_set(self, tmp_path, monkeypatch):
        """Each (seed, fraction) trains through train_selective on the fixed k rows alone.

        The reference trains on the full noisy set, picks the same fixed
        k-set every epoch and seeds model init and batch shuffling from
        the streams train_selective spawns for them (0 and 1).
        """
        cfg = tiny_train_cfg(tmp_path, mode="validate-risk", out=str(tmp_path / "vr.csv"), seeds=(0, 1), epochs=3)
        runs = []

        def spy(dataset, test_set, strategy, *rest):
            model, metrics = training.train_selective(dataset, test_set, strategy, *rest)
            runs.append((dataset.n, strategy, [m.selection_risk for m in metrics]))
            return model, metrics

        force_inline(monkeypatch)
        monkeypatch.setattr(harness, "train_selective", spy)
        run_validate_risk(cfg)

        train_base, _ = harness._load_base_datasets(cfg)
        k = cfg.resolve_k(train_base.n)
        expected = []
        for seed in cfg.seeds:
            noisy = harness._noisy_copy(train_base, cfg, seed)
            clean_idx, noisy_idx = np.flatnonzero(noisy.clean_mask), np.flatnonzero(~noisy.clean_mask)
            streams = np.random.SeedSequence(seed).spawn(4)
            for frac in VALIDATE_RISK_FRACTIONS:
                rng = np.random.default_rng(np.random.SeedSequence((seed, int(round(frac * 100)))))
                n_clean = int(round(frac * k))
                clean = rng.choice(clean_idx, size=n_clean, replace=False)
                fixed = selection.KSetSelection(
                    np.sort(np.concatenate([clean, rng.choice(noisy_idx, size=k - n_clean, replace=False)]))
                )
                model = mlp.init_mlp(noisy.dim, cfg.hidden, noisy.num_classes, int(streams[0].generate_state(1)[0]))
                shuffle_rng = np.random.default_rng(streams[1])
                risks = []
                for _ in range(cfg.epochs):
                    mlp.train_epoch(model, noisy, fixed, cfg.learner, shuffle_rng)
                    predicted, conf = mlp.predict_batch(model, noisy.samples)
                    theta = noise_risk_scores(predicted, conf, noisy.assigned_labels)
                    risks.append(float(theta[fixed.indices].sum()))
                expected.append((k, Strategy.NAIVE, risks))
        assert runs == expected

    def test_emits_no_k_equals_n_warning(self, tmp_path):
        cfg = tiny_train_cfg(tmp_path, mode="validate-risk", out=str(tmp_path / "vr.csv"), seeds=(0,), epochs=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_validate_risk(cfg)
        assert [str(w.message) for w in caught if "k = n" in str(w.message)] == []



class TestTrainOnlyModesReadNoTestSplit:
    """grid and validate-risk use the training split alone, so a bad test file cannot fail them."""

    RUNS = {"grid": run_grid_search, "validate-risk": run_validate_risk}

    def splits(self, tmp_path, dataset, test_file):
        """Config keys for a valid training split and a missing or corrupt test split."""
        data = make_blobs(120, 4, 3, separation=8.0, seed=0)
        if dataset == "csv":
            save_csv_dataset(data, tmp_path / "train.csv")
            if test_file == "corrupt":
                (tmp_path / "test.csv").write_text("label,f_0\n1,not-a-number\n")
            keys = {"csv_path": str(tmp_path / "train.csv"), "csv_test_path": str(tmp_path / "test.csv")}
        else:
            pixels = np.round(np.clip((data.features + 12.0) * 10.0, 0, 255)).astype(np.uint8)
            (tmp_path / "train-images").write_bytes(struct.pack(">IIII", 0x803, 120, 2, 2) + pixels.tobytes())
            labels = data.true_labels.astype(np.uint8).tobytes()
            (tmp_path / "train-labels").write_bytes(struct.pack(">II", 0x801, 120) + labels)
            if test_file == "corrupt":
                (tmp_path / "test-images").write_bytes(struct.pack(">IIII", 0x804, 40, 2, 2) + bytes(160))
                (tmp_path / "test-labels").write_bytes(struct.pack(">II", 0x801, 40) + bytes(40))
            keys = {
                "idx_images": str(tmp_path / "train-images"),
                "idx_labels": str(tmp_path / "train-labels"),
                "idx_test_images": str(tmp_path / "test-images"),
                "idx_test_labels": str(tmp_path / "test-labels"),
            }
        return {"dataset": dataset, **keys}

    @pytest.mark.parametrize("test_file", ["corrupt", "missing"])
    @pytest.mark.parametrize("dataset", ["csv", "idx"])
    @pytest.mark.parametrize("mode", ["grid", "validate-risk"])
    def test_runs_as_without_a_test_split(self, tmp_path, mode, dataset, test_file):
        keys = self.splits(tmp_path, dataset, test_file)
        common = dict(mode=mode, seeds=(0,), epochs=2, noise_rate_estimate=0.4)
        with pytest.raises((DataError, OSError)):  # train mode does read the test split
            run_train(tiny_train_cfg(tmp_path, **keys, seeds=(0,), epochs=2))
        without = {k: v for k, v in keys.items() if "test" not in k}
        self.RUNS[mode](tiny_train_cfg(tmp_path, **without, **common, out=str(tmp_path / "plain.csv")))
        self.RUNS[mode](tiny_train_cfg(tmp_path, **keys, **common, out=str(tmp_path / "bad_test.csv")))
        assert (tmp_path / "bad_test.csv").read_text() == (tmp_path / "plain.csv").read_text()

    def test_grid_class_count_is_the_training_files_own(self, tmp_path, monkeypatch):
        # A test file with a class above the training file's top one widens train's model, not grid's.
        data = make_blobs(150, 4, 3, separation=8.0, seed=0)
        save_csv_dataset(data.subset(np.flatnonzero(data.true_labels < 2)), tmp_path / "train.csv")
        save_csv_dataset(data, tmp_path / "test.csv")
        keys = dict(dataset="csv", csv_path=str(tmp_path / "train.csv"), csv_test_path=str(tmp_path / "test.csv"))
        widths = []

        def spy(dataset, *rest):
            widths.append(dataset.num_classes)
            return training.train_selective(dataset, *rest)

        force_inline(monkeypatch)
        monkeypatch.setattr(harness, "train_selective", spy)
        run_train(tiny_train_cfg(tmp_path, **keys, seeds=(0,), epochs=2))
        assert widths == [3]
        run_grid_search(tiny_train_cfg(tmp_path, **keys, mode="grid", seeds=(0,), epochs=2, noise_rate_estimate=0.4))
        assert set(widths[1:]) == {2}

class TestRunBounds:
    def test_lines(self):
        cfg = ExperimentConfig(mode="bounds", n=10, k=3, epochs=100, alpha=0.5)
        lines = run_bounds(cfg).lines()
        assert lines[0] == "n=10 k=3 T=100"
        assert any("107.1913" in line for line in lines)
        assert any("300" in line for line in lines)  # trivial ceiling kT
        assert any("avg-risk ceiling" in line for line in lines)

    def test_k_equals_n_is_flagged_undefined(self):
        lines = run_bounds(ExperimentConfig(mode="bounds", n=5, k=5, epochs=10, alpha=0.5)).lines()
        assert any("undefined" in line for line in lines)

    def test_bad_alpha_becomes_config_error(self):
        with pytest.raises(ConfigError):
            run_bounds(ExperimentConfig(mode="bounds", n=10, k=3, epochs=10, alpha=2.0))

    @pytest.mark.parametrize("k", [3, 5])
    def test_bad_alpha_exits_one_whatever_k_is(self, tmp_path, capsys, k):
        path = tmp_path / "run.cfg"
        path.write_text(f"n = 5\nk = {k}\nalpha = 7\n")
        assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "config error: alpha must lie in (0, 1], got 7.0\n")


class TestOneCeilingsReport:
    """bounds prints a BoundReport as built; simulate prints the same report per selector, then its own numbers."""

    def test_bounds_lines_open_simulate_s_fpl_block(self, tmp_path):
        sim = ExperimentConfig(mode="simulate", out=str(tmp_path / "s.csv"), stream="planted", n=30, k=6, epochs=10)
        fpl = run_simulate(sim).reports[Strategy.FPL]
        bounds = run_bounds(ExperimentConfig(mode="bounds", n=30, k=6, epochs=10, alpha=fpl.alpha)).lines()
        assert fpl.lines()[: len(bounds)] == bounds
        assert fpl.lines()[len(bounds):] == [
            f"empirical regret:        {fpl.empirical_regret:.6g}",
            f"empirical avg risk:      {fpl.empirical_avg_risk:.6g}",
        ]

    def test_simulate_at_k_equal_n_prints_the_ceiling_undefined(self, tmp_path):
        cfg = ExperimentConfig(mode="simulate", out=str(tmp_path / "s.csv"), stream="planted", n=8, k=8, epochs=3)
        with pytest.warns(UserWarning, match="k = n selects every sample"):
            result = run_simulate(cfg)
        report = result.reports[Strategy.FPL]
        assert report.regret_ceiling is None and report.avg_risk_ceiling is None
        assert "  regret ceiling: undefined for k = n (guarantee needs k <= n - 1)" in result.lines()
        assert not any("nan" in line for line in result.lines())

    def test_an_all_zero_replay_prints_no_avg_risk_ceiling(self, tmp_path):
        dump_stream_csv([RiskVector(np.zeros(6))] * 4, tmp_path / "zeros.csv")
        cfg = ExperimentConfig(
            mode="simulate", out=str(tmp_path / "s.csv"), stream="csv", stream_csv=str(tmp_path / "zeros.csv"),
            selectors=tuple(Strategy), k=2,
        )
        result = run_simulate(cfg)  # alpha is 0 here, outside avg_risk_bound's (0, 1]
        for report in result.reports.values():
            assert (report.alpha, report.avg_risk_ceiling) == (None, None)
            assert report.regret_ceiling is not None
        assert not any("avg-risk" in line for line in result.lines())


class TestIdxMemory:
    """An IDX run holds its pixels as u8 and converts rows a batch or a scoring chunk at a time."""

    N, SIDE = 2000, 28

    def write_pair(self, root, name, n, seed):
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 256, size=(n, self.SIDE, self.SIDE), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        (root / f"{name}-images").write_bytes(struct.pack(">IIII", 0x803, n, self.SIDE, self.SIDE) + images.tobytes())
        (root / f"{name}-labels").write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())

    @pytest.mark.parametrize("mode", ["train", "grid"])
    def test_peak_stays_well_below_one_float_copy(self, tmp_path, monkeypatch, mode):
        self.write_pair(tmp_path, "train", self.N, seed=0)
        self.write_pair(tmp_path, "test", self.N, seed=1)
        path = tmp_path / "run.cfg"
        path.write_text(
            f"dataset = idx\nidx_images = {tmp_path / 'train-images'}\nidx_labels = {tmp_path / 'train-labels'}\n"
            f"idx_test_images = {tmp_path / 'test-images'}\nidx_test_labels = {tmp_path / 'test-labels'}\n"
            "hidden = 4\nepochs = 2\nk_frac = 0.5\nnoise = sym:0.4\nnoise_rate_estimate = 0.4\n"
            "validation_fraction = 0.5\n"
            f"out = {tmp_path / 'm.csv'}\n"
        )
        # Score 64 rows a chunk: the default 4096 would convert all 2000 rows at once.
        monkeypatch.setattr(mlp, "SCORE_CHUNK", 64)
        tracemalloc.start()
        try:
            assert main([mode, "--config", str(path)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        float_copy = self.N * self.SIDE * self.SIDE * 8
        # About 4 MB: the u8 pixels of both pairs (1.6 MB each) and one 64-row float64 chunk (0.4 MB).
        # A float64 copy of the train, test, fit or validation rows (6.3 to 12.5 MB) would cross the bound.
        assert peak < 0.5 * float_copy


class TestCli:
    def test_bounds_exit_ok(self, capsys):
        assert main(["bounds", "--k-frac", "0.3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "regret ceiling" in out

    def test_unknown_config_key_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("zeta = 2\n")
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_idx_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            "dataset = idx\n"
            f"idx_images = {tmp_path / 'none-images'}\n"
            f"idx_labels = {tmp_path / 'none-labels'}\n"
            "k_frac = 0.3\n"
            "epochs = 1\n"
            f"out = {tmp_path / 'm.csv'}\n"
        )
        assert main(["train", "--config", str(path)]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_idx_images_without_pixels_exit_two(self, tmp_path, capsys):
        # 20 images of 0x28 pixels: a file that is well formed but holds no features
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">IIII", 0x803, 20, 0, 28))
        labels.write_bytes(struct.pack(">II", 0x801, 20) + bytes(20))
        path = tmp_path / "run.cfg"
        path.write_text(
            f"dataset = idx\nidx_images = {images}\nidx_labels = {labels}\nk_frac = 0.3\nepochs = 1\n"
            f"out = {tmp_path / 'm.csv'}\n"
        )
        assert main(["train", "--config", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {images}: images of 0x28 pixels have no features\n"
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize(
        "mode, lines, message",
        [
            ("train", "idx_test_images = {missing}\n", "set both idx_test_images and idx_test_labels, or neither"),
            ("train", "idx_test_labels = {missing}\n", "set both idx_test_images and idx_test_labels, or neither"),
            ("grid", "noise_rate_estimate = 0.4\nvalidation_fraction = 1.5\n",
             "validation_fraction must lie in (0, 1), got 1.5"),
        ],
        ids=["test_images_alone", "test_labels_alone", "validation_fraction"],
    )
    def test_data_free_keys_are_checked_before_the_data_is_read(self, tmp_path, capsys, mode, lines, message):
        # every idx path is missing: reading any of them first would exit 2 with a data error
        path = tmp_path / "run.cfg"
        missing = tmp_path / "missing.idx"
        path.write_text(
            f"dataset = idx\nidx_images = {missing}\nidx_labels = {missing}\nepochs = 2\nk_frac = 0.5\n"
            + lines.format(missing=missing)
            + f"out = {tmp_path / 'm.csv'}\n"
        )
        assert main([mode, "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_flags_override_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n = 120\ndim = 4\nclasses = 3\ntest_n = 40\nhidden = 8\n"
            "epochs = 2\nk_frac = 0.5\nseeds = 0, 1, 2\nnoise = sym:0.4\n"
            f"out = {tmp_path / 'file.csv'}\n"
        )
        override = tmp_path / "flag.csv"
        code = main([
            "train", "--config", str(path),
            "--out", str(override),
            "--seed", "7",
            "--k-frac", "0.25",
        ])
        assert code == EXIT_OK
        header, rows = read_rows(override)
        assert header == METRICS_HEADER
        assert len(rows) == 2  # one seed, two epochs
        assert all(r.startswith("7,") for r in rows)
        assert not (tmp_path / "file.csv").exists()

    def test_k_frac_flag_overrides_file_k(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("n = 200\nk = 50\n")
        assert main(["bounds", "--config", str(path), "--k-frac", "0.3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "n=200 k=60 T=100"

    def test_file_setting_k_and_k_frac_exit_one(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("n = 200\nk = 50\nk_frac = 0.3\n")
        assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG
        assert "only one of k and k_frac" in capsys.readouterr().err

    def test_divergence_exit_one(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n = 120\ndim = 4\nclasses = 3\ntest_n = 40\nhidden = 8\nepochs = 2\nk_frac = 0.5\n"
            f"lr = 1e200\nout = {tmp_path / 'm.csv'}\n"
        )
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: training diverged")
        assert "1e+200" in err

    def test_eta_that_overflows_the_scores_exit_one(self, tmp_path, capsys):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "stream = planted\nn = 1000\nk_frac = 0.2\nepochs = 5\neta_coefficient = 3e306\n"
            f"out = {tmp_path / 'm.csv'}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: eta=")
        assert "too large" in err
        assert [p.name for p in tmp_path.iterdir()] == ["sim.cfg"]

    @pytest.mark.parametrize("key", ["hidden", "batch_size"])
    def test_train_learner_size_below_one_exit_one_naming_the_key(self, tmp_path, capsys, key):
        path = tmp_path / "run.cfg"
        path.write_text(
            f"n = 120\ndim = 4\nclasses = 3\nepochs = 2\nk_frac = 0.5\n{key} = 0\nout = {tmp_path / 'm.csv'}\n"
        )
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key} must be >= 1, got 0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_learner_key_is_checked_before_the_data_is_read(self, tmp_path, capsys):
        # train's idx pair and simulate's stream csv are missing: reading either first would exit 2
        missing = tmp_path / "missing.idx"
        modes = {
            "train": f"dataset = idx\nidx_images = {missing}\nidx_labels = {missing}\nepochs = 2\n",
            "simulate": f"stream = csv\nstream_csv = {missing}\n",
        }
        ranges = [
            ("eta_coefficient = -1", "eta_coefficient must be finite and >= 0, got -1.0"),
            ("eta_coefficient = nan", "eta_coefficient must be finite and >= 0, got nan"),
            ("k_frac = 1.5", "k_frac must lie in (0, 1], got 1.5"),
            ("k_frac = 0", "k_frac must lie in (0, 1], got 0.0"),
        ]
        cases = [("train", "hidden = 0", "hidden must be >= 1, got 0")]
        cases += [(mode, line, message) for mode in modes for line, message in ranges]
        for i, (mode, line, message) in enumerate(cases):
            case = tmp_path / f"case{i}"
            case.mkdir()
            path = case / "run.cfg"
            k_frac = "" if line.startswith("k_frac") else "k_frac = 0.5\n"
            path.write_text(f"{modes[mode]}{k_frac}{line}\nout = {case / 'm.csv'}\n")
            assert main([mode, "--config", str(path)]) == EXIT_CONFIG, (mode, line)
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert [p.name for p in case.iterdir()] == ["run.cfg"]

    def test_simulate_rejects_a_nan_learning_rate(self, tmp_path, capsys):
        path = tmp_path / "sim.cfg"
        path.write_text(f"stream = planted\nn = 60\nk = 12\nepochs = 3\nlr = nan\nout = {tmp_path / 'm.csv'}\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: lr must be finite and >= 0, got nan\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sim.cfg"]

    @pytest.mark.parametrize(
        "mode, lines",
        [("train", "dataset = idx\nidx_images = {missing}\nidx_labels = {missing}\nepochs = 2\nk_frac = 0.5\n"),
         ("simulate", "stream = planted\nn = 60\nk = 12\nepochs = 3\n")],
        ids=["train", "simulate"],
    )
    def test_missing_output_directory_exit_one_before_any_work(self, tmp_path, capsys, monkeypatch, mode, lines):
        # train's idx paths are missing too: reading them first would exit 2 with a data error
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_epochs", no_run)
        monkeypatch.setattr(harness, "train_selective", no_run)
        out = tmp_path / "absent" / "m.csv"
        path = tmp_path / "run.cfg"
        path.write_text(lines.format(missing=tmp_path / "missing.idx") + f"out = {out}\n")
        assert main([mode, "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: out = {out}: directory {out.parent} does not exist\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("stream", ["planted", "csv"])
    def test_missing_dump_directory_exits_one_before_any_stream(self, tmp_path, capsys, monkeypatch, stream):
        # csv replays a file that does not exist: reading it first would exit 2 with a data error
        def no_stream(*args):
            raise AssertionError("a stream was drawn or read")

        monkeypatch.setattr(harness, "stream_epochs", no_stream)
        monkeypatch.setattr(harness, "load_stream_csv", no_stream)
        monkeypatch.setattr(harness, "run_epochs", no_stream)
        dump = tmp_path / "absent" / "s.csv"
        path = tmp_path / "sim.cfg"
        path.write_text(
            f"stream = {stream}\nstream_csv = {tmp_path / 'replay.csv'}\nn = 60\nk = 12\nepochs = 3\n"
            f"dump_stream = {dump}\nout = {tmp_path / 'm.csv'}\n"
        )
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        message = f"dump_stream = {dump}: directory {dump.parent} does not exist"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sim.cfg"]

    def test_k_equals_n_warns_once_per_run(self, tmp_path, capsys):
        # one run per seed, each under one SelectorConfig however many selectors it drives
        path = tmp_path / "sim.cfg"
        path.write_text(
            "n = 50\nk = 50\nepochs = 3\nseeds = 0, 1\nselectors = fpl, naive, greedy, random\n"
            f"out = {tmp_path / 'm.csv'}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(path)]) == EXIT_OK
        warned = "k = n selects every sample; the regret guarantee requires k <= n - 1"
        assert [str(w.message) for w in caught] == [warned] * 2

    def test_train_columns_match_across_blas_thread_counts(self, tmp_path):
        src = str(Path(ksetsel.__file__).resolve().parents[1])
        # n = 9000 and test_n = 5000 score both splits in two or more chunks, so predict_batch's worker runs
        for sizes in ("n = 1500\ntest_n = 300\n", "n = 9000\ntest_n = 5000\n"):
            path = tmp_path / "run.cfg"
            path.write_text(
                f"{sizes}dim = 32\nclasses = 4\nhidden = 64\nepochs = 3\nk_frac = 0.3\nnoise = sym:0.4\nseeds = 0, 1\n"
            )
            columns = []
            for threads in ("1", "2"):
                out = tmp_path / f"m{threads}.csv"
                env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
                env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
                subprocess.run(
                    [sys.executable, "-m", "ksetsel.cli", "train", "--config", str(path), "--out", str(out)],
                    env=env, check=True, capture_output=True,
                )
                columns.append(drop_wall(read_rows(out)[1]))
            assert len(columns[0]) == 6
            assert columns[0] == columns[1], sizes

    def test_simulate_cli_prints_report(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            "stream = uniform\nn = 40\nk = 8\nepochs = 5\nseeds = 0\n"
            f"selectors = fpl\nout = {tmp_path / 'sim.csv'}\n"
        )
        assert main(["simulate", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[fpl]" in out
        assert "metrics:" in out

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("seeds = 0, -1\n", [], "seeds must be >= 0"),
            ("", ["--seed", "-3"], "seeds must be >= 0"),
            ("data_seed = -1\n", [], "seeds must be >= 0"),
            ("seeds = 0, 0\n", [], "seeds must be distinct"),
            ("test_n = 0\n", [], "test_n must be >= 1"),
        ],
    )
    def test_bad_seeds_and_test_n_exit_one(self, tmp_path, capsys, text, flags, message):
        path = tmp_path / "run.cfg"
        path.write_text("n = 120\ndim = 4\nclasses = 3\nhidden = 8\nepochs = 2\nk_frac = 0.5\n" + text)
        for mode in ("simulate", "train"):
            code = main([mode, "--config", str(path), "--out", str(tmp_path / "m.csv"), *flags])
            assert code == EXIT_CONFIG
            assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("stream = drifting\ndrift_period = 0\nk = 500\n", "drifting stream needs drift_period >= 1"),
            ("stream = planted\nclean_fraction = 1.5\nk = 5\n", "clean_fraction must lie in [0, 1], got 1.5"),
            ("stream = bogus\nk = 5\n", "unknown stream 'bogus'; valid: uniform, planted, drifting, adversary, csv"),
            ("stream = adversary\nk = 3\n", "k=3 outside [1, 2]"),
            ("stream = uniform\nk = 500\n", "k=500 outside [1, 60]"),
        ],
    )
    def test_simulate_stream_and_k_errors_exit_one_before_any_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "sim.cfg"
        path.write_text(
            text + f"n = 60\nepochs = 5\ndump_stream = {tmp_path / 'stream.csv'}\nout = {tmp_path / 'm.csv'}\n"
        )
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sim.cfg"]

    def test_non_numeric_stream_csv_exit_two(self, tmp_path, capsys):
        stream = tmp_path / "stream.csv"
        stream.write_text("epoch,theta_0,theta_1\n1,0.5,abc\n")
        path = tmp_path / "run.cfg"
        path.write_text(f"stream = csv\nstream_csv = {stream}\nk = 1\nepochs = 1\nout = {tmp_path / 'm.csv'}\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "stream.csv: row 2" in err

    @pytest.mark.parametrize("epochs", ["1\nfoo", "1\n-7"])
    def test_stream_csv_epoch_column_exit_two(self, tmp_path, capsys, epochs):
        first, second = epochs.split("\n")
        stream = tmp_path / "stream.csv"
        stream.write_text(f"epoch,theta_0,theta_1\n{first},0.5,0.25\n\n{second},0.5,0.25\n")
        path = tmp_path / "run.cfg"
        path.write_text(f"stream = csv\nstream_csv = {stream}\nk = 1\nout = {tmp_path / 'm.csv'}\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {stream}: row 4: ")
        assert not (tmp_path / "m.csv").exists()

    def test_stream_csv_value_outside_unit_interval_exit_two_naming_file_and_row(self, tmp_path, capsys):
        stream = tmp_path / "stream.csv"
        stream.write_text("epoch,theta_0,theta_1\n1,0.5,0.25\n\n2,1.5,0.25\n")
        path = tmp_path / "run.cfg"
        path.write_text(f"stream = csv\nstream_csv = {stream}\nk = 1\nout = {tmp_path / 'm.csv'}\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {stream}: row 4: risk values must lie in [0, 1]\n"
        assert not (tmp_path / "m.csv").exists()

    def test_bad_noise_flag_exit_one(self, capsys):
        assert main(["train", "--noise", "weird:1", "--k-frac", "0.3"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--seed", "abc"], "seeds"),
            (["--seed", "1.5"], "seeds"),
            (["--eta-coef", "x"], "eta_coefficient"),
            (["--k-frac", "zz"], "k_frac"),
        ],
    )
    def test_bad_flag_value_exit_one(self, capsys, flags, key):
        assert main(["bounds", "--k-frac", "0.3", *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config key {key!r}: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "ksetsel: error: the following arguments are required: mode"),
            (["nomode"], "ksetsel: error: argument mode: invalid choice: 'nomode'"),
            (["train", "--bogus", "1"], "ksetsel: error: unrecognized arguments: --bogus 1"),
            (["train", "--seed"], "ksetsel train: error: argument --seed: expected one argument"),
        ],
    )
    def test_usage_error_exit_one(self, capsys, argv, message):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ksetsel")
        assert message in captured.err
        assert captured.out == ""

    def test_seed_flag_takes_a_seed_list(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("stream = uniform\nn = 40\nk = 8\nepochs = 3\nseeds = 0\n")
        assert main(["simulate", "--config", str(path), "--seed", "4,2", "--out", str(tmp_path / "m.csv")]) == EXIT_OK
        _, rows = read_rows(tmp_path / "m.csv")
        assert [row.split(",")[0] for row in rows] == ["4"] * 3 + ["2"] * 3

    def test_subcommands_and_runners_are_the_modes(self):
        subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == list(harness.MODES)
        assert list(cli._runners()) == list(harness.MODES)

    def test_main_prints_the_lines_of_the_runner_bound_at_call_time(self, capsys, monkeypatch):
        class Result:
            def lines(self):
                return ["first", "second"]

        for mode, runner in cli._runners().items():
            monkeypatch.setattr(cli, runner.__name__, lambda cfg: Result())
            assert main([mode, "--k-frac", "0.3"]) == EXIT_OK
            assert capsys.readouterr().out == "first\nsecond\n"

    @pytest.mark.parametrize(
        "mode, text, flags, message",
        [
            ("bounds", "n = -5\n", ["--k-frac", "0.3"], "n must be >= 1, got -5"),
            ("train", "n = 0\nk_frac = 0.3\n", [], "n must be >= 1, got 0"),
            # k too, before the missing data file could be read
            ("train", "dataset = csv\ncsv_path = /nonexistent/d.csv\nk = 0\n", [], "k must be >= 1, got 0"),
            ("simulate", "stream = csv\nstream_csv = /nonexistent/s.csv\nk = 0\n", [], "k must be >= 1, got 0"),
        ],
    )
    def test_n_below_one_exit_one(self, tmp_path, capsys, mode, text, flags, message):
        path = tmp_path / "run.cfg"
        path.write_text(text + f"out = {tmp_path / 'm.csv'}\n")
        assert main([mode, "--config", str(path), *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bad_row", [0, 5])
    def test_non_finite_csv_feature_exit_two_naming_file_and_row(self, tmp_path, capsys, bad, bad_row):
        data = make_blobs(40, 3, 2, separation=6.0, seed=0)
        data.samples[bad_row, 1] = float(bad)
        csv_path = tmp_path / "data.csv"
        save_csv_dataset(data, csv_path)
        path = tmp_path / "run.cfg"
        path.write_text(
            f"dataset = csv\ncsv_path = {csv_path}\nhidden = 4\nepochs = 2\nk_frac = 0.5\n"
            f"out = {tmp_path / 'm.csv'}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {csv_path}: row {bad_row + 2}: features must be finite\n"
        assert not (tmp_path / "m.csv").exists()

    def test_ablate_repeated_selector_counts_once(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n = 120\ndim = 4\nclasses = 3\ntest_n = 40\nhidden = 8\nepochs = 2\nk_frac = 0.5\n"
            f"noise = sym:0.4\nout = {tmp_path / 'cmp.csv'}\n"
        )
        assert main(["ablate", "--config", str(path), "--selector", "fpl, fpl"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: ablate mode needs at least two selectors\n"
        assert not (tmp_path / "cmp.csv").exists()
        assert main(["ablate", "--config", str(path), "--selector", "naive, fpl, naive"]) == EXIT_OK
        _, rows = read_rows(tmp_path / "cmp.csv")
        assert [row.split(",")[0] for row in rows] == ["naive", "fpl"]
        assert sum(row.endswith(",1") for row in rows) == 1

"""Experiment harness: config parsing, run modes, CSV outputs, CLI."""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksetsel
from ksetsel import harness, mlp, selection, training
from ksetsel.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from ksetsel.datasets import make_blobs, save_csv_dataset
from ksetsel.errors import ConfigError
from ksetsel.feedback import load_stream_csv, noise_risk_scores
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
from ksetsel.selection import SelectorConfig, Strategy
from ksetsel.training import select_sequence

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
        assert parse_noise("sym:0.5") == ("sym", 0.5)
        assert parse_noise("asym:0.4") == ("asym", 0.4)
        for bad in ("gauss:0.5", "sym", "sym:zap", "sym:1.5"):
            with pytest.raises(ConfigError):
                parse_noise(bad)

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
        assert cfg.noise_kind == "sym" and cfg.noise_rate == 0.5
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
        ],
    )
    def test_direct_config_checks_itself(self, fields, message):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**fields)
        assert message in str(exc.value)

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
        noise_kind="sym",
        noise_rate=0.4,
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
        risks = load_stream_csv(dump).risks
        eta = resolve_eta(0.05, 10, 12)
        for strategy in Strategy:
            sels = select_sequence(risks, SelectorConfig(strategy=strategy, k=10, eta=eta, seed=4))
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
        [("_stream_for_seed", sim_cfg, run_simulate), ("_noisy_copy", ablate_cfg, run_ablate)],
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
        real = getattr(harness, runner)
        calls = []

        def fails_second(*args):
            calls.append(None)
            if len(calls) == 2:
                raise ConfigError("second run fails")
            return real(*args)

        monkeypatch.setattr(harness, runner, fails_second)
        with pytest.raises(ConfigError, match="second run fails"):
            run(make_cfg(tmp_path, seeds=seeds))
        assert list(tmp_path.iterdir()) == []


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

    def test_holds_at_most_two_risk_vectors(self, tmp_path, monkeypatch):
        real = harness._stream_for_seed
        refs, alive_at_build = [], []

        def tracked(*args):
            for theta, mask in real(*args):
                gc.collect()
                alive_at_build.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(theta))
                yield theta, mask

        monkeypatch.setattr(harness, "_stream_for_seed", tracked)
        run_simulate(sim_cfg(tmp_path, epochs=8))
        assert len(refs) == 3 * 8
        # the vector just built plus the last one observed, which greedy reads
        assert max(alive_at_build) + 1 <= 2


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

        def spy(dataset, test_set, train_cfg):
            result = training.train_selective(dataset, test_set, train_cfg)
            runs.append((dataset.n, train_cfg.strategy, [m.selection_risk for m in result.metrics]))
            return result

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
                    mlp.train_epoch(model, noisy, fixed, cfg.lr, cfg.batch_size, shuffle_rng)
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


class TestRunBounds:
    def test_lines(self):
        cfg = ExperimentConfig(mode="bounds", n=10, k=3, epochs=100, alpha=0.5)
        lines = run_bounds(cfg).lines
        assert lines[0] == "n=10 k=3 T=100"
        assert any("107.1913" in line for line in lines)
        assert any("300" in line for line in lines)  # trivial ceiling kT
        assert any("avg-risk ceiling" in line for line in lines)

    def test_k_equals_n_is_flagged_undefined(self):
        lines = run_bounds(ExperimentConfig(mode="bounds", n=5, k=5, epochs=10, alpha=0.5)).lines
        assert any("undefined" in line for line in lines)

    def test_bad_alpha_becomes_config_error(self):
        with pytest.raises(ConfigError):
            run_bounds(ExperimentConfig(mode="bounds", n=10, k=3, epochs=10, alpha=2.0))


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

    def test_train_columns_match_across_blas_thread_counts(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n = 1500\ndim = 32\nclasses = 4\ntest_n = 300\nhidden = 64\nepochs = 3\n"
            "k_frac = 0.3\nnoise = sym:0.4\nseeds = 0, 1\n"
        )
        src = str(Path(ksetsel.__file__).resolve().parents[1])
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
        assert columns[0] == columns[1]

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

    def test_bad_noise_flag_exit_one(self, capsys):
        assert main(["train", "--noise", "weird:1", "--k-frac", "0.3"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "mode, text, flags, message",
        [
            ("bounds", "n = -5\n", ["--k-frac", "0.3"], "n must be >= 1, got -5"),
            ("train", "n = 0\nk_frac = 0.3\n", [], "n must be >= 1, got 0"),
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

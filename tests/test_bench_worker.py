"""The benchmark's traced run and set-up name real functions of the package.

bench/worker.py wraps every LAYER_FUNCTIONS entry wherever the cli,
harness and training modules bind it, looking each one up without a
default, so a deleted or renamed layer function crashes the traced run.
Each workload's set-up (bench/workloads.build_inputs) calls public
functions by name too; it runs here at toy size with one call.
"""

import dataclasses
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

import ksetsel
import ksetsel.cli  # noqa: F401  (trace_targets reads ksetsel.cli)
from ksetsel import ahead, mlp
from ksetsel.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_worker(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # worker imports its sibling modules by name
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_every_layer_function_exists(monkeypatch):
    worker = load_worker(monkeypatch)
    missing = [
        f"{module}.{name}"
        for module, names in worker.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(getattr(ksetsel, module), name, None))
    ]
    assert missing == []


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_bench_module("workloads")


@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_workload_set_up_and_one_call_run_at_toy_size(tmp_path, name):
    w = dataclasses.replace(WORKLOADS.WORKLOADS[name], n=60, epochs=2)
    seed = 1
    run_seed = w.run_seeds(seed)[0]
    idx_paths = None
    if w.name == "idx_train":
        (tmp_path / "idx").mkdir()
        idx_paths = load_bench_module("idxgen").write_synthetic_split(
            tmp_path / "idx", 60, 30, WORKLOADS.IDX_CLASSES, seed
        )
    WORKLOADS.build_inputs(ksetsel, w, seed, run_seed, idx_paths)
    out = tmp_path / "out" / "metrics.csv"
    out.parent.mkdir()
    config = tmp_path / f"{w.name}.cfg"
    config.write_text(WORKLOADS.config_text(w, seed, str(out), idx_paths))
    assert main([w.mode, "--config", str(config), "--seed", str(run_seed)]) == EXIT_OK
    expected = WORKLOADS.expected_rows(w, str(out))
    rows = {file: len((out.parent / file).read_text().splitlines()) - 1 for file in expected}
    assert rows == expected


def test_trace_targets_runs(monkeypatch):
    worker = load_worker(monkeypatch)
    targets = worker.trace_targets(ksetsel)
    names = {name for _, _, name, _ in targets}
    assert {"feedback.noise_risk_scores", "selection.ftl_select", "training.train_selective"} <= names
    assert {"harness.run_simulate", "harness.run_train", "harness.run_ablate"} <= names


def test_traced_calls_stay_on_the_main_thread(monkeypatch, tmp_path):
    # The bench's span recorder keeps one span stack without locking, so nothing
    # it wraps may run on run_epochs', run_simulate's or predict_batch's worker thread.
    worker = load_worker(monkeypatch)
    calls = []
    for namespace, attr, name, _ in worker.trace_targets(ksetsel):

        def recorded(*args, _real=getattr(namespace, attr), _name=name, **kwargs):
            calls.append((_name, threading.current_thread()))
            return _real(*args, **kwargs)

        monkeypatch.setattr(namespace, attr, recorded)
    seeds, epochs = (0, 1), 5
    simulate = tmp_path / "simulate.cfg"
    simulate.write_text(
        f"stream = planted\nn = 400\nk = 80\nepochs = {epochs}\nselectors = fpl, naive, greedy, random\n"
        f"seeds = {', '.join(map(str, seeds))}\nout = {tmp_path / 'sim.csv'}\n"
    )
    train = tmp_path / "train.cfg"
    train.write_text(
        f"dataset = blobs\nn = 120\ndim = 4\nclasses = 3\nhidden = 4\nk_frac = 0.3\nepochs = {epochs}\n"
        f"seeds = 0\nout = {tmp_path / 'train.csv'}\n"
    )
    assert main(["simulate", "--config", str(simulate)]) == EXIT_OK
    simulated = [name for name, _ in calls].count("selection.fpl_select")
    assert main(["train", "--config", str(train)]) == EXIT_OK
    trained = [name for name, _ in calls].count("selection.fpl_select") - simulated
    # 9000 training rows are three scoring chunks, so predict_batch hands one of them to a worker thread; a
    # worker on any host, and this thread's first chunk waits until it has begun, so the job is not taken back
    monkeypatch.setattr(mlp, "helper", lambda: ahead.helper() or ahead.Helper(None))
    scored_on, worker_began = [], threading.Event()
    real_forward = mlp._forward

    def forward(*args, **kwargs):
        scored_on.append(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            assert worker_began.wait(timeout=20), "the scoring worker did not begin"
        else:
            worker_began.set()
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(mlp, "_forward", forward)
    chunked = tmp_path / "chunked.cfg"
    chunked.write_text(
        "dataset = blobs\nn = 9000\ndim = 4\nclasses = 3\nhidden = 4\nk_frac = 0.3\nepochs = 2\n"
        f"seeds = 0\nout = {tmp_path / 'chunked.csv'}\n"
    )
    assert main(["train", "--config", str(chunked)]) == EXIT_OK
    assert any(thread is not threading.main_thread() for thread in scored_on)
    assert {"harness.run_simulate", "harness.run_train", "selection.accumulate"} <= {name for name, _ in calls}
    assert [name for name, thread in calls if thread is not threading.main_thread()] == []
    # one fpl_select call per FPL pick after epoch 1, so the traced count matches an unthreaded run
    assert (simulated, trained) == (len(seeds) * (epochs - 1), epochs - 1)

"""The benchmark's traced run names real functions of the package.

bench/worker.py wraps every LAYER_FUNCTIONS entry wherever the cli,
harness and training modules bind it, looking each one up without a
default, so a deleted or renamed layer function crashes the traced run.
"""

import importlib.util
import threading
from pathlib import Path

import ksetsel
import ksetsel.cli  # noqa: F401  (trace_targets reads ksetsel.cli)
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


def test_trace_targets_runs(monkeypatch):
    worker = load_worker(monkeypatch)
    targets = worker.trace_targets(ksetsel)
    names = {name for _, _, name, _ in targets}
    assert {"feedback.generate_stream", "selection.ftl_select", "training.train_selective"} <= names
    assert {"harness.run_simulate", "harness.run_train", "harness.run_ablate"} <= names


def test_traced_calls_stay_on_the_main_thread(monkeypatch, tmp_path):
    # The bench's span recorder keeps one span stack without locking, so
    # nothing it wraps may run on run_epochs' or run_simulate's worker thread.
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
    assert {"harness.run_simulate", "harness.run_train", "selection.accumulate"} <= {name for name, _ in calls}
    assert [name for name, thread in calls if thread is not threading.main_thread()] == []
    # one fpl_select call per FPL pick after epoch 1, so the traced count matches an unthreaded run
    assert (simulated, trained) == (len(seeds) * (epochs - 1), epochs - 1)

"""The benchmark's traced run names real functions of the package.

bench/worker.py wraps every LAYER_FUNCTIONS entry wherever the cli,
harness and training modules bind it, looking each one up without a
default, so a deleted or renamed layer function crashes the traced run.
"""

import importlib.util
from pathlib import Path

import ksetsel
import ksetsel.cli  # noqa: F401  (trace_targets reads ksetsel.cli)

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

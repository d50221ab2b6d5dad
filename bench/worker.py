"""Fresh-process side of the benchmark; run.py starts it as `python3 worker.py JOB.json`.

Every role first times its set-up (`import ksetsel` plus the workload's
input-building calls) and makes one cold cli.main call.  Then:
  probe  exits.
  run    makes warm calls for the job's seconds, cycling through the run seeds.
  trace  makes warm calls in pairs, one untraced and one traced with the same seed;
         span wrappers are swapped in for the traced call only.

Each cli.main call is followed, outside its timed region, by a look at
its output files: data-row counts, a sha256 of columns 1-7 (wall_ms is
dropped) and FPL's quality summary.  The result goes to a JSON file
named by the job.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

# Public functions timed in the traced run, by defining module.  Each is
# wrapped wherever the cli, harness and training namespaces bind it.
LAYER_FUNCTIONS = {
    "datasets": ("load_idx", "make_blobs", "apply_label_noise"),
    "feedback": ("generate_stream", "noise_risk_scores"),
    "mlp": ("train_epoch", "predict_batch"),
    "selection": ("fpl_select", "ftl_select", "greedy_select", "init_selection", "accumulate", "top_k_smallest"),
    "analytics": ("label_precision",),
    "training": ("train_selective",),
    "harness": ("run_simulate", "run_train", "run_ablate"),
}
CALLER_NAMESPACES = ("cli", "harness", "training")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _load_idx_work(args, kwargs):
    paths = (_arg(args, kwargs, 0, "images_path"), _arg(args, kwargs, 1, "labels_path"))
    return {"bytes": float(sum(os.path.getsize(p) for p in paths))}


def _train_epoch_work(args, kwargs):
    # Computed FLOPs per selected row: forward 2dh + 2hC, backward 2dh + 4hC.
    model, selection = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 2, "selection")
    d, h, c = model.w1.shape[0], model.w1.shape[1], model.w2.shape[1]
    rows = selection.indices.shape[0]
    return {"rows": float(rows), "flops": float(rows * (4 * d * h + 6 * h * c))}


def _predict_work(args, kwargs):
    model, x = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "x")
    d, h, c = model.w1.shape[0], model.w1.shape[1], model.w2.shape[1]
    rows = len(x)
    return {"rows": float(rows), "flops": float(rows * (2 * d * h + 2 * h * c))}


def _top_k_work(args, kwargs):
    return {"elements": float(len(_arg(args, kwargs, 0, "scores")))}


WORK = {
    "datasets.load_idx": _load_idx_work,
    "mlp.train_epoch": _train_epoch_work,
    "mlp.predict_batch": _predict_work,
    "selection.top_k_smallest": _top_k_work,
}


def trace_targets(package) -> list[tuple]:
    """(namespace, attribute, span name, work) for every caller binding of a layer function."""
    originals = {}
    for module, names in LAYER_FUNCTIONS.items():
        mod = getattr(package, module)
        for fn_name in names:
            originals[id(getattr(mod, fn_name))] = f"{module}.{fn_name}"
    targets = []
    for ns_name in CALLER_NAMESPACES:
        namespace = getattr(package, ns_name)
        for attr, obj in vars(namespace).items():
            name = originals.get(id(obj)) if inspect.isfunction(obj) else None
            if name is not None and not name.startswith(f"{ns_name}."):
                targets.append((namespace, attr, name, WORK.get(name)))
    return targets


def inspect_outputs(w: workloads.Workload, out: str, regret_bound) -> dict:
    """Row counts, columns 1-7 digest and FPL quality of one call's outputs."""
    out_dir = Path(out).parent
    digest = hashlib.sha256()
    rows = {}
    for path in sorted(out_dir.iterdir()):
        lines = path.read_text().splitlines()
        rows[path.name] = len(lines) - 1
        digest.update(path.name.encode() + b"\n")
        drop_last = bool(lines) and lines[0].endswith(",wall_ms")
        for line in lines:
            digest.update((line.rsplit(",", 1)[0] if drop_last else line).encode() + b"\n")
    by_seed: dict[str, list[list[str]]] = {}
    with open(workloads.fpl_csv(w, out)) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            row = line.strip().split(",")
            by_seed.setdefault(row[0], []).append(row)
    col = {name: i for i, name in enumerate(header)}

    def last10(rows_, name):
        return sum(float(r[col[name]]) for r in rows_[-10:]) / len(rows_[-10:])

    seeds = list(by_seed.values())
    final_regrets = [float(r[-1][col["cum_regret"]]) for r in seeds]
    bound = regret_bound(w.n, w.k, w.epochs)
    return {
        "rows": rows,
        "digest": digest.hexdigest(),
        "label_precision_last10": sum(last10(r, "label_precision") for r in seeds) / len(seeds),
        "test_acc_last10": sum(last10(r, "test_acc") for r in seeds) / len(seeds),
        "regret_to_ceiling": sum(final_regrets) / len(final_regrets) / bound,
        "regret_within_bound": all(g <= bound for g in final_regrets),
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"])
    w = workloads.WORKLOADS[job["workload"]]
    seeds = job["run_seeds"]
    first_seed = seeds[job["probe"] % len(seeds)]

    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import ksetsel
    from ksetsel import cli

    if Path(ksetsel.__file__).resolve().parent != (root / "src" / "ksetsel").resolve():
        print(f"ksetsel imported from {ksetsel.__file__}, not from the checkout", file=sys.stderr)
        return 2
    inputs = workloads.build_inputs(ksetsel, w, job["seed"], first_seed, job["idx_paths"])
    setup_s = time.perf_counter() - t0
    del inputs
    gc.collect()

    result = {"setup_s": setup_s, "numpy": sys.modules["numpy"].__version__, "blas": _blas_version()}
    recorder = spans.SpanRecorder()
    result["calls"] = _calls(job, w, cli, ksetsel, first_seed, recorder)
    if job["role"] == "trace":
        result["layers"] = spans.aggregate(recorder.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result))
    return 0


def _blas_version() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _calls(job: dict, w: workloads.Workload, cli, package, first_seed: int, recorder) -> list[dict]:
    """The cold call, then (run) warm calls or (trace) untraced/traced pairs."""
    out = job["out"]
    seeds = job["run_seeds"]
    targets = trace_targets(package) if job["role"] == "trace" else []
    calls = []

    def one_call(run_seed: int, traced: bool, warm: bool) -> None:
        out_dir = Path(out).parent
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        gc.collect()
        argv = [w.mode, "--config", job["config"], "--seed", str(run_seed)]
        if traced:
            recorder.install(targets)
            root_span = recorder.open("cli.main")
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed call, reported with its traceback
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        if traced:
            recorder.close(root_span)
            recorder.uninstall()
        record = {"seed": run_seed, "traced": traced, "warm": warm, "rc": rc}
        record.update(seconds=seconds, cpu_seconds=cpu_seconds)
        if rc == 0:
            try:
                record.update(inspect_outputs(w, out, package.regret_bound))
            except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                record["output_error"] = repr(exc)
        calls.append(record)

    one_call(first_seed, traced=False, warm=False)
    if job["role"] == "probe":
        return calls
    # Run for the job's seconds.  Warm calls start at run seed first_warm (the
    # probes had the ones before it), and a run continues until every seed has
    # had a call; a trace needs two pairs.
    min_rounds = 2 if job["role"] == "trace" else max(len(seeds) - job["first_warm"], 2)
    begin = time.perf_counter()
    i = 1
    while time.perf_counter() - begin < job["seconds"] or i <= min_rounds:
        run_seed = seeds[(job["first_warm"] + i - 1) % len(seeds)]
        if job["role"] == "trace":
            # Alternate which of the pair goes first so drift does not bias the overhead.
            for traced in (False, True) if i % 2 else (True, False):
                one_call(run_seed, traced=traced, warm=True)
        else:
            one_call(run_seed, traced=False, warm=True)
        i += 1
    return calls


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Benchmark of the ksetsel epoch loop, driven through `ksetsel.cli.main`.

Run from the root of a checkout:

    python3 bench/run.py --workload idx_train --seed 1 --seconds 16 --trace 0

Workloads, metric names, units and regression bounds are listed in
BENCHMARK.json at the root; bench/workloads.py says why each workload
exists.  The benchmark writes its inputs (a config file and, for
idx_train, a synthetic IDX pair) under .bench_work/ in the checkout,
derived from --seed, and deletes them when it ends.

--trace 0 measures the end-to-end metrics in fresh worker processes:
probes that time set-up and one cold cli.main call, then one process
that also makes warm calls for --seconds; timings are medians.
--trace 1 is a separate run that pairs untraced calls with calls whose
layer functions are wrapped in spans, and reports the per-layer
metrics.  Every call's outputs are checked (exit code, row counts,
columns 1-7 identical across calls with the same run seed, FPL regret
within its ceiling); a call failing any check counts in `failed`.  Human-readable lines come first; the last line of stdout is
one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PROBES = 2  # fresh processes that time set-up and one cold call
PROBE_SHARE = 0.5  # keep probing until this share of --seconds has passed
BLAS_THREADS = 1  # pinned: on a 2-core host idx_train timings spread about twice as much at 2
DEADLINE_S = 170.0  # a whole run must end within 180 s


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ksetsel").glob("*.py")):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(job: dict, work: Path, deadline: float) -> dict:
    """Run worker.py on job in a fresh process and return its result."""
    job_path = work / f"job-{job['role']}-{time.monotonic_ns()}.json"
    job["result"] = str(job_path.with_suffix(".result.json"))
    job_path.write_text(json.dumps(job))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path)],
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({job['role']}) exited with code {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def check_calls(w: workloads.Workload, out: str, calls: list[dict]) -> tuple[int, list[str]]:
    """Count failed calls; each is compared with the first call of its run seed."""
    expected = workloads.expected_rows(w, out)
    reference = {c["seed"]: c["digest"] for c in first_per_seed(calls)}
    failed, notes = 0, []
    for i, call in enumerate(calls):
        problems = []
        if call["rc"] != 0:
            problems.append(f"exit code {call['rc']}")
        elif "output_error" in call:
            problems.append(f"unreadable output: {call['output_error']}")
        else:
            if call["rows"] != expected:
                problems.append(f"rows {call['rows']} != expected {expected}")
            if call["digest"] != reference[call["seed"]]:
                problems.append(f"columns 1-7 differ from the first call with seed {call['seed']}")
            if w.mode == "simulate" and not call["regret_within_bound"]:
                problems.append("FPL regret above regret_bound")
        if problems:
            failed += 1
            kind = "traced" if call["traced"] else "untraced"
            notes.append(f"call {i} ({kind}): " + "; ".join(problems))
    return failed, notes


def first_per_seed(calls: list[dict]) -> list[dict]:
    """The first call of each run seed that left readable outputs."""
    seen = {}
    for call in calls:
        if "digest" in call:
            seen.setdefault(call["seed"], call)
    return list(seen.values())


def end_to_end(w: workloads.Workload, processes: list[dict]) -> dict[str, float]:
    """Medians over processes (set-up), cold calls and warm calls; quality means over seeds."""
    calls = [c for p in processes for c in p["calls"]]
    per_seed = first_per_seed(calls)
    return {
        "setup_s": statistics.median([p["setup_s"] for p in processes]),
        "first_run_s": statistics.median([c["seconds"] for c in calls if not c["warm"]]),
        "epochs_per_s": statistics.median([w.triples_per_call() / c["seconds"] for c in calls if c["warm"]]),
        "peak_rss_mb": processes[-1]["peak_rss_mb"],
        "label_precision_last10": statistics.fmean(c["label_precision_last10"] for c in per_seed),
        "regret_to_ceiling": statistics.fmean(c["regret_to_ceiling"] for c in per_seed),
    }


# How each per-layer stat is derived from the summed span table.  Totals
# are per traced cli.main call; rates divide a work count by busy time.
_RATES = {
    "gflops": ("flops", 1e-9),
    "rows_per_s": ("rows", 1.0),
    "mb_per_s": ("bytes", 1e-6),
}


def per_layer(names: list[str], run: dict) -> dict[str, float]:
    layers = run["layers"]
    warm = [c for c in run["calls"] if c["warm"]]
    traced = [c for c in warm if c["traced"]]
    n = len(traced)

    def stat(fn: str, key: str) -> float:
        return layers.get(fn, {}).get(key, 0.0)

    values = {}
    for name in names:
        parts = name.split(".")
        if name == "trace.overhead_share":
            # Warm calls come in pairs with the same seed, one of them traced.
            pairs = [sorted(pair, key=lambda c: c["traced"]) for pair in zip(warm[::2], warm[1::2])]
            values[name] = statistics.median([t["seconds"] / u["seconds"] for u, t in pairs]) - 1.0
        elif name == "trace.accounted_share":
            values[name] = sum(row["self_s"] for row in layers.values()) / sum(c["seconds"] for c in traced)
        elif len(parts) == 2:  # <module>.self_s over all of the module's functions
            module, key = parts
            values[name] = sum(row[key] for fn, row in layers.items() if fn.startswith(module + ".")) / n
        else:
            fn, key = ".".join(parts[:2]), parts[2]
            busy, calls = stat(fn, "busy_s"), stat(fn, "calls")
            if key in ("calls", "busy_s", "self_s"):
                values[name] = stat(fn, key) / n
            elif key == "ms_per_call":
                values[name] = 1e3 * busy / calls if calls else 0.0
            elif key == "ns_per_element":
                elements = stat(fn, "elements")
                values[name] = 1e9 * busy / elements if elements else 0.0
            else:
                work_key, scale = _RATES[key]
                values[name] = stat(fn, work_key) * scale / busy if busy else 0.0
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ksetsel" / "__init__.py").is_file():
        print(f"no ksetsel sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = workloads.WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        idx_paths = None
        if w.name == "idx_train":
            import idxgen

            (work / "idx").mkdir()
            idx_paths = idxgen.write_synthetic_split(
                work / "idx", w.n, workloads.IDX_TEST_N, workloads.IDX_CLASSES, args.seed
            )
        out = str(work / "out" / "metrics.csv")
        config = work / f"{w.name}.cfg"
        config.write_text(workloads.config_text(w, args.seed, out, idx_paths))
        job = {
            "root": str(ROOT),
            "workload": w.name,
            "seed": args.seed,
            "run_seeds": w.run_seeds(args.seed),
            "seconds": args.seconds,
            "config": str(config),
            "out": out,
            "idx_paths": idx_paths,
        }
        processes = []
        if not args.trace:
            begin = time.monotonic()
            while len(processes) < MIN_PROBES or time.monotonic() - begin < PROBE_SHARE * args.seconds:
                processes.append(run_worker({**job, "role": "probe", "probe": len(processes)}, work, deadline))
        first_warm = len(processes) if processes else 1
        role = "trace" if args.trace else "run"
        processes.append(run_worker({**job, "role": role, "probe": 0, "first_warm": first_warm}, work, deadline))
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (ROOT / ".bench_work").is_dir() and not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    run = processes[-1]
    calls = [c for p in processes for c in p["calls"]]
    failed, notes = check_calls(w, out, calls)
    names = [m["name"] for m in metric_specs]
    try:
        values = per_layer(names, run) if args.trace else end_to_end(w, processes)
    except (KeyError, ZeroDivisionError, statistics.StatisticsError) as exc:
        for note in notes:
            print("check failed:", note)
        print(f"benchmark failed: cannot compute metrics ({exc!r})", file=sys.stderr)
        return 1

    env = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": run["numpy"],
        "blas": run["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env", json.dumps(env))
    print(f"calls attempted={len(calls)} failed={failed} failed_share={failed / len(calls):.4g}")
    for note in notes:
        print("check failed:", note)
    for i, c in enumerate(calls):
        kind = "traced" if c["traced"] else "warm" if c["warm"] else "cold"
        print(f"call {i} seed {c['seed']} {kind} wall {c['seconds']:.4f} s cpu {c['cpu_seconds']:.4f} s")
    for c in first_per_seed(calls):
        print(f"outputs_sha256 seed {c['seed']} {c.get('digest')} (columns 1-7 of every output CSV)")
    baseline = json.loads((BENCH / "baseline.json").read_text()).get(w.name, {})
    for m in metric_specs:
        base = baseline.get(m["name"])
        base_text = f"  baseline median {base:.6g}" if base is not None else ""
        print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']} ({m['better']} is better){base_text}")
    if not args.trace:
        test_acc = statistics.fmean(c["test_acc_last10"] for c in first_per_seed(calls))
        print(f"info test_acc_last10 {test_acc:.6g} fraction (FPL; nan in simulate mode)")
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

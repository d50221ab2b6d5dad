"""Digest every output of a fixed grid of CLI runs, to check that a change alters no output byte.

    python3 scripts/output_digest.py SRC_DIR

imports ksetsel from SRC_DIR (a checkout's `src/`), runs 23 configs
through `ksetsel.cli.main` in a temporary directory and prints one
sha256 per config plus a total over them.  A config's digest covers its
exit code, stdout and stderr (the temporary directory replaced by a
placeholder), the messages of the warnings it raised, and every file it
wrote: metric CSVs without their last column (wall_ms, the one output
outside the determinism contract) and all other files whole.  Run it on
two checkouts and compare the totals.  It exits 1 when any config exits
non-zero, after printing every digest, so a config broken on both
checkouts cannot pass as equal.

The grid: simulate over the four generated stream kinds x three selector
lists, each with seeds 0 and 1; a planted simulate that dumps its stream
and a csv replay of that dump; train with each selector; train with
asymmetric noise on a CSV dataset the script writes itself; ablate;
validate-risk; grid; bounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SIM = {"n": 5000, "k_frac": 0.2, "epochs": 40, "eta_coefficient": 1e-3, "drift_period": 7}
BLOBS = {
    "n": 600, "dim": 8, "classes": 4, "separation": 6.0, "test_n": 150, "noise": "sym:0.4",
    "hidden": 32, "lr": 0.05, "batch_size": 32, "epochs": 15, "k_frac": 0.5, "eta_coefficient": 5e-3,
}
CSV_TRAIN = {
    "dataset": "csv", "csv_path": "{dir}/csv-data/train.csv", "csv_test_path": "{dir}/csv-data/test.csv",
    "noise": "asym:0.3", "hidden": 16, "lr": 0.05, "batch_size": 16, "epochs": 12, "k_frac": 0.6,
    "eta_coefficient": 5e-3,
}
SELECTOR_LISTS = {"all": "fpl, naive, greedy, random", "naive": "naive", "mixed": "random, greedy, fpl, fpl"}


def configs() -> list[tuple[str, str, dict]]:
    """(name, mode, config-file keys) in run order; `{dir}` in a value is the directory all runs share."""
    grid = []
    for stream in ("uniform", "planted", "drifting", "adversary"):
        for tag, selectors in SELECTOR_LISTS.items():
            keys = {**SIM, "stream": stream, "selectors": selectors, "seeds": "0, 1"}
            if stream == "adversary":
                keys["k"] = 1
                del keys["k_frac"]
            grid.append((f"simulate-{stream}-{tag}", "simulate", keys))
    dump = {**SIM, "stream": "planted", "selectors": SELECTOR_LISTS["all"], "seeds": "3, 4", "epochs": 12}
    grid.append(("simulate-dump", "simulate", {**dump, "dump_stream": "{dir}/simulate-dump/stream.csv"}))
    replay = {"stream": "csv", "stream_csv": "{dir}/simulate-dump/stream.csv", "selectors": SELECTOR_LISTS["all"]}
    grid.append(("simulate-replay", "simulate", {**replay, "seeds": "3, 4", "k_frac": 0.2, "eta_coefficient": 1e-3}))
    for selector in ("fpl", "naive", "greedy", "random"):
        grid.append((f"train-{selector}", "train", {**BLOBS, "selectors": selector, "seeds": "0, 1"}))
    grid.append(("train-csv-asym", "train", {**CSV_TRAIN, "selectors": "fpl", "seeds": "0, 1"}))
    grid.append(("ablate", "ablate", {**BLOBS, "selectors": SELECTOR_LISTS["all"], "seeds": "0, 1"}))
    grid.append(("validate-risk", "validate-risk", {**BLOBS, "seeds": "0, 1", "epochs": 6, "noise": "sym:0.5"}))
    grid.append(("grid", "grid", {**BLOBS, "seeds": "2", "epochs": 4, "noise_rate_estimate": 0.4}))
    grid.append(("bounds", "bounds", {"n": 5000, "k_frac": 0.2, "epochs": 40, "alpha": 0.1}))
    return grid


def write_csv_data(root: Path) -> None:
    """Seeded four-class clusters as train and test files in the dataset CSV format, written without ksetsel."""
    rng = np.random.default_rng(11)
    centers = rng.uniform(0.0, 12.0, size=(4, 6))
    (root / "csv-data").mkdir()
    for name, n in (("train", 400), ("test", 100)):
        labels = rng.integers(0, 4, size=n)
        samples = centers[labels] + rng.standard_normal((n, 6))
        lines = ["label," + ",".join(f"f_{i}" for i in range(6))]
        lines += [f"{y}," + ",".join(repr(float(v)) for v in row) for y, row in zip(labels, samples)]
        (root / "csv-data" / f"{name}.csv").write_text("\n".join(lines) + "\n")


def file_bytes(path: Path) -> bytes:
    lines = path.read_text().splitlines()
    if lines and lines[0].endswith(",wall_ms"):
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return "\n".join(lines).encode()


def run_config(cli, root: Path, name: str, mode: str, keys: dict) -> tuple[str, int]:
    run_dir = root / name
    run_dir.mkdir()
    shared = str(root)
    text = "".join(f"{key} = {str(value).replace('{dir}', shared)}\n" for key, value in keys.items())
    if mode != "bounds":
        text += f"out = {run_dir / 'out.csv'}\n"
    (run_dir / "run.cfg").write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main([mode, "--config", str(run_dir / "run.cfg")])
    digest = hashlib.sha256(f"rc={rc}\n".encode())
    for stream in (stdout, stderr):
        digest.update(stream.getvalue().replace(shared, "<root>").encode() + b"\n--\n")
    for warning in caught:
        digest.update(f"{warning.category.__name__}: {warning.message}\n".encode())
    for path in sorted(run_dir.iterdir()):
        if path.name != "run.cfg":
            digest.update(path.name.encode() + b"\n" + file_bytes(path) + b"\n--\n")
    if rc != 0:
        print(f"{name}: exit {rc}: {stderr.getvalue().strip()}", file=sys.stderr)
    return digest.hexdigest(), rc


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/output_digest.py SRC_DIR", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import ksetsel
    from ksetsel import cli

    if Path(ksetsel.__file__).resolve().parent != src / "ksetsel":
        print(f"ksetsel imported from {ksetsel.__file__}, not from {src}", file=sys.stderr)
        return 2
    total = hashlib.sha256()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        write_csv_data(Path(tmp))
        for name, mode, keys in configs():
            digest, rc = run_config(cli, Path(tmp), name, mode, keys)
            failed |= rc != 0
            line = f"{digest}  {name}"
            print(line)
            total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  total")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

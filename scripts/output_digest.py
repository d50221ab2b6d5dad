"""Digest every output of a fixed grid of CLI runs, to check that a change alters no output byte.

    python3 scripts/output_digest.py SRC_DIR

imports ksetsel from SRC_DIR (a checkout's `src/`), runs 28 configs
through `ksetsel.cli.main` in a temporary directory and prints one
sha256 per config plus a total over them.  A config's digest covers its
exit code, stdout and stderr (the temporary directory replaced by a
placeholder), the messages of the warnings it raised, and every file it
wrote: metric CSVs without their last column (wall_ms, the one output
outside the determinism contract) and all other files whole.  Run it on
two checkouts and compare the totals.  It exits 1 when any config exits
non-zero, after printing every digest, so a config broken on both
checkouts cannot pass as equal.  tests/test_output_digest.py runs it on
this checkout at OPENBLAS_NUM_THREADS=1 and 2, requires the same digests
from both, and compares each config's digest with
tests/golden/digests.txt, under the entry for the host's numpy version
and the BLAS name and version of numpy's build config; a change that
alters outputs on purpose records its new digests there.

The grid: simulate over the four generated stream kinds x three selector
lists, each with seeds 0 and 1; a planted simulate that dumps its stream
and a csv replay of that dump; train with each selector; train with
asymmetric noise on a CSV dataset the script writes itself; train with
every override flag over a file that sets the same keys (and `k`)
otherwise; ablate; validate-risk; grid; train (with a test split) and
grid on an IDX image/label pair the script also writes itself, with
more training rows than one 4096-row scoring chunk; train on 784-wide
blobs with 256 hidden units, whose 32-row batches split their w1 work
between two threads where a second CPU is usable; a replay, with
every selector, of a stream of risks in {0, 0.5, 1} the script writes
itself, whose ties at the k-th smallest value exercise the tie rule;
bounds, last.  Under `OPENBLAS_NUM_THREADS=1` on two or more usable
CPUs the ablate config (four selectors, seeds 0 and 1) trains each
seed's selectors, and the grid and validate-risk configs their grid
points and clean fractions, in forked children (`ksetsel.ahead.fork_map`),
so their digests check that forked runs write the same bytes as inline
ones; at 2 BLAS threads every run is inline.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import struct
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
FLAGS = {
    "--seed": "3", "--out": "{dir}/train-flags/flag.csv", "--selector": "fpl", "--eta-coef": "2e-3",
    "--k-frac": "0.4", "--noise": "sym:0.3",
}
IDX = {
    "dataset": "idx", "idx_images": "{dir}/idx-data/train-images", "idx_labels": "{dir}/idx-data/train-labels",
    "noise": "sym:0.4", "hidden": 16, "lr": 0.05, "batch_size": 32, "k_frac": 0.5, "eta_coefficient": 5e-3,
}
IDX_TEST = {"idx_test_images": "{dir}/idx-data/test-images", "idx_test_labels": "{dir}/idx-data/test-labels"}
SELECTOR_LISTS = {"all": "fpl, naive, greedy, random", "naive": "naive", "mixed": "random, greedy, fpl, fpl"}


def configs() -> list[tuple[str, str, dict]]:
    """(name, mode, keys) in run order.

    A key is a config-file key, or a flag when it starts with `--`;
    `{dir}` in a value is the directory all runs share.
    """
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
    overridden = {**BLOBS, "k": 200, "noise": "asym:0.2", "selectors": "naive", "seeds": "0, 1"}
    del overridden["k_frac"]
    grid.append(("train-flags", "train", {**overridden, **FLAGS}))
    grid.append(("ablate", "ablate", {**BLOBS, "selectors": SELECTOR_LISTS["all"], "seeds": "0, 1"}))
    grid.append(("validate-risk", "validate-risk", {**BLOBS, "seeds": "0, 1", "epochs": 6, "noise": "sym:0.5"}))
    grid.append(("grid", "grid", {**BLOBS, "seeds": "2", "epochs": 4, "noise_rate_estimate": 0.4}))
    grid.append(("train-idx", "train", {**IDX, **IDX_TEST, "selectors": "fpl", "seeds": "0, 1", "epochs": 8}))
    wide = {**BLOBS, "dim": 784, "hidden": 256, "epochs": 6}
    grid.append(("train-split", "train", {**wide, "selectors": "fpl", "seeds": "0, 1"}))
    grid.append(("grid-idx", "grid", {**IDX, "seeds": "2", "epochs": 3, "noise_rate_estimate": 0.4}))
    ties = {"stream": "csv", "stream_csv": "{dir}/ties-data/stream.csv", "selectors": SELECTOR_LISTS["all"]}
    grid.append(("simulate-ties", "simulate", {**ties, "seeds": "0, 1", "k_frac": 0.3}))
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


def write_ties_stream(root: Path) -> None:
    """A seeded 10-epoch, 60-wide stream of risks in {0, 0.5, 1} in the dumped-stream format, written without ksetsel.

    Its sums tie often, so the k-th smallest is shared and the tie rule decides which samples are picked.
    """
    rng = np.random.default_rng(13)
    lines = ["epoch," + ",".join(f"theta_{i}" for i in range(60))]
    lines += [f"{t}," + ",".join(str(v / 2) for v in rng.integers(0, 3, size=60)) for t in range(1, 11)]
    (root / "ties-data").mkdir()
    (root / "ties-data" / "stream.csv").write_text("\n".join(lines) + "\n")


def write_idx_data(root: Path) -> None:
    """Seeded five-class 7x7 u8 images as train and test IDX pairs, written without ksetsel."""
    rng = np.random.default_rng(12)
    templates = rng.uniform(0.0, 255.0, size=(5, 7, 7))
    (root / "idx-data").mkdir()
    for name, n in (("train", 4500), ("test", 600)):
        labels = rng.integers(0, 5, size=n).astype(np.uint8)
        images = np.clip(templates[labels] + rng.normal(0.0, 90.0, size=(n, 7, 7)), 0, 255).astype(np.uint8)
        (root / "idx-data" / f"{name}-images").write_bytes(struct.pack(">IIII", 0x803, n, 7, 7) + images.tobytes())
        (root / "idx-data" / f"{name}-labels").write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())


def file_bytes(path: Path) -> bytes:
    lines = path.read_text().splitlines()
    if lines and lines[0].endswith(",wall_ms"):
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return "\n".join(lines).encode()


def run_config(cli, root: Path, name: str, mode: str, keys: dict) -> tuple[str, int]:
    run_dir = root / name
    run_dir.mkdir()
    shared = str(root)
    values = {key: str(value).replace("{dir}", shared) for key, value in keys.items()}
    text = "".join(f"{key} = {value}\n" for key, value in values.items() if not key.startswith("--"))
    if mode != "bounds":
        text += f"out = {run_dir / 'out.csv'}\n"
    (run_dir / "run.cfg").write_text(text)
    flags = [part for key, value in values.items() if key.startswith("--") for part in (key, value)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main([mode, "--config", str(run_dir / "run.cfg"), *flags])
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
        write_idx_data(Path(tmp))
        write_ties_stream(Path(tmp))
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

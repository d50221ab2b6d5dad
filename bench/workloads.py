"""The three benchmark workloads: config files, set-up calls and output expectations.

idx_train         train, FPL, on a synthetic MNIST-shaped u8 IDX pair.  The
                  learner's large GEMMs dominate; selection is under 1%, so
                  this is the bypass workload for selector changes.
blobs_ablate      ablate, four selectors on A8's noisy blobs.  Thousands of
                  small calls expose per-call overhead in the learner and loop.
planted_simulate  simulate, four selectors on a planted 1e6-sample stream.
                  No learner runs, so this is the bypass workload for learner
                  changes and the one where selection cost shows.

Everything a run feeds the program is derived from the benchmark seed.
This module imports nothing heavy so the worker can time `import ksetsel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SELECTORS_ALL = ("fpl", "naive", "greedy", "random")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    selectors: tuple[str, ...]
    seed_cycle: int  # run seeds the calls of one benchmark run cycle through, one per call
    n: int  # training samples (or stream width) that k is drawn from
    k_frac: float
    epochs: int
    keys: dict  # remaining config-file keys

    def run_seeds(self, seed: int) -> list[int]:
        return [seed * self.seed_cycle + i for i in range(self.seed_cycle)]

    @property
    def k(self) -> int:
        return min(self.n, max(1, int(round(self.k_frac * self.n))))

    def triples_per_call(self) -> int:
        """(selector, seed, epoch) triples one cli.main call completes."""
        return len(self.selectors) * self.epochs


IDX_TRAIN = Workload(
    name="idx_train",
    mode="train",
    selectors=("fpl",),
    seed_cycle=1,
    n=60000,
    k_frac=0.6,
    epochs=2,
    keys={
        "dataset": "idx",
        "noise": "sym:0.4",
        "hidden": 256,
        "lr": 0.05,
        "batch_size": 32,
        "eta_coefficient": 1e-3,
    },
)
IDX_TEST_N = 10000
IDX_CLASSES = 10

BLOBS_ABLATE = Workload(
    name="blobs_ablate",
    mode="ablate",
    selectors=SELECTORS_ALL,
    # One seed's FPL label precision varies by about 0.14 around 0.75 at
    # this noise, so quality is averaged over eight seeds, one per call.
    seed_cycle=8,
    n=2000,
    k_frac=0.15,
    epochs=100,
    keys={
        "dataset": "blobs",
        "dim": 16,
        "classes": 10,
        "separation": 8.0,
        "test_n": 500,
        "noise": "sym:0.8",
        "eta_coefficient": 5e-3,
        "hidden": 128,
        "lr": 0.05,
        "batch_size": 32,
    },
)

PLANTED_SIMULATE = Workload(
    name="planted_simulate",
    mode="simulate",
    selectors=SELECTORS_ALL,
    seed_cycle=1,
    n=1_000_000,
    k_frac=0.2,
    epochs=20,
    keys={
        "stream": "planted",
        "clean_fraction": 0.5,
        "noise_scale": 0.1,
        "eta_coefficient": 1e-3,
    },
)

WORKLOADS = {w.name: w for w in (IDX_TRAIN, BLOBS_ABLATE, PLANTED_SIMULATE)}


def config_text(w: Workload, seed: int, out: str, idx_paths: dict[str, str] | None) -> str:
    """The flat key = value file the program reads; each call picks its run seed with --seed."""
    keys = {
        "mode": w.mode,
        "out": out,
        "seeds": w.run_seeds(seed)[0],
        "selectors": ", ".join(w.selectors),
        "k_frac": w.k_frac,
        "epochs": w.epochs,
        **w.keys,
    }
    if w.mode != "train":
        keys["n"] = w.n
    if w.name == "blobs_ablate":
        keys["data_seed"] = seed
    if idx_paths:
        keys.update(idx_paths)
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def build_inputs(ksetsel, w: Workload, seed: int, run_seed: int, idx_paths: dict[str, str] | None):
    """The set-up a user pays before a call with run_seed: the datasets/feedback public calls."""
    if w.name == "idx_train":
        return [
            ksetsel.load_idx(idx_paths["idx_images"], idx_paths["idx_labels"]),
            ksetsel.load_idx(idx_paths["idx_test_images"], idx_paths["idx_test_labels"]),
        ]
    if w.name == "blobs_ablate":
        k = w.keys
        full = ksetsel.make_blobs(w.n + k["test_n"], k["dim"], k["classes"], k["separation"], seed)
        train = full.subset(list(range(w.n)))
        rate = float(k["noise"].split(":")[1])
        return ksetsel.apply_label_noise(train, ksetsel.LabelNoiseSpec(kind="sym", rate=rate, seed=run_seed))
    k = w.keys
    spec = ksetsel.StreamSpec(
        kind=ksetsel.StreamKind(k["stream"]),
        n=w.n,
        epochs=w.epochs,
        seed=run_seed,
        clean_fraction=k["clean_fraction"],
        noise_scale=k["noise_scale"],
    )
    return ksetsel.generate_stream(spec)


def expected_rows(w: Workload, out: str) -> dict[str, int]:
    """Data rows (header excluded) each output CSV of one single-seed call must hold."""
    p = Path(out)

    def tagged(tag: str) -> str:
        return f"{p.stem}_{tag}{p.suffix}"

    if w.mode == "train":
        return {p.name: w.epochs, tagged("summary"): 1}
    rows = {tagged(s): w.epochs for s in w.selectors}
    if w.mode == "ablate":
        rows[p.name] = len(w.selectors)
    return rows


def fpl_csv(w: Workload, out: str) -> str:
    """The per-epoch metrics file of the FPL selector."""
    p = Path(out)
    return out if w.mode == "train" else str(p.with_name(f"{p.stem}_fpl{p.suffix}"))

"""Acceptance gate.

Eleven criteria covering bound conformance, oracle equivalence,
gradient correctness, the directional training claims, determinism,
and data ingestion.  Each criterion is one or two tests named
test_aNN_*; a per-criterion verdict table is printed by the conftest
terminal-summary hook.

The directional scenarios (A7, A8, A9) pin every knob so reruns are
exactly reproducible; they were chosen once, from a coarse sweep, and
then frozen.
"""

import itertools
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from ksetsel.analytics import avg_risk_bound, regret_bound
from ksetsel.cli import EXIT_OK, main
from ksetsel.datasets import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, LabelNoiseSpec, load_idx
from ksetsel.errors import (
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
)
from ksetsel.harness import (
    ExperimentConfig,
    run_ablate,
    run_simulate,
    run_validate_risk,
)
from ksetsel.mlp import backward, forward, init_mlp
from ksetsel.selection import CumulativeRisk, Strategy, hindsight_best


# --------------------------------------------------------------- A1


def test_a01_regret_within_ceiling_on_uniform_streams(tmp_path):
    for n, k in ((50, 10), (100, 25), (20, 5)):
        cfg = ExperimentConfig(
            mode="simulate",
            out=str(tmp_path / f"a1_{n}_{k}.csv"),
            seeds=tuple(range(30)),
            selectors=(Strategy.FPL,),
            stream="uniform",
            n=n,
            k=k,
            epochs=200,
            eta_coefficient=1.0,  # eta = sqrt(kT)
        )
        report = run_simulate(cfg).reports[Strategy.FPL]
        assert report.empirical_regret <= report.regret_ceiling, (
            f"(n={n}, k={k}): mean regret {report.empirical_regret:.3f} "
            f"exceeds ceiling {report.regret_ceiling:.3f}"
        )


# --------------------------------------------------------------- A2


def test_a02_hindsight_oracle_matches_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 5))
        epochs = int(rng.integers(1, 9))
        risks = rng.random((epochs, n))
        total = risks.sum(axis=0)
        best = min(itertools.combinations(range(n), k), key=lambda c: total[list(c)].sum())
        oracle = hindsight_best(CumulativeRisk(sums=total, epochs_seen=epochs), k)
        assert oracle.indices.tolist() == list(best)


# --------------------------------------------------------------- A3


def test_a03_average_risk_within_alpha_ceiling(tmp_path):
    cfg = ExperimentConfig(
        mode="simulate",
        out=str(tmp_path / "a3.csv"),
        seeds=tuple(range(30)),
        selectors=(Strategy.FPL,),
        stream="planted",
        n=100,
        k=30,
        epochs=400,
        eta_coefficient=1.0,
        clean_fraction=0.8,
    )
    report = run_simulate(cfg).reports[Strategy.FPL]
    assert report.alpha is not None and report.avg_risk_ceiling is not None
    assert report.empirical_avg_risk <= report.avg_risk_ceiling, (
        f"ASR {report.empirical_avg_risk:.4f} exceeds ceiling "
        f"{report.avg_risk_ceiling:.4f} at alpha={report.alpha:.4f}"
    )


# --------------------------------------------------------------- A4


def test_a04_closed_form_reference_values():
    # Frozen from an independent 50-digit rederivation:
    #   2*sqrt(2*3*100*ln C(10,3)) and 0.1*30*(2*sqrt(2 ln 100)/sqrt(40) + 1)
    assert abs(regret_bound(10, 3, 100) / 107.19132512790812 - 1.0) < 1e-6
    assert abs(avg_risk_bound(100, 30, 400, 0.1) / 5.879115547312848 - 1.0) < 1e-6


# --------------------------------------------------------------- A5


def test_a05_leader_fails_and_perturbation_rescues(tmp_path):
    cfg = ExperimentConfig(
        mode="simulate",
        out=str(tmp_path / "a5.csv"),
        seeds=tuple(range(30)),
        selectors=(Strategy.NAIVE, Strategy.FPL),
        stream="adversary",
        k=1,
        epochs=1000,
        eta_coefficient=1.0,  # k = 1, so eta = sqrt(T)
    )
    result = run_simulate(cfg)
    naive_regret = result.reports[Strategy.NAIVE].empirical_regret
    fpl_regret = result.reports[Strategy.FPL].empirical_regret
    ceiling = regret_bound(2, 1, 1000)
    assert naive_regret >= 0.4 * 1000, f"leader regret {naive_regret:.1f} < 400"
    assert fpl_regret <= ceiling, f"FPL regret {fpl_regret:.2f} exceeds {ceiling:.2f}"


# --------------------------------------------------------------- A6


def _fd_loss(model, x, label):
    return -np.log(forward(model, x)[label])


def test_a06_gradients_match_finite_differences():
    rng = np.random.default_rng(606)
    step = 1e-5
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 11))
        h = int(rng.integers(2, 9))
        c = int(rng.integers(2, 6))
        model = init_mlp(d, h, c, seed=trial)
        x = rng.normal(size=d)
        label = int(rng.integers(0, c))
        analytic = backward(model, x, label)
        for name in ("w1", "b1", "w2", "b2"):
            param = getattr(model, name)
            grad = getattr(analytic, name)
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + step
                up = _fd_loss(model, x, label)
                param[idx] = orig - step
                down = _fd_loss(model, x, label)
                param[idx] = orig
                numeric = (up - down) / (2 * step)
                denom = max(abs(grad[idx]) + abs(numeric), 1e-8)
                worst = max(worst, abs(grad[idx] - numeric) / denom)
                it.iternext()
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"


# --------------------------------------------------------------- A7


def test_a07_risk_decreases_with_selection_cleanliness(tmp_path):
    cfg = ExperimentConfig(
        mode="validate-risk",
        out=str(tmp_path / "a7.csv"),
        seeds=tuple(range(10)),
        n=1000,
        classes=4,
        dim=16,
        separation=8.0,
        noise=LabelNoiseSpec("sym", 0.5),
        k_frac=0.5,
        epochs=60,
        hidden=64,
        lr=0.05,
        batch_size=32,
    )
    result = run_validate_risk(cfg)
    ordered = [result.total_risk[f] for f in sorted(result.total_risk)]
    assert result.strictly_decreasing, (
        "total selected risk not strictly decreasing in clean fraction: "
        + ", ".join(f"{v:.1f}" for v in ordered)
    )


# --------------------------------------------------------------- A8


def test_a08_fpl_beats_naive_and_greedy_under_heavy_noise(tmp_path):
    cfg = ExperimentConfig(
        mode="ablate",
        out=str(tmp_path / "a8.csv"),
        seeds=tuple(range(10)),
        selectors=(Strategy.FPL, Strategy.NAIVE, Strategy.GREEDY),
        n=2000,
        classes=10,
        dim=16,
        separation=8.0,
        test_n=500,
        noise=LabelNoiseSpec("sym", 0.8),
        k_frac=0.15,
        epochs=100,
        eta_coefficient=5e-3,  # tuned: best of {1e-4, 5e-4, 1e-3, 5e-3} at this noise
        hidden=128,
        lr=0.05,
        batch_size=32,
    )
    result = run_ablate(cfg)
    fpl = result.mean_test_acc[Strategy.FPL]
    naive = result.mean_test_acc[Strategy.NAIVE]
    greedy = result.mean_test_acc[Strategy.GREEDY]
    assert fpl >= naive + 0.03, f"FPL {fpl:.4f} vs naive {naive:.4f}: margin < 3 points"
    assert fpl >= greedy + 0.03, f"FPL {fpl:.4f} vs greedy {greedy:.4f}: margin < 3 points"


# --------------------------------------------------------------- A9


def test_a09_label_precision_beats_random(tmp_path):
    cfg = ExperimentConfig(
        mode="ablate",
        out=str(tmp_path / "a9.csv"),
        seeds=tuple(range(10)),
        selectors=(Strategy.FPL, Strategy.RANDOM),
        n=2000,
        classes=4,
        dim=16,
        separation=8.0,
        test_n=500,
        noise=LabelNoiseSpec("sym", 0.5),
        k_frac=0.4,
        epochs=100,
        eta_coefficient=1e-3,
        hidden=128,
        lr=0.05,
        batch_size=32,
    )
    result = run_ablate(cfg)
    fpl = result.mean_precision[Strategy.FPL]
    random = result.mean_precision[Strategy.RANDOM]
    assert fpl >= 0.90, f"FPL precision {fpl:.4f} < 0.90"
    assert fpl >= random + 0.2, f"FPL {fpl:.4f} vs random {random:.4f}: gap < 0.2"


# --------------------------------------------------------------- A10


def _rows_without_wall(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    return [lines[0]] + [r.rsplit(",", 1)[0] for r in lines[1:]]


def test_a10_config_reruns_are_byte_identical(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "mode = train\n"
        "n = 150\n"
        "dim = 4\n"
        "classes = 3\n"
        "test_n = 50\n"
        "hidden = 8\n"
        "epochs = 5\n"
        "seeds = 0, 1\n"
        "k_frac = 0.3\n"
        "noise = sym:0.4\n"
        "eta_coefficient = 0.001\n"
    )
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["train", "--config", str(config), "--out", str(first)]) == EXIT_OK
    assert main(["train", "--config", str(config), "--out", str(second)]) == EXIT_OK
    assert _rows_without_wall(first) == _rows_without_wall(second)
    # summary files carry no wall column and must match exactly
    first_summary = tmp_path / "first_summary.csv"
    second_summary = tmp_path / "second_summary.csv"
    assert first_summary.read_bytes() == second_summary.read_bytes()


# --------------------------------------------------------------- A11


def _write_images(path: Path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, *arr.shape))
        fh.write(arr.tobytes())


def _write_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def test_a11_idx_fixture_errors_and_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    images = rng.integers(0, 256, size=(100, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=100, dtype=np.uint8)
    img_path, lbl_path = tmp_path / "images", tmp_path / "labels"
    _write_images(img_path, images)
    _write_labels(lbl_path, labels)

    data = load_idx(img_path, lbl_path)
    assert data.n == 100 and data.dim == 784 and data.num_classes == 10
    np.testing.assert_allclose(
        data.samples, images.reshape(100, 784).astype(np.float64) / 255.0
    )

    # corrupted magic
    bad_magic = tmp_path / "bad_magic"
    payload = bytearray(img_path.read_bytes())
    payload[0:4] = struct.pack(">i", 0x12345678)
    bad_magic.write_bytes(bytes(payload))
    with pytest.raises(IdxMagicError):
        load_idx(bad_magic, lbl_path)

    # truncated payload
    truncated = tmp_path / "truncated"
    truncated.write_bytes(img_path.read_bytes()[:-50])
    with pytest.raises(IdxTruncatedError):
        load_idx(truncated, lbl_path)

    # image/label count disagreement
    short_labels = tmp_path / "short_labels"
    _write_labels(short_labels, labels[:80])
    with pytest.raises(IdxCountMismatchError):
        load_idx(img_path, short_labels)


def _find_official_mnist() -> tuple[Path, Path] | None:
    candidates = []
    if os.environ.get("MNIST_DIR"):
        candidates.append(Path(os.environ["MNIST_DIR"]))
    candidates += [Path("data"), Path("/root/data"), Path.home() / "mnist"]
    for base in candidates:
        images = base / "train-images-idx3-ubyte"
        labels = base / "train-labels-idx1-ubyte"
        if images.is_file() and labels.is_file():
            return images, labels
    return None


def test_a11_official_training_files():
    found = _find_official_mnist()
    if found is None:
        pytest.skip(
            "official IDX training pair not present (set MNIST_DIR or place "
            "train-images-idx3-ubyte and train-labels-idx1-ubyte under ./data)"
        )
    images_path, labels_path = found
    data = load_idx(images_path, labels_path)
    assert data.n == 60_000 and data.dim == 784 and data.num_classes == 10
    assert int(data.assigned_labels[0]) == 5
    assert int(data.assigned_labels[-1]) == 8
    raw = images_path.read_bytes()
    assert raw[16] == 0  # first pixel byte of the first image
    assert raw[-1] == 0  # last pixel byte of the last image
    assert data.samples[0, 0] == 0.0
    assert data.samples[-1, -1] == 0.0

"""Experiment harness: config files, run modes, and CSV outputs.

Config files are flat `key = value` lines with `#` comments; CLI
flags override file values.  Every run mode resolves k from an
absolute `k` or a fractional `k_frac`, and resolves the perturbation
scale as eta = eta_coefficient * sqrt(k * T) before any selector is
built.

Per-epoch metric CSVs share one schema:

    run_seed,epoch,selection_risk,cum_regret,label_precision,train_acc,test_acc,wall_ms

Fields that do not apply (test accuracy in pure simulations, say) are
written as nan.  wall_ms sits last and is the one column excluded
from the determinism contract; everything before it is byte-identical
across reruns of the same config.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytics import BoundReport, avg_risk_bound, regret_bound
from .datasets import Dataset, LabelNoiseSpec, apply_label_noise, load_csv_dataset, load_idx, make_blobs
from .errors import ConfigError, ParameterError
from .feedback import (
    StreamKind,
    StreamSpec,
    dump_stream_csv,
    generate_stream,
    load_stream_csv,
    stream_epochs,
)
from .mlp import evaluate
from .selection import KSetSelection, RiskVector, SelectorConfig, Strategy
from .tables import write_table
from .training import EpochMetrics, OnlineSelector, TrainConfig, run_epochs, train_selective

__all__ = [
    "METRICS_HEADER",
    "ETA_COEFFICIENT_GRID",
    "VALIDATE_RISK_FRACTIONS",
    "ExperimentConfig",
    "parse_config_file",
    "build_config",
    "resolve_eta",
    "run_simulate",
    "run_train",
    "run_ablate",
    "run_grid_search",
    "run_validate_risk",
    "run_bounds",
]

_METRICS_COLUMNS = ("run_seed", *(f.name for f in dataclasses.fields(EpochMetrics)))
METRICS_HEADER = ",".join(_METRICS_COLUMNS)
ETA_COEFFICIENT_GRID = (1e-4, 5e-4, 1e-3, 5e-3)
VALIDATE_RISK_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
_MODES = ("simulate", "train", "ablate", "grid", "validate-risk", "bounds")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run mode needs; unused fields are ignored by each mode.

    Construction checks every field that does not depend on the data
    (resolve_k checks k against n) and keeps the first of a repeated
    selector.
    """

    mode: str = "train"
    out: str | None = None
    seeds: tuple[int, ...] = (0,)
    selectors: tuple[Strategy, ...] = (Strategy.FPL,)
    # problem size
    n: int = 2000
    k: int | None = None
    k_frac: float | None = None
    epochs: int = 100
    eta_coefficient: float = 1e-3
    # dataset
    dataset: str = "blobs"
    dim: int = 16
    classes: int = 4
    separation: float = 8.0
    data_seed: int = 7
    test_n: int | None = None
    idx_images: str | None = None
    idx_labels: str | None = None
    idx_test_images: str | None = None
    idx_test_labels: str | None = None
    csv_path: str | None = None
    csv_test_path: str | None = None
    # label noise
    noise_kind: str | None = None
    noise_rate: float = 0.0
    # learner
    hidden: int = 256
    lr: float = 0.05
    batch_size: int = 32
    # streams (simulate mode)
    stream: str = "uniform"
    clean_fraction: float = 0.5
    noise_scale: float = 0.1
    drift_period: int = 50
    stream_csv: str | None = None
    dump_stream: str | None = None
    # grid search
    noise_rate_estimate: float | None = None
    validation_fraction: float = 0.2
    # bounds mode
    alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "selectors", tuple(dict.fromkeys(self.selectors)))
        if self.k is not None and self.k_frac is not None:
            raise ConfigError("set only one of k and k_frac")
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; valid: {', '.join(_MODES)}")
        if not self.seeds:
            raise ConfigError("seeds list is empty")
        if min(self.seeds) < 0 or self.data_seed < 0:
            raise ConfigError(f"seeds must be >= 0, got seeds {list(self.seeds)} and data_seed {self.data_seed}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        if not self.selectors:
            raise ConfigError("selector list is empty")
        for name in ("n", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.test_n is not None and self.test_n < 1:
            raise ConfigError(f"test_n must be >= 1, got {self.test_n}")
        if self.dataset not in ("blobs", "idx", "csv"):
            raise ConfigError(f"dataset must be blobs, idx, or csv, got {self.dataset!r}")

    def resolve_k(self, n: int) -> int:
        if self.k is not None:
            if not 1 <= self.k <= n:
                raise ConfigError(f"k={self.k} outside [1, {n}]")
            return self.k
        if self.k_frac is not None:
            if not 0.0 < self.k_frac <= 1.0:
                raise ConfigError(f"k_frac={self.k_frac} outside (0, 1]")
            return min(n, max(1, int(round(self.k_frac * n))))
        raise ConfigError("one of k or k_frac must be set")


def resolve_eta(eta_coefficient: float, k: int, epochs: int) -> float:
    """Perturbation scale eta = eta_coefficient * sqrt(k * T)."""
    if not (np.isfinite(eta_coefficient) and eta_coefficient >= 0.0):
        raise ConfigError(f"eta_coefficient must be finite and >= 0, got {eta_coefficient}")
    return eta_coefficient * float(np.sqrt(k * epochs))


def _parse_int_list(v: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in v.split(",") if p.strip())


def _parse_selectors(v: str) -> tuple[Strategy, ...]:
    names = [p.strip().lower() for p in v.split(",") if p.strip()]
    out = []
    for name in names:
        try:
            out.append(Strategy(name))
        except ValueError:
            valid = ", ".join(s.value for s in Strategy)
            raise ConfigError(f"unknown selector {name!r}; valid: {valid}") from None
    return tuple(out)


def parse_noise(v: str) -> tuple[str, float]:
    """Parse 'sym:0.5' or 'asym:0.4'."""
    parts = v.split(":")
    if len(parts) != 2 or parts[0] not in ("sym", "asym"):
        raise ConfigError(f"noise must look like sym:RATE or asym:RATE, got {v!r}")
    try:
        rate = float(parts[1])
    except ValueError:
        raise ConfigError(f"noise rate {parts[1]!r} is not a number") from None
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"noise rate must lie in [0, 1], got {rate}")
    return parts[0], rate


# One parser per ExperimentConfig field, chosen by its annotation.  The
# noise fields are set together through the `noise` key only.
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _parse_int_list,
    "tuple[Strategy, ...]": _parse_selectors,
}
_KEY_PARSERS = {
    f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")]
    for f in dataclasses.fields(ExperimentConfig)
    if f.name not in ("noise_kind", "noise_rate")
}


def parse_config_file(path) -> dict[str, str]:
    """Flat key = value lines; `#` starts a comment; duplicates rejected."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{line_no}: empty key or value")
        if key in raw:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Parse raw key/value strings into an ExperimentConfig, which checks them."""
    fields: dict[str, object] = {}
    for key, value in raw.items():
        if key == "noise":
            fields["noise_kind"], fields["noise_rate"] = parse_noise(value)
            continue
        parser = _KEY_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            fields[key] = parser(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    return ExperimentConfig(**fields)


def _suffixed(out: str, tag: str) -> str:
    p = Path(out)
    return str(p.with_name(f"{p.stem}_{tag}{p.suffix or '.csv'}"))


def _require_out(cfg: ExperimentConfig) -> str:
    if not cfg.out:
        raise ConfigError(f"mode {cfg.mode!r} needs an output path (out = ... or --out)")
    return cfg.out


def _run_seeds(cfg: ExperimentConfig, out: str, run_seed):
    """Run every selector one seed at a time, then write each selector's metrics CSV.

    run_seed(seed, strategies) builds the seed's inputs, runs every
    strategy on them and returns each one's metrics, seeded by
    (strategy, seed) alone; the inputs die when it returns.  The CSV is
    `out` for one selector, `out_<selector>.csv` for several.  Returns
    ({strategy: [metrics per seed]}, {strategy: path}).
    """
    runs: dict[Strategy, list] = {strategy: [] for strategy in cfg.selectors}
    for seed in cfg.seeds:
        for seed_runs, metrics in zip(runs.values(), run_seed(seed, list(runs))):
            seed_runs.append(metrics)
    paths = {}
    for strategy, seed_runs in runs.items():
        paths[strategy] = out if len(cfg.selectors) == 1 else _suffixed(out, strategy.value)
        rows = ((seed, *dataclasses.astuple(m)) for seed, metrics in zip(cfg.seeds, seed_runs) for m in metrics)
        write_table(paths[strategy], _METRICS_COLUMNS, rows)
    return runs, paths


# ---------------------------------------------------------------- simulate


def _stream_spec(cfg: ExperimentConfig, seed: int) -> StreamSpec:
    try:
        kind = StreamKind(cfg.stream)
    except ValueError:
        raise ConfigError(
            f"unknown stream {cfg.stream!r}; valid: uniform, planted, drifting, adversary, csv"
        ) from None
    n = 2 if kind is StreamKind.ADVERSARY else cfg.n
    return StreamSpec(
        kind=kind,
        n=n,
        epochs=cfg.epochs,
        seed=seed,
        clean_fraction=cfg.clean_fraction,
        noise_scale=cfg.noise_scale,
        drift_period=cfg.drift_period if kind is StreamKind.DRIFTING else None,
    )


def _stream_for_seed(cfg: ExperimentConfig, seed: int) -> Iterator[tuple[RiskVector, np.ndarray | None]]:
    return stream_epochs(_stream_spec(cfg, seed))


@dataclass
class SimulateResult:
    reports: dict[Strategy, BoundReport]
    csv_paths: dict[Strategy, str]


def run_simulate(cfg: ExperimentConfig) -> SimulateResult:
    """Run every selector in lockstep over each seed's stream and report bounds.

    n and T are the stream's: a replayed csv stream sets both and is
    read once for every seed; a generated stream is built one epoch at
    a time, so one seed holds at most two of its risk vectors at once.
    """
    out = _require_out(cfg)
    if cfg.stream == "csv":
        if not cfg.stream_csv:
            raise ConfigError("stream = csv needs stream_csv = PATH")
        replay = load_stream_csv(cfg.stream_csv)
        n, epochs = replay.n, replay.epochs
    else:
        replay = None
        spec = _stream_spec(cfg, cfg.seeds[0])  # checks the stream parameters before k
        n, epochs = spec.n, spec.epochs
    k = cfg.resolve_k(n)
    eta = resolve_eta(cfg.eta_coefficient, k, epochs)
    if cfg.dump_stream:
        dump_stream_csv(generate_stream(spec) if replay is None else replay, cfg.dump_stream)
    try:
        ceiling = regret_bound(n, k, epochs)
    except ParameterError:
        ceiling = float("nan")  # k = n: guarantee void

    best_totals: list[float] = []  # per seed; every selector on a seed's stream shares it

    def run_seed(seed: int, strategies: list[Strategy]) -> list[list[EpochMetrics]]:
        stream = _stream_for_seed(cfg, seed) if replay is None else ((theta, None) for theta in replay.risks)
        selectors = [OnlineSelector(SelectorConfig(strategy=s, k=k, eta=eta, seed=seed), n) for s in strategies]
        nan = float("nan")

        def feedback(epoch: int, picks: list[KSetSelection]):
            theta, mask = next(stream)
            return theta, mask, nan, nan

        metrics, seen = run_epochs(selectors, None, epochs, feedback)
        best_totals.append(seen.best_total)
        return metrics

    runs, paths = _run_seeds(cfg, out, run_seed)
    alpha = float(np.mean([total / (k * epochs) for total in best_totals]))
    try:
        risk_ceiling = avg_risk_bound(n, k, epochs, alpha)
    except ParameterError:
        alpha, risk_ceiling = None, None
    reports: dict[Strategy, BoundReport] = {}
    for strategy, metrics_by_seed in runs.items():
        reports[strategy] = BoundReport(
            n=n,
            k=k,
            epochs=epochs,
            empirical_regret=float(np.mean([metrics[-1].cum_regret for metrics in metrics_by_seed])),
            empirical_avg_risk=float(
                np.mean([sum(m.selection_risk for m in metrics) / epochs for metrics in metrics_by_seed])
            ),
            regret_ceiling=ceiling,
            alpha=alpha,
            avg_risk_ceiling=risk_ceiling,
        )
    return SimulateResult(reports=reports, csv_paths=paths)


# ------------------------------------------------------------------- train


def _load_base_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset | None]:
    """Training features plus an optional clean test set, before any noise."""
    if cfg.dataset == "blobs":
        test_n = cfg.test_n if cfg.test_n is not None else max(1, cfg.n // 4)
        full = make_blobs(cfg.n + test_n, cfg.dim, cfg.classes, cfg.separation, cfg.data_seed)
        idx_train = np.arange(cfg.n)
        idx_test = np.arange(cfg.n, cfg.n + test_n)
        return full.subset(idx_train), full.subset(idx_test)
    if cfg.dataset == "idx":
        if not cfg.idx_images or not cfg.idx_labels:
            raise ConfigError("dataset = idx needs idx_images and idx_labels paths")
        train = load_idx(cfg.idx_images, cfg.idx_labels)
        test = None
        if cfg.idx_test_images and cfg.idx_test_labels:
            test = load_idx(cfg.idx_test_images, cfg.idx_test_labels)
    else:
        if not cfg.csv_path:
            raise ConfigError("dataset = csv needs csv_path")
        train = load_csv_dataset(cfg.csv_path)
        test = load_csv_dataset(cfg.csv_test_path) if cfg.csv_test_path else None
    # Each file counts its own classes; a test file may lack the top training class.
    if test is not None and test.num_classes != train.num_classes:
        classes = max(train.num_classes, test.num_classes)
        train = dataclasses.replace(train, num_classes=classes)
        test = dataclasses.replace(test, num_classes=classes)
    return train, test


def _noisy_copy(train: Dataset, cfg: ExperimentConfig, seed: int) -> Dataset:
    if cfg.noise_kind is None or cfg.noise_rate == 0.0:
        return train
    return apply_label_noise(train, LabelNoiseSpec(kind=cfg.noise_kind, rate=cfg.noise_rate, seed=seed))


def _train_cfg(cfg: ExperimentConfig, strategy: Strategy, k: int, eta: float, seed: int) -> TrainConfig:
    return TrainConfig(
        strategy=strategy,
        k=k,
        epochs=cfg.epochs,
        eta=eta,
        hidden=cfg.hidden,
        lr=cfg.lr,
        batch_size=cfg.batch_size,
        seed=seed,
    )


def _train_seeds(cfg: ExperimentConfig, out: str):
    """Train every selector per seed; returns ({strategy: [last-10 (test acc, precision) per seed]}, paths)."""
    train_base, test_set = _load_base_datasets(cfg)
    k = cfg.resolve_k(train_base.n)
    eta = resolve_eta(cfg.eta_coefficient, k, cfg.epochs)

    def run_seed(seed: int, strategies: list[Strategy]) -> list[list[EpochMetrics]]:
        noisy = _noisy_copy(train_base, cfg, seed)
        return [train_selective(noisy, test_set, _train_cfg(cfg, s, k, eta, seed)).metrics for s in strategies]

    runs, paths = _run_seeds(cfg, out, run_seed)
    return {strategy: [_last10(metrics) for metrics in seed_runs] for strategy, seed_runs in runs.items()}, paths


def _last10(metrics: list[EpochMetrics]) -> tuple[float, float]:
    last = metrics[-10:]
    return float(np.mean([m.test_acc for m in last])), float(np.mean([m.label_precision for m in last]))


@dataclass
class TrainModeResult:
    csv_path: str
    summary_path: str
    summary: dict[int, tuple[float, float]]  # seed -> (last10 test acc, last10 precision)
    mean_test_acc: float
    mean_precision: float


def run_train(cfg: ExperimentConfig) -> TrainModeResult:
    """Train the chosen selector across seeds; write metrics and a summary."""
    out = _require_out(cfg)
    if len(cfg.selectors) != 1:
        raise ConfigError("train mode takes exactly one selector")
    last10, _ = _train_seeds(cfg, out)
    summary = dict(zip(cfg.seeds, last10[cfg.selectors[0]]))
    summary_path = _suffixed(out, "summary")
    summary_rows = ((seed, acc, prec) for seed, (acc, prec) in sorted(summary.items()))
    write_table(summary_path, ("run_seed", "last10_test_acc", "last10_label_precision"), summary_rows)
    return TrainModeResult(
        csv_path=out,
        summary_path=summary_path,
        summary=summary,
        mean_test_acc=float(np.mean([a for a, _ in summary.values()])),
        mean_precision=float(np.mean([p for _, p in summary.values()])),
    )


# ------------------------------------------------------------------ ablate


@dataclass
class AblateResult:
    csv_path: str
    metric_paths: dict[Strategy, str]
    mean_test_acc: dict[Strategy, float]
    mean_precision: dict[Strategy, float]
    best: Strategy
    fpl_wins: bool | None


def run_ablate(cfg: ExperimentConfig) -> AblateResult:
    """Train every listed selector on identically corrupted data."""
    out = _require_out(cfg)
    if len(cfg.selectors) < 2:
        raise ConfigError("ablate mode needs at least two selectors")
    last10, metric_paths = _train_seeds(cfg, out)
    mean_acc = {s: float(np.mean([acc for acc, _ in last10[s]])) for s in cfg.selectors}
    mean_prec = {s: float(np.mean([prec for _, prec in last10[s]])) for s in cfg.selectors}

    best = max(cfg.selectors, key=lambda s: mean_acc[s])
    others = [s for s in cfg.selectors if s is not Strategy.FPL]
    fpl_wins = None
    if Strategy.FPL in cfg.selectors and others:
        fpl_wins = all(mean_acc[Strategy.FPL] >= mean_acc[s] for s in others)
    header = ("selector", "mean_last10_test_acc", "mean_last10_label_precision", "is_best")
    write_table(out, header, ((s.value, mean_acc[s], mean_prec[s], int(s is best)) for s in cfg.selectors))
    return AblateResult(
        csv_path=out,
        metric_paths=metric_paths,
        mean_test_acc=mean_acc,
        mean_precision=mean_prec,
        best=best,
        fpl_wins=fpl_wins,
    )


# -------------------------------------------------------------- grid search


def k_fraction_grid(noise_rate_estimate: float) -> list[float]:
    """Seven fractions centered on (1 - noise rate), step 0.05."""
    if not 0.0 <= noise_rate_estimate <= 1.0:
        raise ConfigError(f"noise_rate_estimate must lie in [0, 1], got {noise_rate_estimate}")
    center = 1.0 - noise_rate_estimate
    return [round(center + step * 0.05, 10) for step in range(-3, 4)]


def stratified_split(labels: np.ndarray, validation_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class split; returns (train_idx, val_idx), both sorted."""
    if not 0.0 < validation_fraction < 1.0:
        raise ConfigError(f"validation_fraction must lie in (0, 1), got {validation_fraction}")
    rng = np.random.default_rng(seed)
    train_parts, val_parts = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.shape[0])]
        n_val = int(round(validation_fraction * members.shape[0]))
        n_val = min(members.shape[0] - 1, max(1, n_val)) if members.shape[0] > 1 else 0
        val_parts.append(members[:n_val])
        train_parts.append(members[n_val:])
    train_idx = np.sort(np.concatenate(train_parts))
    val_idx = np.sort(np.concatenate(val_parts)) if val_parts else np.array([], dtype=np.int64)
    return train_idx, val_idx


@dataclass
class GridResult:
    csv_path: str
    best_eta_coefficient: float
    best_k_frac: float
    best_k: int
    best_val_acc: float
    rows: list[tuple[float, float, int, float]]


def run_grid_search(cfg: ExperimentConfig) -> GridResult:
    """Tune eta_coefficient and k on a noisy validation split.

    The noisy training set is split stratified by assigned label; each
    grid point trains the FPL selector on the large part and scores
    accuracy against the held-out noisy labels.  Largest validation
    accuracy wins, first in scan order on ties.
    """
    out = _require_out(cfg)
    if cfg.noise_rate_estimate is None:
        raise ConfigError("grid mode needs noise_rate_estimate")
    fractions = k_fraction_grid(cfg.noise_rate_estimate)
    seed = cfg.seeds[0]
    train_base, _ = _load_base_datasets(cfg)
    noisy = _noisy_copy(train_base, cfg, seed)
    train_idx, val_idx = stratified_split(noisy.assigned_labels, cfg.validation_fraction, seed)
    fit_set = noisy.subset(train_idx)
    val_set = noisy.subset(val_idx)

    rows: list[tuple[float, float, int, float]] = []
    clamped = False
    for coef in ETA_COEFFICIENT_GRID:
        for frac in fractions:
            k = int(round(frac * fit_set.n))
            if k < 1 or k > fit_set.n:
                clamped = True
                k = min(fit_set.n, max(1, k))
            eta = resolve_eta(coef, k, cfg.epochs)
            result = train_selective(fit_set, None, _train_cfg(cfg, Strategy.FPL, k, eta, seed))
            val_acc = evaluate(result.model, val_set.samples, val_set.assigned_labels).accuracy
            rows.append((coef, frac, k, val_acc))
    if clamped:
        warnings.warn("k grid clamped to [1, n]; the fraction grid exceeded the valid range", UserWarning)
    write_table(out, ("eta_coefficient", "k_frac", "k", "val_acc"), rows)
    best = max(rows, key=lambda row: row[3])
    return GridResult(
        csv_path=out,
        best_eta_coefficient=best[0],
        best_k_frac=best[1],
        best_k=best[2],
        best_val_acc=best[3],
        rows=rows,
    )


# ----------------------------------------------------------- validate-risk


@dataclass
class ValidateRiskResult:
    csv_path: str
    total_risk: dict[float, float]  # clean fraction -> mean final cumulative risk
    strictly_decreasing: bool


def run_validate_risk(cfg: ExperimentConfig) -> ValidateRiskResult:
    """Train on fixed selections of known label precision.

    For each clean fraction f, the fixed k-set holds round(f * k)
    clean samples and the rest noisy, drawn seeded.  train_selective
    runs on just those k rows, so every pick is the whole set, the
    model trains only on it, and each epoch's selection risk is the
    set's total risk; more noise in the set should mean more total
    risk.  Runs are seeded like train's.
    """
    out = _require_out(cfg)
    train_base, _ = _load_base_datasets(cfg)
    k = cfg.resolve_k(train_base.n)

    rows: list[tuple] = []
    totals: dict[float, list[float]] = {f: [] for f in VALIDATE_RISK_FRACTIONS}
    for seed in cfg.seeds:
        noisy = _noisy_copy(train_base, cfg, seed)
        clean_idx = np.flatnonzero(noisy.clean_mask)
        noisy_idx = np.flatnonzero(~noisy.clean_mask)
        for frac in VALIDATE_RISK_FRACTIONS:
            n_clean = int(round(frac * k))
            n_noisy = k - n_clean
            if n_clean > clean_idx.shape[0] or n_noisy > noisy_idx.shape[0]:
                raise ConfigError(
                    f"cannot build a k={k} selection with clean fraction {frac}: "
                    f"{clean_idx.shape[0]} clean and {noisy_idx.shape[0]} noisy samples available"
                )
            rng = np.random.default_rng(np.random.SeedSequence((seed, int(round(frac * 100)))))
            clean = rng.choice(clean_idx, size=n_clean, replace=False)
            fixed = np.sort(np.concatenate([clean, rng.choice(noisy_idx, size=n_noisy, replace=False)]))
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "k = n selects every sample", UserWarning)
                run = train_selective(noisy.subset(fixed), None, _train_cfg(cfg, Strategy.NAIVE, k, 0.0, seed))
            cum_risk = 0.0
            for m in run.metrics:
                cum_risk += m.selection_risk
                rows.append((frac, seed, m.epoch, m.selection_risk, cum_risk))
            totals[frac].append(cum_risk)

    write_table(out, ("clean_fraction", "run_seed", "epoch", "selection_risk", "cum_selection_risk"), rows)
    means = {f: float(np.mean(v)) for f, v in totals.items()}
    ordered = [means[f] for f in VALIDATE_RISK_FRACTIONS]
    decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    return ValidateRiskResult(csv_path=out, total_risk=means, strictly_decreasing=decreasing)


# ------------------------------------------------------------------ bounds


@dataclass
class BoundsResult:
    lines: list[str]


def run_bounds(cfg: ExperimentConfig) -> BoundsResult:
    """Print closed-form ceilings for (n, k, T) and optional alpha."""
    k = cfg.resolve_k(cfg.n)
    lines = [f"n={cfg.n} k={k} T={cfg.epochs}"]
    if k == cfg.n:
        lines.append("regret ceiling: undefined for k = n (guarantee needs k <= n - 1)")
    else:
        lines.append(f"regret ceiling (eta = sqrt(kT)): {regret_bound(cfg.n, k, cfg.epochs):.10g}")
    lines.append(f"trivial risk ceiling k*T: {float(k * cfg.epochs):.10g}")
    if cfg.alpha is not None:
        if k == cfg.n:
            lines.append("avg-risk ceiling: undefined for k = n")
        else:
            try:
                lines.append(
                    f"avg-risk ceiling (alpha={cfg.alpha:.10g}): "
                    f"{avg_risk_bound(cfg.n, k, cfg.epochs, cfg.alpha):.10g}"
                )
            except ParameterError as exc:
                raise ConfigError(str(exc)) from exc
    return BoundsResult(lines=lines)

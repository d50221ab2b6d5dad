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
import numbers
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ahead import ReadAhead, fork_map
from .analytics import BoundReport
from .datasets import Dataset, LabelNoiseSpec, apply_label_noise, load_csv_dataset, load_idx, make_blobs
from .errors import ConfigError, DataError, ParameterError
from .feedback import (
    StreamKind,
    StreamSpec,
    dump_stream_csv,
    load_stream_csv,
    stream_epochs,
)
from .mlp import LearnerSpec, evaluate
from .selection import SelectorConfig, Strategy
from .tables import write_table
from .training import EpochMetrics, run_epochs, train_selective

__all__ = [
    "METRICS_HEADER",
    "ETA_COEFFICIENT_GRID",
    "MODES",
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
# The run modes, each with its one-line help; the CLI offers one subcommand per entry.
MODES = {
    "simulate": "run selectors over a synthetic risk stream",
    "train": "train one selector on a dataset with label noise",
    "ablate": "compare selectors on identically corrupted data",
    "grid": "tune eta_coefficient and k on a noisy validation split",
    "validate-risk": "train on fixed selections of known precision",
    "bounds": "print closed-form regret and risk ceilings",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run mode needs; unused fields are ignored by each mode.

    Construction is the one place a config is checked; its checks raise
    ConfigError.  Every field must have its declared type (string and
    path fields a str; an int passes as a float, a bool never), a tuple
    field takes any sequence but a str and is stored as a tuple, and
    every value but k (resolve_k checks it against n), separation's
    upper limit (make_blobs checks it against dim) and the stream
    settings is checked in every mode.  StreamSpec checks the stream
    settings its kind uses: clean_fraction and noise_scale for every
    generated stream, drift_period for a drifting one, none for csv.
    Each selector name becomes its Strategy, any case; a repeated
    selector counts once.  learner is the LearnerSpec every run is
    handed, and stream_spec the first seed's StreamSpec (None for a csv
    stream), both with their defaults.
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
    # label noise; each run replaces its seed with the run seed
    noise: LabelNoiseSpec | None = None
    # learner
    hidden: int = LearnerSpec.hidden
    lr: float = LearnerSpec.lr
    batch_size: int = LearnerSpec.batch_size
    # streams (simulate mode; StreamSpec checks what its kind uses, in every mode)
    stream: str = "uniform"
    clean_fraction: float = StreamSpec.clean_fraction
    noise_scale: float = StreamSpec.noise_scale
    drift_period: int = 50
    stream_csv: str | None = None
    dump_stream: str | None = None
    # grid search
    noise_rate_estimate: float | None = None
    validation_fraction: float = 0.2
    # bounds mode
    alpha: float | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):
            declared, value = f.type.removesuffix(" | None"), getattr(self, f.name)
            if declared.startswith("tuple["):  # never None
                if isinstance(value, str) or not isinstance(value, Sequence) or not all(_fits(v, declared) for v in value):
                    raise ConfigError(f"{f.name} must be a sequence of {declared[6:-6]}, got {value!r}")
                object.__setattr__(self, f.name, tuple(value))
            elif value is not None and not _fits(value, declared):
                raise ConfigError(f"{f.name} must be of type {declared}, got {value!r}")
        valid = [s.value for s in Strategy]
        names = [s.lower() for s in self.selectors]  # members too: Strategy is a str
        for name in names:
            if name not in valid:
                raise ConfigError(f"unknown selector {name!r}; valid: {', '.join(valid)}")
        object.__setattr__(self, "selectors", tuple(dict.fromkeys(map(Strategy, names))))
        if self.k is not None and self.k_frac is not None:
            raise ConfigError("set only one of k and k_frac")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; valid: {', '.join(MODES)}")
        if not self.seeds:
            raise ConfigError("seeds list is empty")
        if min(self.seeds) < 0 or self.data_seed < 0:
            raise ConfigError(f"seeds must be >= 0, got seeds {list(self.seeds)} and data_seed {self.data_seed}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        if not self.selectors:
            raise ConfigError("selector list is empty")
        for name in ("n", "k", "epochs", "test_n", "dim", "classes"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.separation) and self.separation > 0.0):
            raise ConfigError(f"separation must be finite and > 0, got {self.separation}")
        if self.dataset not in ("blobs", "idx", "csv"):
            raise ConfigError(f"dataset must be blobs, idx, or csv, got {self.dataset!r}")
        if (self.idx_test_images is None) != (self.idx_test_labels is None):
            raise ConfigError("set both idx_test_images and idx_test_labels, or neither")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(f"validation_fraction must lie in (0, 1), got {self.validation_fraction}")
        resolve_eta(self.eta_coefficient, 0, 0)  # checks eta_coefficient
        for name in ("k_frac", "alpha"):
            if getattr(self, name) is not None and not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        if self.noise_rate_estimate is not None:
            k_fraction_grid(self.noise_rate_estimate)  # checks noise_rate_estimate
        streams = [*(member.value for member in StreamKind), "csv"]
        if self.stream not in streams:
            raise ConfigError(f"unknown stream {self.stream!r}; valid: {', '.join(streams)}")
        if self.stream == "csv" and not self.stream_csv:
            raise ConfigError("stream = csv needs stream_csv = PATH")
        if self.dataset == "idx" and not (self.idx_images and self.idx_labels):
            raise ConfigError("dataset = idx needs idx_images and idx_labels paths")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigError("dataset = csv needs csv_path")
        kind = None if self.stream == "csv" else StreamKind(self.stream)
        try:
            object.__setattr__(self, "learner", LearnerSpec(hidden=self.hidden, lr=self.lr, batch_size=self.batch_size))
            object.__setattr__(self, "stream_spec", None if kind is None else StreamSpec(
                kind, 2 if kind is StreamKind.ADVERSARY else self.n, self.epochs, seed=self.seeds[0],
                clean_fraction=self.clean_fraction, noise_scale=self.noise_scale,
                drift_period=self.drift_period if kind is StreamKind.DRIFTING else None,
            ))
        except ParameterError as exc:
            raise ConfigError(str(exc)) from None

    def resolve_k(self, n: int) -> int:
        if self.k is not None:
            if not 1 <= self.k <= n:
                raise ConfigError(f"k={self.k} outside [1, {n}]")
            return self.k
        if self.k_frac is not None:
            return min(n, max(1, int(round(self.k_frac * n))))
        raise ConfigError("one of k or k_frac must be set")


def resolve_eta(eta_coefficient: float, k: int, epochs: int) -> float:
    """Perturbation scale eta = eta_coefficient * sqrt(k * T)."""
    if not (np.isfinite(eta_coefficient) and eta_coefficient >= 0.0):
        raise ConfigError(f"eta_coefficient must be finite and >= 0, got {eta_coefficient}")
    return eta_coefficient * float(np.sqrt(k * epochs))


def _split(v: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in v.split(",") if p.strip())


def parse_noise(v: str) -> LabelNoiseSpec:
    """Parse 'sym:0.5' or 'asym:0.4'; LabelNoiseSpec checks both, and each run replaces its seed."""
    kind, sep, rate = v.partition(":")
    if not sep:
        raise ConfigError(f"noise must look like KIND:RATE, got {v!r}")
    return LabelNoiseSpec(kind=kind, rate=float(rate))


# One row per ExperimentConfig annotation: the type a value, or each entry
# of a tuple, must have (an int passes as a float), and the parser for its
# text in a file or flag.
_FIELD_TYPES = {
    "int": (numbers.Integral, int),
    "float": (numbers.Real, float),
    "str": (str, str),
    "tuple[int, ...]": (numbers.Integral, lambda v: tuple(map(int, _split(v)))),
    "tuple[Strategy, ...]": (str, _split),  # ExperimentConfig turns the names into Strategy members
    "LabelNoiseSpec": (LabelNoiseSpec, parse_noise),
}
_KEY_PARSERS = {
    f.name: _FIELD_TYPES[f.type.removesuffix(" | None")][1]
    for f in dataclasses.fields(ExperimentConfig)
}


def _fits(value, declared: str) -> bool:
    return isinstance(value, _FIELD_TYPES[declared][0]) and not isinstance(value, bool)  # no field takes a bool


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
        parser = _KEY_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            fields[key] = parser(value)
        except ValueError as exc:  # ConfigError and ParameterError included
            raise ConfigError(f"config key {key!r}: {exc}") from None
    return ExperimentConfig(**fields)


def _suffixed(out: str, tag: str) -> str:
    p = Path(out)
    return str(p.with_name(f"{p.stem}_{tag}{p.suffix or '.csv'}"))


def _require_out(cfg: ExperimentConfig, *also: str) -> str:
    """cfg.out, once its directory and those of the path keys in also that are set are known to exist."""
    if not cfg.out:
        raise ConfigError(f"mode {cfg.mode!r} needs an output path (out = ... or --out)")
    for key in ("out", *also):
        path = getattr(cfg, key)
        if path and not Path(path).parent.is_dir():
            raise ConfigError(f"{key} = {path}: directory {Path(path).parent} does not exist")
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


@dataclass
class SimulateResult:
    reports: dict[Strategy, BoundReport]
    csv_paths: dict[Strategy, str]

    def lines(self) -> list[str]:
        out = []
        for strategy, report in self.reports.items():
            out += [f"[{strategy.value}]", *("  " + line for line in report.lines())]
            out.append(f"  metrics: {self.csv_paths[strategy]}")
        return out


def run_simulate(cfg: ExperimentConfig) -> SimulateResult:
    """Run every selector in lockstep over each seed's stream and report bounds.

    source(seed) yields a seed's (theta_t, clean mask or None) pairs:
    a replayed csv stream, read once for every seed, or cfg.stream_spec
    as checked when the config was built, with the run seed as its
    seed, built one epoch at a time.  n and T are the stream's.  Each
    seed's source is read one epoch ahead on a worker thread, so
    theta_{t+1} is drawn while the selectors use theta_t, and a
    generated stream holds at most these two at once.  dump_stream
    writes the first seed's source one row per epoch as it is drawn,
    never holding the whole stream; its directory must exist, like
    out's, and both are checked first.
    Each selector's report is one BoundReport for (n, k, T) and the
    mean over seeds of best_total / (kT) as alpha: the lines `bounds`
    prints for those values, then that selector's mean regret and
    average risk.
    """
    out = _require_out(cfg, "dump_stream")
    if cfg.stream_spec is None:
        replay = load_stream_csv(cfg.stream_csv)
        n, epochs, source = replay[0].n, len(replay), lambda seed: ((theta, None) for theta in replay)
    else:
        n, epochs = cfg.stream_spec.n, cfg.stream_spec.epochs
        source = lambda seed: stream_epochs(dataclasses.replace(cfg.stream_spec, seed=seed))
    k = cfg.resolve_k(n)
    eta = resolve_eta(cfg.eta_coefficient, k, epochs)
    if cfg.dump_stream:
        dump_stream_csv((theta for theta, _ in source(cfg.seeds[0])), cfg.dump_stream)

    best_totals: list[float] = []  # per seed; every selector on a seed's stream shares it

    def run_seed(seed: int, strategies: list[Strategy]) -> list[list[EpochMetrics]]:
        with ReadAhead(source(seed)) as stream:
            feedback = lambda epoch, picks: (*next(stream), float("nan"), float("nan"))
            metrics, seen = run_epochs(strategies, SelectorConfig(k=k, eta=eta, seed=seed), n, epochs, feedback)
        best_totals.append(seen.best_total)
        return metrics

    runs, paths = _run_seeds(cfg, out, run_seed)
    report = BoundReport.ceilings(n, k, epochs, float(np.mean([total / (k * epochs) for total in best_totals])))
    reports = {
        strategy: dataclasses.replace(
            report,
            empirical_regret=float(np.mean([metrics[-1].cum_regret for metrics in metrics_by_seed])),
            empirical_avg_risk=float(
                np.mean([sum(m.selection_risk for m in metrics) / epochs for metrics in metrics_by_seed])
            ),
        )
        for strategy, metrics_by_seed in runs.items()
    }
    return SimulateResult(reports=reports, csv_paths=paths)


# ------------------------------------------------------------------- train


def _load_base_datasets(cfg: ExperimentConfig, with_test: bool = True) -> tuple[Dataset, Dataset | None]:
    """Training features plus an optional clean test set, before any noise.

    with_test=False reads no test file and returns None for the test
    set.  Blobs draw both splits from one generation, so their training
    rows are the same either way.
    """
    if cfg.dataset == "blobs":
        test_n = cfg.test_n if cfg.test_n is not None else max(1, cfg.n // 4)
        full = make_blobs(cfg.n + test_n, cfg.dim, cfg.classes, cfg.separation, cfg.data_seed)
        test = full.subset(np.arange(cfg.n, cfg.n + test_n)) if with_test else None
        return full.subset(np.arange(cfg.n)), test
    if cfg.dataset == "idx":
        train = load_idx(cfg.idx_images, cfg.idx_labels)
        test = None
        if with_test and cfg.idx_test_images:
            test = load_idx(cfg.idx_test_images, cfg.idx_test_labels)
    else:
        train = load_csv_dataset(cfg.csv_path)
        test = load_csv_dataset(cfg.csv_test_path) if with_test and cfg.csv_test_path else None
    # Each file counts its own classes; a test file may lack the top training class.
    if test is not None and test.num_classes != train.num_classes:
        classes = max(train.num_classes, test.num_classes)
        train = dataclasses.replace(train, num_classes=classes)
        test = dataclasses.replace(test, num_classes=classes)
    return train, test


def _noisy_copy(train: Dataset, cfg: ExperimentConfig, seed: int) -> Dataset:
    if cfg.noise is None or cfg.noise.rate == 0.0:
        return train
    return apply_label_noise(train, dataclasses.replace(cfg.noise, seed=seed))


def _train_seeds(cfg: ExperimentConfig, out: str) -> dict[Strategy, list[tuple[float, float]]]:
    """Train every selector per seed; returns {strategy: [last-10 (test acc, precision) per seed]}.

    A seed's selectors train on its one noisy copy, side by side in
    forked children where ahead.fork_map can fork.
    """
    train_base, test_set = _load_base_datasets(cfg)
    k = cfg.resolve_k(train_base.n)
    eta = resolve_eta(cfg.eta_coefficient, k, cfg.epochs)

    def run_seed(seed: int, strategies: list[Strategy]) -> list[list[EpochMetrics]]:
        noisy = _noisy_copy(train_base, cfg, seed)
        selector = SelectorConfig(k=k, eta=eta, seed=seed)

        def run(strategy: Strategy) -> list[EpochMetrics]:
            return train_selective(noisy, test_set, strategy, cfg.epochs, selector, cfg.learner)[1]

        return fork_map(run, strategies)

    runs, _ = _run_seeds(cfg, out, run_seed)
    return {strategy: [_last10(metrics) for metrics in seed_runs] for strategy, seed_runs in runs.items()}


def _last10(metrics: list[EpochMetrics]) -> tuple[float, float]:
    last = metrics[-10:]
    return float(np.mean([m.test_acc for m in last])), float(np.mean([m.label_precision for m in last]))


@dataclass
class TrainModeResult:
    csv_path: str
    summary_path: str
    mean_test_acc: float
    mean_precision: float

    def lines(self) -> list[str]:
        return [
            f"metrics: {self.csv_path}",
            f"summary: {self.summary_path}",
            f"mean last-10 test accuracy:    {self.mean_test_acc:.6g}",
            f"mean last-10 label precision:  {self.mean_precision:.6g}",
        ]


def run_train(cfg: ExperimentConfig) -> TrainModeResult:
    """Train the chosen selector across seeds; write metrics and a summary."""
    out = _require_out(cfg)
    if len(cfg.selectors) != 1:
        raise ConfigError("train mode takes exactly one selector")
    summary = dict(zip(cfg.seeds, _train_seeds(cfg, out)[cfg.selectors[0]]))
    summary_path = _suffixed(out, "summary")
    summary_rows = ((seed, acc, prec) for seed, (acc, prec) in sorted(summary.items()))
    write_table(summary_path, ("run_seed", "last10_test_acc", "last10_label_precision"), summary_rows)
    return TrainModeResult(
        csv_path=out,
        summary_path=summary_path,
        mean_test_acc=float(np.mean([a for a, _ in summary.values()])),
        mean_precision=float(np.mean([p for _, p in summary.values()])),
    )


# ------------------------------------------------------------------ ablate


@dataclass
class AblateResult:
    csv_path: str
    mean_test_acc: dict[Strategy, float]  # in selector order
    mean_precision: dict[Strategy, float]
    best: Strategy
    fpl_wins: bool | None

    def lines(self) -> list[str]:
        out = [
            f"{s.value}: acc={acc:.6g} precision={self.mean_precision[s]:.6g}{' (best)' if s is self.best else ''}"
            for s, acc in self.mean_test_acc.items()
        ]
        if self.fpl_wins is not None:
            out.append(f"fpl beats all others: {'yes' if self.fpl_wins else 'no'}")
        return out + [f"comparison: {self.csv_path}"]


def run_ablate(cfg: ExperimentConfig) -> AblateResult:
    """Train every listed selector on identically corrupted data."""
    out = _require_out(cfg)
    if len(cfg.selectors) < 2:
        raise ConfigError("ablate mode needs at least two selectors")
    last10 = _train_seeds(cfg, out)
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

    def lines(self) -> list[str]:
        return [
            f"best: eta_coefficient={self.best_eta_coefficient:g} k_frac={self.best_k_frac:g} "
            f"k={self.best_k} val_acc={self.best_val_acc:.6g}",
            f"grid: {self.csv_path}",
        ]


def run_grid_search(cfg: ExperimentConfig) -> GridResult:
    """Tune eta_coefficient and k on a noisy validation split.

    Only the first seed runs; the other seeds are ignored.  Its noisy
    training set is split stratified by assigned label; each grid point
    trains the FPL selector on the large part and scores accuracy
    against the held-out noisy labels, the points side by side through
    ahead.fork_map.  Largest validation accuracy wins, first in scan
    order on ties.  A split with no validation row is a DataError.
    """
    out = _require_out(cfg)
    if cfg.noise_rate_estimate is None:
        raise ConfigError("grid mode needs noise_rate_estimate")
    fractions = k_fraction_grid(cfg.noise_rate_estimate)
    seed = cfg.seeds[0]
    train_base, _ = _load_base_datasets(cfg, with_test=False)
    noisy = _noisy_copy(train_base, cfg, seed)
    train_idx, val_idx = stratified_split(noisy.assigned_labels, cfg.validation_fraction, seed)
    if val_idx.size == 0:  # every assigned class has one row, and a class of one keeps it for training
        classes = np.unique(noisy.assigned_labels).size
        raise DataError(f"grid's validation split is empty: {train_idx.size} training rows in {classes} classes, one each")
    fit_set = noisy.subset(train_idx)
    val_set = noisy.subset(val_idx)

    ks = [int(round(frac * fit_set.n)) for frac in fractions]
    clamped = not all(1 <= k <= fit_set.n for k in ks)
    ks = [min(fit_set.n, max(1, k)) for k in ks]
    points = [(coef, frac, k) for coef in ETA_COEFFICIENT_GRID for frac, k in zip(fractions, ks)]

    def val_acc(point: tuple[float, float, int]) -> float:
        coef, _, k = point
        selector = SelectorConfig(k=k, eta=resolve_eta(coef, k, cfg.epochs), seed=seed)
        model, _ = train_selective(fit_set, None, Strategy.FPL, cfg.epochs, selector, cfg.learner)
        return evaluate(model, val_set.features, val_set.assigned_labels).accuracy

    rows = [(*point, acc) for point, acc in zip(points, fork_map(val_acc, points))]
    if clamped:
        warnings.warn("k grid clamped to [1, n]; the fraction grid exceeded the valid range", UserWarning)
    write_table(out, ("eta_coefficient", "k_frac", "k", "val_acc"), rows)
    best = max(rows, key=lambda row: row[3])
    return GridResult(out, *best, rows)


# ----------------------------------------------------------- validate-risk


@dataclass
class ValidateRiskResult:
    csv_path: str
    total_risk: dict[float, float]  # clean fraction -> mean final cumulative risk
    strictly_decreasing: bool

    def lines(self) -> list[str]:
        out = [f"clean fraction {f:.0%}: total selected risk {self.total_risk[f]:.6g}" for f in sorted(self.total_risk)]
        out.append(f"strictly decreasing in clean fraction: {'yes' if self.strictly_decreasing else 'no'}")
        return out + [f"curves: {self.csv_path}"]


def run_validate_risk(cfg: ExperimentConfig) -> ValidateRiskResult:
    """Train on fixed selections of known label precision.

    For each clean fraction f, the fixed k-set holds round(f * k)
    clean samples and the rest noisy, drawn seeded.  train_selective
    runs on just those k rows, so every pick is the whole set, the
    model trains only on it, and each epoch's selection risk is the
    set's total risk; more noise in the set should mean more total
    risk.  Runs are seeded like train's.  A seed's fractions run through
    ahead.fork_map, so only one seed's noisy copy is ever alive.
    """
    out = _require_out(cfg)
    train_base, _ = _load_base_datasets(cfg, with_test=False)
    k = cfg.resolve_k(train_base.n)

    rows: list[tuple] = []
    totals: dict[float, list[float]] = {f: [] for f in VALIDATE_RISK_FRACTIONS}
    for seed in cfg.seeds:
        noisy = _noisy_copy(train_base, cfg, seed)
        clean_idx = np.flatnonzero(noisy.clean_mask)
        noisy_idx = np.flatnonzero(~noisy.clean_mask)
        selector = SelectorConfig(k=k, seed=seed)

        def risks(frac: float) -> list[float]:
            n_clean = int(round(frac * k))
            n_noisy = k - n_clean
            if n_clean > clean_idx.shape[0] or n_noisy > noisy_idx.shape[0]:
                raise ConfigError(
                    f"cannot build a k={k} selection with clean fraction {frac}: "
                    f"{clean_idx.shape[0]} clean and {noisy_idx.shape[0]} noisy samples available"
                )
            rng = np.random.default_rng(np.random.SeedSequence((seed, int(round(frac * 100)))))
            clean = rng.choice(clean_idx, size=n_clean, replace=False)
            fixed = noisy.subset(np.sort(np.concatenate([clean, rng.choice(noisy_idx, size=n_noisy, replace=False)])))
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "k = n selects every sample", UserWarning)
                _, metrics = train_selective(fixed, None, Strategy.NAIVE, cfg.epochs, selector, cfg.learner)
            return [m.selection_risk for m in metrics]

        for frac, fixed_risks in zip(VALIDATE_RISK_FRACTIONS, fork_map(risks, VALIDATE_RISK_FRACTIONS)):
            cum_risk = 0.0
            for epoch, risk in enumerate(fixed_risks, start=1):
                cum_risk += risk
                rows.append((frac, seed, epoch, risk, cum_risk))
            totals[frac].append(cum_risk)

    write_table(out, ("clean_fraction", "run_seed", "epoch", "selection_risk", "cum_selection_risk"), rows)
    means = {f: float(np.mean(v)) for f, v in totals.items()}
    ordered = [means[f] for f in VALIDATE_RISK_FRACTIONS]
    decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    return ValidateRiskResult(csv_path=out, total_risk=means, strictly_decreasing=decreasing)


# ------------------------------------------------------------------ bounds


def run_bounds(cfg: ExperimentConfig) -> BoundReport:
    """The ceilings for (n, k, T) and the optional alpha: the block `simulate` opens each selector's report with."""
    return BoundReport.ceilings(cfg.n, cfg.resolve_k(cfg.n), cfg.epochs, cfg.alpha)

"""Online adaptive k-set sample selection for training with noisy labels.

Selectors pick k of n training samples each epoch from accumulated
per-sample risk feedback; the perturbed-leader selector carries a
sublinear regret guarantee against the best fixed selection in
hindsight.  The package bundles the selectors, risk/regret analytics
with closed-form ceilings, synthetic risk streams, a small MLP
learner with label-noise injection, and an experiment CLI.
"""

from .analytics import (
    BoundReport,
    SelectionTrace,
    average_selection_risk,
    avg_risk_bound,
    label_precision,
    log_binomial,
    regret,
    regret_bound,
    total_selection_risk,
)
from .datasets import (
    Dataset,
    LabelNoiseSpec,
    apply_label_noise,
    default_pair_map,
    inject_asymmetric_noise,
    inject_symmetric_noise,
    load_csv_dataset,
    load_idx,
    make_blobs,
)
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    InputError,
    ParameterError,
)
from .feedback import (
    Prediction,
    StreamKind,
    StreamSpec,
    dump_stream_csv,
    generate_stream,
    load_stream_csv,
    noise_risk,
    noise_risk_scores,
    stream_epochs,
)
from .mlp import LearnerSpec, MlpModel, backward, evaluate, forward, init_mlp, train_epoch
from .selection import (
    CumulativeRisk,
    KSetSelection,
    RiskVector,
    SelectorConfig,
    Strategy,
    accumulate,
    fpl_select,
    ftl_select,
    greedy_select,
    hindsight_best,
    init_selection,
    sample_perturbation,
    top_k_smallest,
)
from .training import EpochMetrics, Hindsight, run_epochs, select_sequence, train_selective

__version__ = "0.1.0"

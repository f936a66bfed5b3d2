"""Continual learning with threshold-gated low-rank adapters."""

from .adapter import (
    Adapter,
    GateScope,
    JumpGate,
    THRESHOLD_FLOOR,
    dense_update,
    final_sparse_update,
    init_adapter,
    init_threshold,
    interpolate_update,
    jump_update,
    make_gate,
    merge,
)
from .autodiff import Tape, Tensor, jumprelu, threshold_pseudograd
from .config import ExperimentConfig, Method, load_config, parse_config_text
from .data import TaskStream, generate_task_stream
from .ella import EllaVariant, ella_penalty, update_past
from .errors import ConfigError, ShapeError, StateError, StoreError
from .harness import RunResult, evaluate, run_stream, train_task
from .metrics import (
    AccuracyMatrix,
    backward_transfer,
    forward_transfer,
    jaccard_overlap,
    mean_prior_overlap,
    overall_accuracy,
    sparsity,
)
from .model import TinyTransformer, build_model
from .schedule import Schedule, gamma, schedule_from_fractions

__version__ = "0.1.0"

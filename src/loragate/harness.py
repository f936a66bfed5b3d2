"""Continual-learning driver: per-task adapter lifecycle over a task stream.

For each task: inject fresh adapters, train one epoch with the gated update
interpolation, hard-threshold and merge the final update, record the support
mask, optionally add it to the past that the overlap penalty reads, then drop
the adapters. Isolated single-task runs fill the reference row of the accuracy
matrix.

An isolated run depends only on (config, stream, seed, task id), so a caller
that runs several orders of one stream can pass ``run_stream`` one dict of
solo runs and have each task trained alone at most once. Two invariants make
that exact:

- the isolated run of a task trains the same adapters (seeded from the run seed
  and task id) on the same shuffle from a clone of the same base model,
  whichever order asked for it;
- stream position 0 is such a run: an all-zero past never adds the overlap
  penalty, so its losses, merged updates and accuracy are the isolated run's.

Together they let position 0 always replay its task's solo run instead of
training in the stream: merging the stored updates into a clone of the base
model and adding them to the past leaves the model, the past and the trace as
training there would have.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adapter import (
    Adapter,
    GateScope,
    JumpGate,
    THRESHOLD_FLOOR,
    dense_update,
    final_sparse_update,
    gamma,
    init_adapter,
    init_gate,
    interpolate_update,
    jump_update,
    make_gate,
    merge,
    ramp,
)
from .autodiff import Tape, add, cross_entropy
from .blas import one_blas_thread
from .config import ExperimentConfig
from .data import TaskStream
from .ella import EllaVariant, ella_penalty, update_past
from .errors import ConfigError, StateError
from .metrics import AccuracyMatrix
from .model import TinyTransformer, build_model
from .optim import AdamW
from .rng import named_rng, named_seed

# rows per evaluation forward; 64-row chunks lowered glibc's self-adjusting
# malloc thresholds and slowed every later training step
EVAL_CHUNK = 256


@dataclass
class TaskLog:
    losses: np.ndarray
    gammas: list[float]
    threshold_init_step: Optional[int]
    thresholds: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SoloRun:
    """A task trained alone from the base model, as stream position 0 needs it
    to replay the run: its log, its merged update per layer and its test
    accuracy. Its arrays are read-only, because runs of other orders share
    them."""

    log: TaskLog
    merged: dict[str, np.ndarray]
    accuracy: float


@dataclass
class RunResult:
    order: list[int]
    matrix: AccuracyMatrix
    masks: list[dict[str, np.ndarray]]  # per stream position: layer_id -> 0/1 mask
    logs: list[TaskLog]
    trace_hash: str
    model: TinyTransformer


def inject_adapters(
    model: TinyTransformer,
    config: ExperimentConfig,
    run_seed: int,
    task_id: int,
) -> tuple[dict[str, Adapter], list[JumpGate]]:
    """Fresh adapters for every adapted layer, plus one gate per scope (all
    layers, or one block's) when the configured method is gated.

    Adapter seeds are derived from (run seed, task id, layer id), so the same
    task gets bit-identical initialization in stream and isolated runs.
    """
    adapters = {}
    for lid in model.adapted_layers:
        d_in, d_out = model.layer_shape(lid)
        adapters[lid] = init_adapter(
            d_in, d_out, config.rank,
            seed=named_seed(run_seed, f"adapter/task{task_id}/{lid}"),
        )
    if not config.method.gated:
        return adapters, []
    per_block = config.gate_scope is GateScope.PER_BLOCK
    scopes: dict[int, list[str]] = {}
    for lid in model.adapted_layers:
        scopes.setdefault(model.block_of(lid) if per_block else 0, []).append(lid)
    return adapters, [make_gate(lids, config.bandwidth) for lids in scopes.values()]


def train_task(
    model: TinyTransformer,
    adapters: dict[str, Adapter],
    gates: list[JumpGate],
    stream: TaskStream,
    task_id: int,
    config: ExperimentConfig,
    penalty_weight: float = 0.0,
    past: Optional[dict[str, np.ndarray]] = None,
    run_seed: int = 0,
) -> TaskLog:
    """One epoch over the task's training split, exactly the per-step recipe:
    threshold init at the ramp start, interpolation factor update, dense /
    gated / interpolated updates, forward, loss plus optional overlap penalty,
    and an optimizer step over the factors and thresholds.

    From the step that initialises the thresholds on, the forward uses the
    interpolated update and the penalty the sparse or the interpolated one (by
    ``config.ella_variant``); before that step both use the dense update.

    A non-finite loss raises ``StateError`` naming the task and the step."""
    tokens, labels = stream.fetch(task_id, "train")
    n = len(labels)
    if n == 0:
        raise ConfigError(f"task {task_id} has no training data")
    batch = config.batch_size
    total_steps = math.ceil(n / batch)
    start, final = ramp(total_steps, config.start_frac, config.end_frac)
    gate_of = {lid: gate for gate in gates for lid in gate.layers}
    sparse_penalty = config.ella_variant is EllaVariant.SPARSE
    scaling = config.alpha / config.rank

    params = []
    for lid in model.adapted_layers:
        params.extend((adapters[lid].down, adapters[lid].up))
    thresholds = [gate.threshold for gate in gates]
    opt = AdamW(params + thresholds, lr=config.learning_rate,
                warmup_steps=config.warmup_steps)

    # the past is fixed within a task, so the layers it penalises are too
    penalized = ([lid for lid in model.adapted_layers if past[lid].any()]
                 if penalty_weight > 0 and past is not None else [])

    perm = named_rng(run_seed, f"shuffle/task{task_id}").permutation(n)
    losses = np.zeros(total_steps, dtype=np.float32)
    gammas: list[float] = []
    init_step = None

    for s in range(total_steps):
        if gates and s == start:
            for gate in gates:
                init_gate(gate, adapters)
            init_step = s
        g = gamma(s, start, final) if gates else 0.0
        gammas.append(g)
        idx = perm[s * batch:(s + 1) * batch]
        bt, bl = tokens[idx], labels[idx]

        with Tape() as tape:
            updates: dict[str, object] = {}
            penalty_updates: dict[str, object] = {}
            for lid in model.adapted_layers:
                dw = dense_update(adapters[lid])
                if init_step is None:
                    updates[lid] = penalty_updates[lid] = dw
                else:
                    dj = jump_update(dw, gate_of[lid])
                    updates[lid] = interpolate_update(dw, dj, g)
                    penalty_updates[lid] = dj if sparse_penalty else updates[lid]
            logits = model.forward(bt, updates, scaling)
            loss = cross_entropy(logits, bl)
            for lid in penalized:
                loss = add(loss, ella_penalty(penalty_updates[lid], past[lid], penalty_weight))
            losses[s] = loss.item()
            if not np.isfinite(losses[s]):
                raise StateError(f"task {task_id}: non-finite loss {losses[s]} at step {s}")
            tape.backward(loss)
        opt.step()
        opt.zero_grad()
        for th in thresholds:
            th.data = np.maximum(th.data, np.asarray(THRESHOLD_FLOOR, th.dtype))

    if gates and init_step is None:
        # the ramp never reached its start inside this epoch
        warnings.warn("threshold init fell past the epoch; initializing at the end")
        for gate in gates:
            init_gate(gate, adapters)
        init_step = total_steps

    final_thresholds = {lid: float(gate.threshold.data.reshape(()))
                        for lid, gate in gate_of.items()}
    return TaskLog(losses=losses, gammas=gammas, threshold_init_step=init_step,
                   thresholds=final_thresholds)


def evaluate(model: TinyTransformer, stream: TaskStream, task_id: int) -> float:
    """Task-agnostic test accuracy: argmax over the full union class head."""
    tokens, labels = stream.fetch(task_id, "test")
    if len(labels) == 0:
        raise ConfigError(f"task {task_id} has no test data")
    correct = 0
    for lo in range(0, len(labels), EVAL_CHUNK):
        logits = model.forward(tokens[lo:lo + EVAL_CHUNK]).data
        correct += int((logits.argmax(axis=1) == labels[lo:lo + EVAL_CHUNK]).sum())
    return correct / len(labels)


def resolve_orders(n_tasks: int, n_orders: int, data_seed: int) -> list[list[int]]:
    """``n_orders`` distinct task orders: order 0 is natural, order k a
    permutation from the data seed, redrawn while it repeats an earlier one.

    ``n_orders`` outside ``[1, n_tasks!]`` raises ``ConfigError``."""
    if not 1 <= n_orders <= math.factorial(n_tasks):
        raise ConfigError(f"n_orders must lie in [1, {n_tasks}!], got {n_orders}")
    orders = [list(range(n_tasks))]
    for k in range(1, n_orders):
        rng = named_rng(data_seed, f"order/{k}")
        order = rng.permutation(n_tasks).tolist()
        while order in orders:
            order = rng.permutation(n_tasks).tolist()
        orders.append(order)
    return orders


def _merge_updates(model, merged, config, past):
    """Merge the final updates and, if there is a past, add them to it."""
    scaling = config.alpha / config.rank
    for lid in model.adapted_layers:
        model.params[lid] = merge(model.params[lid], merged[lid], scaling)
        if past is not None:
            update_past(past, merged[lid], lid)


def _train_and_merge(model, stream, task_id, config, seed, penalty_weight=0.0,
                     past=None):
    """Train one task on fresh adapters, hard-threshold their final update,
    then merge it into ``model``.

    Returns the task log and the merged update per layer.
    """
    adapters, gates = inject_adapters(model, config, seed, task_id)
    task_log = train_task(model, adapters, gates, stream, task_id, config,
                          penalty_weight=penalty_weight, past=past, run_seed=seed)
    gate_of = {lid: gate for gate in gates for lid in gate.layers}
    merged = {}
    for lid in model.adapted_layers:
        if gates:
            merged[lid] = final_sparse_update(adapters[lid], gate_of[lid])
        else:
            merged[lid] = adapters[lid].down.data @ adapters[lid].up.data
    _merge_updates(model, merged, config, past)
    return task_log, merged


def _train_solo(base, stream, task_id, config, seed) -> SoloRun:
    """Train one task alone on a clone of ``base``; the stored arrays are
    made read-only."""
    model = base.clone()
    task_log, merged = _train_and_merge(model, stream, task_id, config, seed)
    for array in (task_log.losses, *merged.values()):
        array.flags.writeable = False
    return SoloRun(task_log, merged, evaluate(model, stream, task_id))


def _copy_log(task_log: TaskLog) -> TaskLog:
    """A copy of ``task_log`` that shares no array, list or dict with it."""
    return dataclasses.replace(task_log, losses=task_log.losses.copy(),
                               gammas=list(task_log.gammas),
                               thresholds=dict(task_log.thresholds))


@one_blas_thread()
def run_stream(
    stream: TaskStream,
    config: ExperimentConfig,
    seed: int,
    order: Optional[list[int]] = None,
    isolated: Optional[dict[int, SoloRun]] = None,
) -> RunResult:
    """Full stream pass plus per-task isolated runs.

    ``isolated`` maps task id to that task's run alone under this config,
    stream and seed (see ``SoloRun``); the caller owns it and may pass the same
    dict to runs of other orders. A solo run missing from it is trained from
    the base model when first needed and written to it at once. Stream
    position 0 replays the solo run of ``order[0]``: it merges the stored
    updates, adds them to the past as training would, and takes their
    accuracy. By the invariants in the module docstring, the results are the
    same as when position 0 trains in the stream. Without a dict, no solo run
    outlives its use. The solo training of ``order[0]`` and the stream
    trainings come before the other solo trainings, and the returned arrays are
    the caller's to modify.

    ``order`` must be a permutation of the stream's task ids; anything else
    raises ``ConfigError`` before any training.

    The run uses one BLAS thread and restores the caller's count on return
    (see ``blas``).
    """
    penalty_weights = (config.penalty_weights() if config.method.penalized
                       else [0.0] * len(stream))
    if len(penalty_weights) != len(stream):
        raise ConfigError(
            f"{len(penalty_weights)} penalty weights for {len(stream)} tasks"
        )
    order = list(range(len(stream))) if order is None else list(order)
    if sorted(order) != list(range(len(stream))):
        raise ConfigError(
            f"order {order} is not a permutation of the {len(stream)} task ids"
        )
    hasher = hashlib.sha256()

    base = build_model(config.vocab_size, config.d_model, config.n_heads,
                       config.n_blocks, config.max_seq_len, stream.num_classes,
                       seed=seed)

    model = base.clone()
    past = ({lid: np.zeros(base.layer_shape(lid), dtype=np.float32)
             for lid in base.adapted_layers}
            if any(w > 0 for w in penalty_weights) else None)
    matrix = AccuracyMatrix(len(stream))
    masks: list[dict[str, np.ndarray]] = []
    logs: list[TaskLog] = []

    def solo(tid: int) -> SoloRun:
        if isolated is not None and tid in isolated:
            return isolated[tid]
        run = _train_solo(base, stream, tid, config, seed)
        if isolated is not None:
            isolated[tid] = run
        return run

    def record(task_log: TaskLog, merged: dict[str, np.ndarray]) -> None:
        logs.append(task_log)
        masks.append({lid: (merged[lid] != 0).astype(np.uint8)
                      for lid in model.adapted_layers})
        hasher.update(task_log.losses.tobytes())
        for lid in sorted(merged):
            hasher.update(merged[lid].tobytes())

    first = solo(order[0])
    _merge_updates(model, first.merged, config, past)
    matrix.set(1, 0, first.accuracy)
    matrix.set_isolated(0, first.accuracy)
    record(_copy_log(first.log), first.merged)
    del first  # frees the run's updates unless ``isolated`` keeps it
    for pos in range(1, len(order)):
        record(*_train_and_merge(model, stream, order[pos], config, seed,
                                 penalty_weights[pos], past))
        for j in range(pos + 1):
            matrix.set(pos + 1, j, evaluate(model, stream, order[j]))
    for pos in range(1, len(order)):
        matrix.set_isolated(pos, solo(order[pos]).accuracy)

    hasher.update(matrix.grid.tobytes())
    return RunResult(order=order, matrix=matrix, masks=masks, logs=logs,
                     trace_hash=hasher.hexdigest(), model=model)

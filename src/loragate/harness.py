"""Continual-learning driver: per-task adapter lifecycle over a task stream.

``train_task`` is the whole per-task unit: it injects fresh adapters, makes a
gated method's one jump gate over them at the ramp start, trains one epoch
with the gated update interpolation, and returns the task's log with its final
update per layer, hard-thresholded for gated methods; the adapters die with it.
``run_stream`` merges that update into the model, adds it to the past that the
overlap penalty reads, and hashes it. Isolated single-task runs fill the
reference row of the accuracy matrix.

An isolated run depends only on (config, stream, seed, task id), so every
order of a seed can share one ``SoloRuns``, which trains each task alone at
most once, on first read. Two invariants make that exact:

- the isolated run of a task trains the same adapters (seeded from the run seed
  and task id) on the same shuffle from the same base model, whichever order
  asked for it;
- stream position 0 is such a run: an all-zero past never adds the overlap
  penalty, so its log, final updates included, and its accuracy are the
  isolated run's.

Together they let position 0 always replay its task's solo run instead of
training in the stream: recording a copy of the stored log merges its updates
into the stream's fresh base model and adds them to the past, which leaves the
model, the past and the trace as training there would have.

Processes: ``forked`` is the only way the package starts one. It forks a
helper that runs a function and swaps pickled values with its caller over one
pipe (see ``Helper``). It has two callers: ``run_seed`` splits a seed's solo
runs and orders with one helper, and ``loragate run --jobs N`` (N >= 2) runs
each seed in a helper of its own, at most N at once. ``run_seed`` forks only
where ``second_core_free``, which a helper never is, so N workers use N cores
and a split seed two. Each run is the same computation in either process, so
the results, ``trace_hash`` included, are those of a serial run. Solo runs
cross the pipe in plain dicts; a ``SoloRuns`` holds the stream and is never
pickled. A helper's warnings are re-issued in the caller and its exception is
re-raised there. A helper that dies makes the caller's next ``send`` or
``recv`` raise ``StateError("helper process exited with code N ...")``, which
``run_seed`` raises only after this process's orders, so only the helper's
work is lost, and no helper outlives the block that forked it.
"""

from __future__ import annotations

import copy
import hashlib
import math
import multiprocessing
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .adapter import (
    Adapter,
    THRESHOLD_FLOOR,
    dense_update,
    final_sparse_update,
    gamma,
    init_adapter,
    init_gate,
    interpolate_update,
    jump_update,
    merge,
    ramp,
)
from .autodiff import Tape, Tensor, add, cross_entropy
from .blas import one_blas_thread
from .config import ExperimentConfig
from .data import TaskStream
from .ella import ella_penalty, update_past
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
    threshold: Optional[float]  # the gate's final threshold, gated methods only
    merged: dict[str, np.ndarray]  # layer_id -> the final update merged into the model


@dataclass(frozen=True)
class SoloRun:
    """A task trained alone from the base model, as stream position 0 needs it
    to replay the run: its log, final updates included, and its test accuracy.
    The log's arrays are read-only, because runs of other orders share them."""

    log: TaskLog
    accuracy: float

    def __setstate__(self, state) -> None:
        # pickling drops the flag, so a run sent from a helper is frozen again
        self.__dict__.update(state)
        _freeze(self.log)


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    logs: list[TaskLog]  # per stream position
    trace_hash: str


def inject_adapters(
    model: TinyTransformer,
    config: ExperimentConfig,
    run_seed: int,
    task_id: int,
) -> dict[str, Adapter]:
    """Fresh adapters for every adapted layer, in ``adapted_layers`` order.
    A gated task's gate over them comes later, from ``init_gate``.

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
    return adapters


def train_task(
    model: TinyTransformer,
    stream: TaskStream,
    task_id: int,
    config: ExperimentConfig,
    penalty_weight: float = 0.0,
    past: Optional[dict[str, np.ndarray]] = None,
    run_seed: int = 0,
) -> TaskLog:
    """One epoch over the task's training split on fresh adapters, exactly the
    per-step recipe: threshold init at the ramp start, interpolation factor
    update, dense / gated / interpolated updates, forward, loss plus optional
    overlap penalty, and an optimizer step over the factors and the threshold.

    From the ramp start, where ``init_gate`` makes a gated method's gate, the
    forward uses the interpolated update and the penalty the sparse one. Before
    it both use the dense update, and the threshold, in the optimizer from the
    start, has no gradient, so Adam skips it.

    ``model`` is not changed. The log's ``merged`` holds each layer's
    ``final_sparse_update``; its ``threshold`` is the gate's final one, or None.

    A non-finite loss raises ``StateError`` naming the task and the step."""
    tokens, labels = stream.fetch(task_id, "train")
    n = len(labels)
    if n == 0:
        raise ConfigError(f"task {task_id} has no training data")
    adapters = inject_adapters(model, config, run_seed, task_id)
    batch = config.batch_size
    total_steps = math.ceil(n / batch)
    start, final = ramp(total_steps, config.start_frac, config.end_frac)
    scaling = config.alpha / config.rank

    params = [t for a in adapters.values() for t in (a.down, a.up)]
    if config.method.gated:
        threshold = Tensor(np.zeros((), dtype=np.float32), requires_grad=True)
        params.append(threshold)
    opt = AdamW(params, lr=config.learning_rate, warmup_steps=config.warmup_steps)

    # the past is fixed within a task, so the layers it penalises are too
    penalized = ([lid for lid in model.adapted_layers if past[lid].any()]
                 if penalty_weight > 0 and past is not None else [])

    perm = named_rng(run_seed, f"shuffle/task{task_id}").permutation(n)
    losses = np.zeros(total_steps, dtype=np.float32)
    gammas: list[float] = []
    gate, init_step = None, None

    for s in range(total_steps):
        if config.method.gated and s == start:
            gate, init_step = init_gate(threshold, config.bandwidth, adapters), s
        g = 0.0 if gate is None else gamma(s, start, final)
        gammas.append(g)
        idx = perm[s * batch:(s + 1) * batch]
        bt, bl = tokens[idx], labels[idx]

        with Tape() as tape:
            updates: dict[str, object] = {}
            penalty_updates: dict[str, object] = {}
            for lid in model.adapted_layers:
                dw = dense_update(adapters[lid])
                if gate is None:
                    updates[lid] = penalty_updates[lid] = dw
                else:
                    penalty_updates[lid] = dj = jump_update(dw, gate)
                    updates[lid] = interpolate_update(dw, dj, g)
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
        if gate is not None:
            threshold.data = np.maximum(threshold.data, THRESHOLD_FLOOR)

    if config.method.gated and gate is None:  # the ramp started past the epoch
        warnings.warn("threshold init fell past the epoch; initializing at the end")
        gate, init_step = init_gate(threshold, config.bandwidth, adapters), total_steps
    merged = {lid: final_sparse_update(a, gate) for lid, a in adapters.items()}
    return TaskLog(losses=losses, gammas=gammas, threshold_init_step=init_step,
                   threshold=None if gate is None else float(threshold.data), merged=merged)


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


def resolve_orders(config: ExperimentConfig) -> list[list[int]]:
    """The config's ``n_orders`` distinct task orders: order 0 is natural,
    order k a permutation from the data seed, redrawn while it repeats an
    earlier one. A config holds at most ``n_tasks!`` orders, so this ends."""
    n_tasks = config.n_tasks
    orders = [list(range(n_tasks))]
    for k in range(1, config.n_orders):
        rng = named_rng(config.data_seed, f"order/{k}")
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


def _freeze(task_log: TaskLog) -> None:
    for array in (task_log.losses, *task_log.merged.values()):
        array.flags.writeable = False


def _base_model(stream: TaskStream, config: ExperimentConfig, seed: int) -> TinyTransformer:
    return build_model(config.vocab_size, config.d_model, config.n_heads,
                       config.n_blocks, config.seq_len, stream.num_classes, seed=seed)


class SoloRuns(dict):
    """The solo runs of one (stream, config, seed), by task id (see
    ``SoloRun``). Reading a missing task id trains its run on one BLAS thread,
    from a base model of its own, and keeps it with its arrays read-only."""

    def __init__(self, stream: TaskStream, config: ExperimentConfig, seed: int):
        super().__init__()
        self.stream, self.config, self.seed = stream, config, seed

    @one_blas_thread()
    def __missing__(self, task_id: int) -> SoloRun:
        stream, config, seed = self.stream, self.config, self.seed
        model = _base_model(stream, config, seed)
        task_log = train_task(model, stream, task_id, config, run_seed=seed)
        _merge_updates(model, task_log.merged, config, None)
        _freeze(task_log)
        run = self[task_id] = SoloRun(task_log, evaluate(model, stream, task_id))
        return run


def second_core_free() -> bool:
    """Whether a run forks a helper to train beside it: only where the fork
    start method exists, the process may run on two or more CPUs, and it is
    not itself a helper, so a helper forks none of its own."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and multiprocessing.parent_process() is None)


def _reissue(caught) -> None:
    """Issue the helper's warnings here as ``warnings.warn`` issued them
    there: at their origin, under the caller's filters and the registry of
    the module that raised them, so a warning shown once per process is shown
    once whichever process raised it."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        warnings.warn_explicit(
            message, category, filename, lineno,
            module=module.__name__ if module else None,
            registry=vars(module).setdefault("__warningregistry__", {}) if module else None)


class Helper:
    """The caller's end of a helper process forked by ``forked``."""

    def __init__(self, process, conn):
        self._process, self._conn = process, conn

    def _exited(self) -> StateError:
        self._process.join()
        return StateError(f"helper process exited with code {self._process.exitcode} "
                          "before sending its results")

    def send(self, value) -> None:
        """Pass ``value`` to the helper's next ``recv``. A helper that has
        exited raises ``StateError`` with its exit code."""
        try:
            self._conn.send(value)
        except OSError:  # a broken pipe: the helper's end is closed
            raise self._exited() from None

    def recv(self):
        """The helper's next value. The warnings it issued since its last one
        are re-issued here first; then its exception is re-raised here, or the
        value returned. A helper that exits without sending raises
        ``StateError`` with its exit code."""
        try:
            value, error, caught = self._conn.recv()
        except (EOFError, OSError):  # OSError: EOF inside a message
            raise self._exited() from None
        _reissue(caught)
        if error is not None:
            raise error
        return value


def _helper_main(conn, callers_end, target, args) -> None:
    """The forked helper: run ``target(send, recv, *args)``. ``send(value)``
    passes a value to the caller with every warning issued since the last
    one, as (message, category, filename, line); ``recv()`` takes the
    caller's next value. An exception that escapes ``target`` is sent in
    place of a value."""
    callers_end.close()  # a caller that dies then reads as EOF here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the caller's filters decide what shows

        def send(value, error=None) -> None:
            conn.send((value, error, [(w.message, w.category, w.filename, w.lineno)
                                      for w in caught]))
            caught.clear()

        try:
            target(send, conn.recv, *args)
        except Exception as exc:  # noqa: BLE001 - re-raised in the caller
            send(None, exc)


@contextmanager
def forked(target: Callable, *args) -> Iterator[Helper]:
    """Fork a helper process that runs ``target(send, recv, *args)`` (see
    ``_helper_main``) and yield the caller's end of it (see ``Helper``).

    ``target`` and ``args`` reach the helper by fork; only the values sent
    either way are pickled. The helper's end of the one pipe between the two
    is held by the helper alone, so a helper that dies reads as EOF here (the
    caller's end is also held by any helper forked later while this one
    lives). The helper is terminated if still running and joined on every
    exit from the block."""
    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe()
    process = ctx.Process(target=_helper_main, args=(there, here, target, args),
                          daemon=True)
    process.start()
    there.close()
    try:
        yield Helper(process, here)
    finally:
        here.close()
        process.terminate()  # a no-op once it has exited
        process.join()


@one_blas_thread()
def run_stream(stream: TaskStream, config: ExperimentConfig, seed: int,
               order: Optional[list[int]] = None,
               isolated: Optional[SoloRuns] = None) -> RunResult:
    """Full stream pass plus per-task isolated runs.

    ``isolated`` holds the solo runs of this stream, config and seed (see
    ``SoloRuns``); the caller owns it and may pass it to runs of other orders.
    With it the run is serial and reads the solo runs of ``order[1:]``, for its
    isolated row, after the stream; without it the run is ``run_seed`` of this
    one order, whose helper trains them while the stream trains.

    Every stream position goes through one record step: merge the task log's
    final updates into the stream model and the past, keep the log, hash it.
    Position 0 records a copy of the solo run of ``order[0]`` and takes its
    accuracy; every later position records what ``train_task`` returns. By the
    invariants in the module docstring, the results are the same as when
    position 0 trains in the stream. The returned arrays are the caller's to
    modify.

    A stream that is not the config's (not ``config.n_tasks`` long) or an
    ``order`` that is not a permutation raises ``ConfigError`` before training.
    The run uses one BLAS thread and restores the caller's count (see ``blas``).
    It does not pin glibc's malloc thresholds: only ``loragate run`` does, for
    its own process (see ``cli``'s module docstring). The pin matters to a
    library caller too: in a fresh process, ``train_task`` on a 64-sample
    Jump-InCLoRA config steps at 15.5-16.0 ms without it and 12.2-12.5 ms
    with it (2-vCPU VM).
    """
    if len(stream) != config.n_tasks:
        raise ConfigError(f"stream has {len(stream)} tasks, config n_tasks={config.n_tasks}")
    order = list(range(len(stream))) if order is None else list(order)
    if sorted(order) != list(range(len(stream))):
        raise ConfigError(f"order {order} is not a permutation of the {len(stream)} task ids")
    if isolated is None:
        return run_seed(stream, config, seed, [order],
                        lambda k, runs: run_stream(stream, config, seed, order, runs))[0]
    penalty_weights = config.penalty_weights()  # read only where there is a past
    hasher = hashlib.sha256()
    matrix = AccuracyMatrix(len(stream))
    logs: list[TaskLog] = []

    def record(task_log: TaskLog) -> None:
        _merge_updates(model, task_log.merged, config, past)
        logs.append(task_log)
        hasher.update(task_log.losses.tobytes())
        for lid in sorted(task_log.merged):
            hasher.update(task_log.merged[lid].tobytes())

    first = isolated[order[0]]
    model = _base_model(stream, config, seed)
    past = ({lid: np.zeros(model.layer_shape(lid), dtype=np.float32)
             for lid in model.adapted_layers} if config.method.penalized else None)
    record(copy.deepcopy(first.log))  # writable arrays of the caller's own
    matrix.set(1, 0, first.accuracy)
    for pos in range(1, len(order)):
        record(train_task(model, stream, order[pos], config,
                          penalty_weight=penalty_weights[pos], past=past, run_seed=seed))
        for j in range(pos + 1):
            matrix.set(pos + 1, j, evaluate(model, stream, order[j]))
    del model  # freed before the solo runs left, which build models of their own
    for pos, task_id in enumerate(order):
        matrix.set_isolated(pos, isolated[task_id].accuracy)

    hasher.update(matrix.grid.tobytes())
    return RunResult(matrix=matrix, logs=logs, trace_hash=hasher.hexdigest())


class _SwapOnMiss(SoloRuns):
    """A ``SoloRuns`` whose miss first calls ``swap``, if set, to add the
    runs another process trained; a run still missing is trained here."""

    swap: Optional[Callable[[], None]] = None

    def __missing__(self, task_id: int) -> SoloRun:
        if self.swap:
            self.swap()
        return self.get(task_id) or super().__missing__(task_id)


def run_seed(stream: TaskStream, config: ExperimentConfig, seed: int,
             orders: list[list[int]], each: Callable[[int, SoloRuns], object]) -> list:
    """``each(k, runs)`` for every index k of ``orders``, and what it returned,
    by index. ``runs`` is the seed's ``SoloRuns``, which every order shares, so
    each task is trained alone once.

    Where ``second_core_free``, one helper is forked before any training; it
    calls ``each`` for the odd indices and this process for the even ones. At
    an even count of orders, this process trains the solo runs of the even
    positions of ``orders[0]`` and the helper the rest, and the two swap them
    before any order. At an odd count, this process trains only the run of
    ``orders[0][0]`` and starts order 0 at once; it takes the helper's runs at
    its first miss, order 0's isolated row, then sends its own. Every call
    finds the runs a serial seed's would, so it makes the same computation.
    An exception in either process, a dead helper included, is raised here.
    One from the swap is raised only after this process's orders, which train
    the runs it missed, so a failed helper loses only the helper's orders."""
    runs = _SwapOnMiss(stream, config, seed)
    indices = range(len(orders))
    if not second_core_free():
        return [each(k, runs) for k in indices]
    lead = orders[0]
    mine, theirs = (lead[:1], lead[1:]) if len(orders) % 2 else (lead[::2], lead[1::2])
    failed = []  # the swap's exception, raised after this process's orders

    def helper_half(send, recv) -> None:
        send({tid: runs[tid] for tid in theirs})
        runs.update(recv())
        send({k: each(k, runs) for k in indices[1::2]})

    with forked(helper_half) as helper:
        def swap() -> None:
            runs.swap = None  # once, even if the helper has died
            try:
                runs.update(helper.recv())
                helper.send(sent)
            except Exception as exc:  # noqa: BLE001 - raised below
                failed.append(exc)

        sent = {tid: runs[tid] for tid in mine}
        runs.swap = swap
        if len(orders) % 2 == 0:
            swap()
        done = {k: each(k, runs) for k in indices[::2]}
        if runs.swap:  # no order missed a run
            swap()
        if failed:
            raise failed[0]
        done.update(helper.recv())
    return [done[k] for k in indices]

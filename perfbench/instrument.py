"""Timing hooks installed on loragate from outside the package.

Every hook replaces a function's binding in the modules that call it and puts
the original back on ``uninstall``; nothing under ``src/`` changes.

``Probe`` holds the few hooks the end-to-end metrics need: one clock read per
optimizer step, training task and evaluation.  ``Tracer`` records a span at
every layer boundary for the per-layer table; it is installed only for the
separate traced run, so its cost never reaches the end-to-end numbers.
"""

from __future__ import annotations

import functools
import inspect
import time
from pathlib import Path

import numpy as np

from loragate import adapter, arrayio, autodiff, cli, data, ella, harness, model, optim

# every module that binds package functions by name
MODULES = (autodiff, model, adapter, ella, harness, data, arrayio, cli)

PRIMITIVES = ("matmul", "layer_norm", "softmax", "cross_entropy", "embed", "jumprelu",
              "add", "sub", "scale", "mul", "reshape", "permute", "relu", "mean",
              "frobenius_sq")

ADAPTER_FUNCS = ("dense_update", "jump_update", "interpolate_update", "init_threshold",
                 "final_sparse_update", "merge")


class Hooks:
    """Replaced bindings, restored newest-first by ``uninstall``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        original = getattr(owner, name)
        self._bind(original, make(original), [owner], name)

    def patch_everywhere(self, home, name: str, make) -> None:
        """Replace a function in its home module and in every module that
        imported it by name, wrapping whatever hook each binding already has."""
        root = inspect.unwrap(getattr(home, name))
        for module in MODULES:
            current = module.__dict__.get(name)
            if current is not None and inspect.unwrap(current) is root:
                self._bind(current, make(current), [module], name)

    def _bind(self, original, wrapper, owners, name) -> None:
        # keeps module and qualified name, so pool workers unpickle the wrapper
        functools.update_wrapper(wrapper, original)
        for owner in owners:
            setattr(owner, name, wrapper)
            self._saved.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def _arguments(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


class Probe(Hooks):
    """Per-step, per-task and per-evaluation clock reads for end-to-end metrics.

    ``step_ms`` holds one interval per optimizer step: from the previous
    ``AdamW.step`` return, or from entry into ``train_task`` for a task's first
    step, to this step's return.  ``train_ce`` holds the training
    cross-entropy of every step, without the overlap penalty.
    """

    def __init__(self):
        super().__init__()
        self.reset()

    def reset(self) -> None:
        self.step_ms: list[float] = []
        self.train_s = 0.0
        self.train_samples = 0
        self.eval_s = 0.0
        self.eval_samples = 0
        self.nonfinite_tasks: list[int] = []
        self.train_ce: list[float] = []
        self._last: float | None = None

    def install(self) -> "Probe":
        self.patch(optim.AdamW, "step", self._wrap_step)
        self.patch_everywhere(harness, "train_task", self._wrap_train_task)
        self.patch_everywhere(harness, "evaluate", self._wrap_evaluate)
        self.patch(harness, "cross_entropy", self._wrap_cross_entropy)
        return self

    def _wrap_step(self, step):
        def wrapper(opt):
            step(opt)
            now = time.perf_counter()
            if self._last is not None:
                self.step_ms.append((now - self._last) * 1e3)
            self._last = now
        return wrapper

    def _wrap_train_task(self, train_task):
        arguments = _arguments(train_task)

        def wrapper(*args, **kwargs):
            a = arguments(args, kwargs)
            n = len(a["stream"].fetch(a["task_id"], "train")[1])
            t0 = self._last = time.perf_counter()
            task_log = train_task(*args, **kwargs)
            self.train_s += time.perf_counter() - t0
            self._last = None
            self.train_samples += n
            if not np.isfinite(task_log.losses).all():
                self.nonfinite_tasks.append(int(a["task_id"]))
            return task_log
        return wrapper

    def _wrap_evaluate(self, evaluate):
        arguments = _arguments(evaluate)

        def wrapper(*args, **kwargs):
            a = arguments(args, kwargs)
            n = len(a["stream"].fetch(a["task_id"], "test")[1])
            t0 = time.perf_counter()
            acc = evaluate(*args, **kwargs)
            self.eval_s += time.perf_counter() - t0
            self.eval_samples += n
            return acc
        return wrapper

    def _wrap_cross_entropy(self, cross_entropy):
        def wrapper(*args, **kwargs):
            loss = cross_entropy(*args, **kwargs)
            self.train_ce.append(loss.item())
            return loss
        return wrapper

    def state(self) -> dict:
        return {"step_ms": self.step_ms, "train_s": self.train_s,
                "train_samples": self.train_samples, "eval_s": self.eval_s,
                "eval_samples": self.eval_samples, "train_ce": self.train_ce,
                "nonfinite_tasks": self.nonfinite_tasks}


class Spans:
    """Spans kept in memory as [name, start, end, parent index or -1]."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.records: list[list] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.records)
        self.records.append([name, time.perf_counter(), 0.0,
                             self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.records[idx][2] = time.perf_counter()
        self._open.pop()


def self_time_table(records) -> dict[str, list]:
    """Per span name: [inclusive seconds, self seconds, count].

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it and do not overlap one another.
    """
    covered = [0.0] * len(records)
    for _, start, end, parent in records:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, list] = {}
    for (name, start, end, _), cover in zip(records, covered):
        row = table.setdefault(name, [0.0, 0.0, 0])
        row[0] += end - start
        row[1] += end - start - cover
        row[2] += 1
    return table


class Tracer(Hooks):
    """Spans at every layer boundary plus counts taken at the same boundaries.

    Backward time is charged to the primitive that recorded the closure: while
    a primitive's wrapper runs, ``Tape.record`` wraps the closure it receives
    in a span named after that primitive.
    """

    def __init__(self):
        super().__init__()
        self.spans = Spans()
        self._prims: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.spans.clear()
        self._prims.clear()
        self.counts = {"tape_records_max": 0, "isolated_train_s": 0.0,
                       "gate_kept": 0, "gate_computed": 0, "penalty_sum": 0.0,
                       "loss_sum": 0.0, "files_written": 0, "bytes_written": 0}
        self._stream_positions = 0
        self._trained = 0

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        for prim in PRIMITIVES:
            self.patch_everywhere(autodiff, prim, self._wrap_primitive(prim))
        self.patch(autodiff.Tape, "record", self._wrap_record)
        self.patch(autodiff.Tape, "backward", self._wrap_backward)
        self.patch(model.TinyTransformer, "forward", self._wrap_forward)
        for name in ADAPTER_FUNCS:
            self.patch_everywhere(adapter, name, self._span(f"adapter.{name}"))
        self.patch_everywhere(adapter, "jump_update", self._wrap_jump_update)
        self.patch_everywhere(ella, "ella_penalty", self._wrap_penalty)
        self.patch_everywhere(ella, "update_past", self._span("ella.update_past"))
        self.patch(optim.AdamW, "step", self._span("optim.step"))
        self.patch(optim.AdamW, "zero_grad", self._span("optim.zero_grad"))
        self.patch_everywhere(data, "generate_task_stream", self._span("data.generate"))
        self.patch_everywhere(arrayio, "save_arrays", self._wrap_save_arrays)
        self.patch_everywhere(harness, "run_stream", self._wrap_run_stream)
        self.patch_everywhere(harness, "train_task", self._wrap_train_task)
        self.patch_everywhere(harness, "evaluate", self._span("harness.evaluate"))
        self.patch(cli, "_run_single", self._span("cli.run_single"))
        return self

    def _span(self, name):
        spans = self.spans

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = spans.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans.close(idx)
            return wrapper
        return make

    def _wrap_primitive(self, prim):
        spans, prims, name = self.spans, self._prims, f"autodiff.{prim}.fwd"

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = spans.open(name)
                prims.append(prim)
                try:
                    return fn(*args, **kwargs)
                finally:
                    prims.pop()
                    spans.close(idx)
            return wrapper
        return make

    def _wrap_record(self, record):
        spans, prims = self.spans, self._prims

        def wrapper(tape, fn):
            if not prims:
                return record(tape, fn)
            name = f"autodiff.{prims[-1]}.bwd"

            def timed():
                idx = spans.open(name)
                try:
                    fn()
                finally:
                    spans.close(idx)
            return record(tape, timed)
        return wrapper

    def _wrap_backward(self, backward):
        timed = self._span("autodiff.backward")(backward)

        def wrapper(tape, root):
            counts = self.counts
            counts["tape_records_max"] = max(counts["tape_records_max"], len(tape))
            timed(tape, root)
        return wrapper

    def _wrap_forward(self, forward):
        train = self._span("model.forward_train")(forward)
        evaluation = self._span("model.forward_eval")(forward)

        def wrapper(net, *args, **kwargs):
            timed = train if autodiff.Tape.active() is not None else evaluation
            return timed(net, *args, **kwargs)
        return wrapper

    def _wrap_jump_update(self, jump_update):
        def wrapper(*args, **kwargs):
            out = jump_update(*args, **kwargs)
            self.counts["gate_kept"] += int(np.count_nonzero(out.data))
            self.counts["gate_computed"] += out.data.size
            return out
        return wrapper

    def _wrap_penalty(self, ella_penalty):
        timed = self._span("ella.penalty")(ella_penalty)

        def wrapper(*args, **kwargs):
            pen = timed(*args, **kwargs)
            self.counts["penalty_sum"] += pen.item()
            return pen
        return wrapper

    def _wrap_save_arrays(self, save_arrays):
        timed = self._span("arrayio.save")(save_arrays)
        arguments = _arguments(save_arrays)

        def wrapper(*args, **kwargs):
            timed(*args, **kwargs)
            # each store is a fresh directory holding only what this call wrote
            files = [p for p in Path(arguments(args, kwargs)["directory"]).iterdir()
                     if p.is_file()]
            self.counts["files_written"] += len(files)
            self.counts["bytes_written"] += sum(p.stat().st_size for p in files)
        return wrapper

    def _wrap_run_stream(self, run_stream):
        timed = self._span("harness.run_stream")(run_stream)
        arguments = _arguments(run_stream)

        def wrapper(*args, **kwargs):
            a = arguments(args, kwargs)
            order = a.get("order")
            # run_stream trains every stream position first, then the
            # isolated runs; later train_task calls belong to the isolated pass
            self._stream_positions = len(a["stream"]) if order is None else len(order)
            self._trained = 0
            return timed(*args, **kwargs)
        return wrapper

    def _wrap_train_task(self, train_task):
        timed = self._span("harness.train_task")(train_task)

        def wrapper(*args, **kwargs):
            isolated = self._trained >= self._stream_positions
            self._trained += 1
            t0 = time.perf_counter()
            task_log = timed(*args, **kwargs)
            if isolated:
                self.counts["isolated_train_s"] += time.perf_counter() - t0
            self.counts["loss_sum"] += float(np.sum(task_log.losses, dtype=np.float64))
            return task_log
        return wrapper

    # -- results ----------------------------------------------------------

    def state(self) -> dict:
        return {"spans": self.spans.records, "counts": dict(self.counts)}


def layer_metrics(states: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one repeat and its span table, from the tracer
    states it produced (one per process that traced part of it)."""
    table: dict[str, list] = {}
    counts: dict[str, float] = {}
    for st in states:
        for name, row in self_time_table(st["spans"]).items():
            acc = table.setdefault(name, [0.0, 0.0, 0])
            for i in range(3):
                acc[i] += row[i]
        for key, value in st["counts"].items():
            if key == "tape_records_max":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value

    def total(name):
        return table.get(name, [0.0, 0.0, 0])[0]

    def calls(name):
        return table.get(name, [0.0, 0.0, 0])[2]

    out: dict[str, float] = {}
    for prim in PRIMITIVES:
        out[f"autodiff.{prim}.fwd_s"] = total(f"autodiff.{prim}.fwd")
        out[f"autodiff.{prim}.bwd_s"] = total(f"autodiff.{prim}.bwd")
        out[f"autodiff.{prim}.calls"] = calls(f"autodiff.{prim}.fwd")
    out["autodiff.backward_s"] = total("autodiff.backward")
    out["autodiff.tape_records_per_step"] = counts["tape_records_max"]
    out["model.forward_train_s"] = total("model.forward_train")
    out["model.forward_eval_s"] = total("model.forward_eval")
    out["harness.train_task_s"] = total("harness.train_task")
    out["harness.train_task_calls"] = calls("harness.train_task")
    out["harness.evaluate_s"] = total("harness.evaluate")
    out["harness.evaluate_calls"] = calls("harness.evaluate")
    out["harness.isolated_train_s"] = counts["isolated_train_s"]
    for name in ADAPTER_FUNCS:
        out[f"adapter.{name}_s"] = total(f"adapter.{name}")
    computed = counts["gate_computed"]
    out["adapter.kept_fraction"] = counts["gate_kept"] / computed if computed else 1.0
    out["ella.penalty_s"] = total("ella.penalty")
    out["ella.penalty_calls"] = calls("ella.penalty")
    out["ella.update_past_s"] = total("ella.update_past")
    loss = counts["loss_sum"]
    out["ella.penalty_loss_share"] = counts["penalty_sum"] / loss if loss else 0.0
    out["optim.step_s"] = total("optim.step")
    out["optim.zero_grad_s"] = total("optim.zero_grad")
    out["data.generate_s"] = total("data.generate")
    out["cli.run_single_s"] = total("cli.run_single")
    out["arrayio.save_s"] = total("arrayio.save")
    out["arrayio.files_written"] = counts["files_written"]
    out["arrayio.bytes_written"] = counts["bytes_written"]
    return out, table

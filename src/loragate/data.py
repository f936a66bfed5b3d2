"""Synthetic token-classification task streams.

Each task owns a disjoint band of the vocabulary and labels a sequence by
which of its signature tokens appear in it; every task shares the same
background token pool, so sequentially merged updates compete for the same
attention pathways while the tasks themselves stay separable.

A stream is defined by its per-row draw sequence: for each fresh row, in
order, the signal and distractor positions, the signal tokens, the distractor
class and the distractor token, all from the task's one generator. Drawing
them batched would consume the same generator in another order and change
every row, so rows are drawn one at a time through the cheapest calls that
make those draws. It is also why ``val`` is still drawn although no run reads
it: skipping it would change every ``test`` row drawn after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, StateError
from .rng import named_rng

Split = tuple[np.ndarray, np.ndarray]  # (tokens [n, seq], labels [n])


@dataclass
class Task:
    task_id: int
    classes: list[int]  # global class ids, disjoint across the stream
    splits: dict[str, Split]


@dataclass
class TaskStream:
    tasks: list[Task]
    vocab_size: int
    seq_len: int
    num_classes: int
    on_access: Optional[Callable[[int, str], None]] = None

    def __len__(self) -> int:
        return len(self.tasks)

    def fetch(self, task_id: int, split: str) -> Split:
        """Data access point; fires the audit hook so rehearsal-free training
        can be asserted from outside."""
        if not (0 <= task_id < len(self.tasks)):
            raise StateError(f"unknown task id {task_id}")
        task = self.tasks[task_id]
        if split not in task.splits:
            raise StateError(f"unknown split {split!r}")
        if self.on_access is not None:
            self.on_access(task_id, split)
        return task.splits[split]


def generate_task_stream(
    seed: int,
    n_tasks: int,
    samples_per_class: int = 256,
    difficulty: float = 0.25,
    classes_per_task: int = 3,
    seq_len: int = 16,
    vocab_size: int = 64,
) -> TaskStream:
    """Deterministic stream of ``n_tasks`` synthetic classification tasks.

    A sample carries three signature tokens of its class plus one distractor
    signature from another class of the same task, so decisions sit near the
    class boundary. Training sequences are drawn from a finite pool of
    templates and a fraction (0.2 * difficulty) of the draws is mislabeled;
    conflicting labels on repeated templates give every task an irreducible
    loss floor that no amount of capacity can fit, like the text benchmarks
    this stream stands in for. Validation and test use fresh clean samples.
    """
    if n_tasks < 1:
        raise ConfigError(f"need at least one task, got {n_tasks}")
    if not (0.0 <= difficulty <= 1.0):
        raise ConfigError(f"difficulty must lie in [0, 1], got {difficulty}")
    if samples_per_class < 1 or classes_per_task < 1 or seq_len < 2:
        raise ConfigError("samples_per_class, classes_per_task >= 1 and seq_len >= 2")
    background_size = vocab_size // 2
    band_width = (vocab_size - background_size) // n_tasks
    if band_width < classes_per_task:
        raise ConfigError(
            f"vocab_size {vocab_size} too small for n_tasks {n_tasks} x "
            f"classes_per_task {classes_per_task}"
        )
    signal_count = min(3, seq_len - 2)
    label_noise = 0.2 * difficulty

    eval_per_class = max(8, samples_per_class // 4)
    split_sizes = {"train": samples_per_class, "val": eval_per_class,
                   "test": eval_per_class}

    tasks = []
    for t in range(n_tasks):
        rng = named_rng(seed, f"data/task{t}")
        band = np.arange(background_size + t * band_width,
                         background_size + (t + 1) * band_width)
        band = rng.permutation(band)
        # sorted: the index drawn for a signal or distractor token picks the
        # index-th smallest signature token of its class
        signatures = [np.sort(band[c::classes_per_task]) for c in range(classes_per_task)]
        classes = [t * classes_per_task + c for c in range(classes_per_task)]

        def fresh_rows(labels):
            n = len(labels)
            tokens = rng.integers(0, background_size, size=(n, seq_len))
            positions = np.empty((n, signal_count + 1), dtype=np.int64)
            signal = np.empty((n, signal_count), dtype=np.int64)
            distractor = np.empty(n, dtype=np.int64)
            for row, c in enumerate(labels.tolist()):
                positions[row] = rng.choice(seq_len, size=signal_count + 1, replace=False)
                sig = signatures[c]
                signal[row] = sig[rng.integers(0, len(sig), size=signal_count)]
                if classes_per_task > 1:
                    other = int(rng.integers(0, classes_per_task - 1))
                    other = other + 1 if other >= c else other
                    sig = signatures[other]
                    distractor[row] = sig[rng.integers(0, len(sig))]
            rows = np.arange(n)[:, None]
            tokens[rows, positions[:, :signal_count]] = signal
            if classes_per_task > 1:
                tokens[rows[:, 0], positions[:, signal_count]] = distractor
            return tokens

        per_class_pool = max(32, samples_per_class // 16)
        pool_labels = np.repeat(np.arange(classes_per_task), per_class_pool)
        pool = fresh_rows(pool_labels)

        splits = {}
        for split, size in split_sizes.items():
            labels = np.repeat(np.arange(classes_per_task), size)
            if split == "train":
                picks = np.concatenate([
                    rng.integers(c * per_class_pool, (c + 1) * per_class_pool, size=size)
                    for c in range(classes_per_task)
                ])
                tokens = pool[picks]
                if label_noise > 0:
                    flip = rng.random(len(labels)) < label_noise
                    labels = np.where(flip, rng.integers(0, classes_per_task,
                                                         size=len(labels)), labels)
            else:
                tokens = fresh_rows(labels)
            order = rng.permutation(len(labels))
            splits[split] = (tokens[order].astype(np.int64),
                             (labels[order] + classes[0]).astype(np.int64))
        tasks.append(Task(task_id=t, classes=classes, splits=splits))
    return TaskStream(tasks=tasks, vocab_size=vocab_size, seq_len=seq_len,
                      num_classes=n_tasks * classes_per_task)

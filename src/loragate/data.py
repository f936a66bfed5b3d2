"""Synthetic token-classification task streams.

Each task owns a disjoint band of the vocabulary and labels a sequence by
which of its signature tokens appear in it; every task shares the same
background token pool, so sequentially merged updates compete for the same
attention pathways while the tasks themselves stay separable.

A fresh row of class ``c`` is ``seq_len`` uniform background tokens with
``signal_count`` of them overwritten by signature tokens of ``c``, each drawn
uniformly with replacement, and one more by a uniform signature token of a
uniformly drawn other class of the task; the overwritten positions are
distinct and uniform. Each split draws its rows through a few whole-array
calls on the task's one generator, integers only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError
from .rng import named_rng

Split = tuple[np.ndarray, np.ndarray]  # (tokens [n, seq], labels [n])


@dataclass
class Task:
    # labels are global class ids: task t's are t * classes_per_task onwards
    splits: dict[str, Split]


@dataclass
class TaskStream:
    tasks: list[Task]
    num_classes: int

    def __len__(self) -> int:
        return len(self.tasks)

    def fetch(self, task_id: int, split: str) -> Split:
        """The one data access point, so rehearsal-free training can be
        asserted by wrapping it."""
        if not (0 <= task_id < len(self.tasks)):
            raise StateError(f"unknown task id {task_id}")
        task = self.tasks[task_id]
        if split not in task.splits:
            raise StateError(f"unknown split {split!r}")
        return task.splits[split]


def vocab_band_width(vocab_size: int, n_tasks: int, classes_per_task: int) -> int:
    """Width of each task's band in the vocabulary's upper half; it needs a token per class."""
    width = (vocab_size - vocab_size // 2) // n_tasks
    if width < classes_per_task:
        raise ConfigError(f"vocab_size {vocab_size} too small for n_tasks {n_tasks} x "
                          f"classes_per_task {classes_per_task}")
    return width


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
    this stream stands in for. Test uses fresh clean samples.
    """
    if n_tasks < 1:
        raise ConfigError(f"need at least one task, got {n_tasks}")
    if not (0.0 <= difficulty <= 1.0):
        raise ConfigError(f"difficulty must lie in [0, 1], got {difficulty}")
    if samples_per_class < 1 or classes_per_task < 1 or seq_len < 2:
        raise ConfigError("samples_per_class, classes_per_task >= 1 and seq_len >= 2")
    background_size = vocab_size // 2
    band_width = vocab_band_width(vocab_size, n_tasks, classes_per_task)
    signal_count = min(3, seq_len - 2)
    label_noise = 0.2 * difficulty

    eval_per_class = max(8, samples_per_class // 4)
    split_sizes = {"train": samples_per_class, "test": eval_per_class}

    tasks = []
    for t in range(n_tasks):
        rng = named_rng(seed, f"data/task{t}")
        band = np.arange(background_size + t * band_width,
                         background_size + (t + 1) * band_width)
        band = rng.permutation(band)
        # row c holds class c's signature tokens, sorted, then padding that no
        # index below sig_len[c] reaches
        sig_len = np.array([len(band[c::classes_per_task]) for c in range(classes_per_task)])
        signatures = np.zeros((classes_per_task, sig_len.max()), dtype=np.int64)
        for c in range(classes_per_task):
            signatures[c, :sig_len[c]] = np.sort(band[c::classes_per_task])

        def fresh_rows(labels):
            n = len(labels)
            rows = np.arange(n)[:, None]
            tokens = rng.integers(0, background_size, size=(n, seq_len))
            positions = rng.permuted(np.broadcast_to(np.arange(seq_len), (n, seq_len)),
                                     axis=1)[:, :signal_count + 1]
            signal = rng.integers(0, sig_len[labels][:, None], size=(n, signal_count))
            tokens[rows, positions[:, :signal_count]] = signatures[labels[:, None], signal]
            if classes_per_task > 1:
                other = rng.integers(0, classes_per_task - 1, size=n)
                other += other >= labels
                distractor = signatures[other, rng.integers(0, sig_len[other])]
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
                             (labels[order] + t * classes_per_task).astype(np.int64))
        tasks.append(Task(splits=splits))
    return TaskStream(tasks=tasks, num_classes=n_tasks * classes_per_task)

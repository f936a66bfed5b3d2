"""Transfer metrics over the task-accuracy grid, plus mask sparsity/overlap."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import ShapeError, StateError


class AccuracyMatrix:
    """Accuracy grid of shape (n_tasks + 1, n_tasks).

    Row 0 holds the isolated-training accuracy of each task; row i (1-based)
    holds the accuracy of every task at position j < i after training the
    first i tasks of the stream. Columns are 0-based stream positions.
    Undefined entries are NaN.
    """

    def __init__(self, n_tasks: int):
        if n_tasks < 1:
            raise ValueError(f"need at least one task, got {n_tasks}")
        self.n_tasks = n_tasks
        self.grid = np.full((n_tasks + 1, n_tasks), np.nan)

    def set_isolated(self, col: int, acc: float) -> None:
        self._check(0, col, acc)
        self.grid[0, col] = acc

    def set(self, row: int, col: int, acc: float) -> None:
        if row < 1 or col >= row:
            raise ValueError(f"entry ({row}, {col}) is outside the lower triangle")
        self._check(row, col, acc)
        self.grid[row, col] = acc

    def _check(self, row: int, col: int, acc: float) -> None:
        if not (0 <= row <= self.n_tasks and 0 <= col < self.n_tasks):
            raise ValueError(f"index ({row}, {col}) out of range")
        if not (0.0 <= acc <= 1.0):
            raise ValueError(f"accuracy must lie in [0, 1], got {acc}")

    def final_row(self) -> np.ndarray:
        return self.grid[self.n_tasks]


def overall_accuracy(acc: AccuracyMatrix) -> float:
    """Mean accuracy over all tasks after the final task finished training."""
    final = acc.final_row()
    if np.isnan(final).any():
        raise StateError("final row of the accuracy matrix is incomplete")
    return float(final.mean())


def backward_transfer(acc: AccuracyMatrix) -> Optional[float]:
    """Mean change of earlier-task accuracy by the end of the stream.

    Negative values indicate forgetting. Undefined (None) for a single task.
    """
    t = acc.n_tasks
    if t < 2:
        return None
    final = acc.final_row()
    diffs = [final[j] - acc.grid[j + 1, j] for j in range(t - 1)]
    if np.isnan(diffs).any():
        raise StateError("accuracy matrix diagonal or final row is incomplete")
    return float(np.mean(diffs))


def forward_transfer(acc: AccuracyMatrix) -> float:
    """Mean benefit of prior stream training relative to isolated training."""
    t = acc.n_tasks
    diffs = [acc.grid[j + 1, j] - acc.grid[0, j] for j in range(t)]
    if np.isnan(diffs).any():
        raise StateError("accuracy matrix isolated row or diagonal is incomplete")
    return float(np.mean(diffs))


def sparsity(mask) -> float:
    """Fraction of entries zeroed out of the update."""
    arr = np.asarray(mask) != 0
    return float((arr.size - np.count_nonzero(arr)) / arr.size)


def jaccard_overlap(m1, m2) -> float:
    """Intersection over union of two supports; 0 when both are empty."""
    a, b = np.asarray(m1) != 0, np.asarray(m2) != 0
    if a.shape != b.shape:
        raise ShapeError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    return float(np.count_nonzero(a & b) / union)


def mean_prior_overlap(masks: Sequence, t: int) -> Optional[float]:
    """Mean Jaccard overlap of task t's mask with every earlier task's mask.

    ``t`` is the 0-based position in the stream; the first task has no priors
    and yields None.
    """
    if t >= len(masks):
        raise ValueError(f"task index {t} out of range for {len(masks)} masks")
    if t < 1:
        return None
    overlaps = [jaccard_overlap(masks[t], masks[i]) for i in range(t)]
    return float(np.mean(overlaps))

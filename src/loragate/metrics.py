"""Transfer metrics over the task-accuracy grid, plus mask sparsity and overlap.

``MaskOverlap`` scores a stream's support masks once; ``loragate run`` reads
its isolation table and its sparsity and overlap summaries from that score.
"""

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


def expected_jaccard(p, q):
    """Jaccard overlap expected of two independent masks that keep fractions
    ``p`` and ``q`` of their entries: the expected intersection p·q over the
    expected union p + q − p·q, and 0 where both keep nothing, as in
    ``jaccard_overlap``. Broadcasts over arrays."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    union = p + q - p * q
    return np.divide(p * q, union, out=np.zeros(union.shape), where=union > 0)


class MaskOverlap:
    """Sparsity and pairwise Jaccard overlap of a stream's masks, given per
    stream position as a dict keyed by layer.

    ``sparsity[l, t]`` is the sparsity of position t in layer ``layers[l]``, in
    the layer order of position 0; ``jaccard[l, t, i]`` is the overlap of
    positions t and i in that layer, computed once per pair (symmetric, NaN on
    the diagonal).
    """

    def __init__(self, masks: Sequence[dict[str, np.ndarray]]):
        self.layers = list(masks[0])
        self.sparsity = np.array([[sparsity(m[lid]) for m in masks] for lid in self.layers])
        self.jaccard = np.full((len(self.layers), len(masks), len(masks)), np.nan)
        for l, lid in enumerate(self.layers):
            for t in range(len(masks)):
                for i in range(t):
                    self.jaccard[l, t, i] = self.jaccard[l, i, t] = jaccard_overlap(
                        masks[t][lid], masks[i][lid])

    def mean_pairwise_jaccard(self) -> Optional[float]:
        """Mean overlap over layers and pairs of positions; None for one position."""
        i, j = np.triu_indices(self.sparsity.shape[1], 1)
        return float(np.mean(self.jaccard[:, i, j])) if i.size else None

    def isolation_rows(self):
        """Per position, then layer: (position, layer, kept fraction, mean
        Jaccard against earlier positions, its ``expected_jaccard`` over the
        same pairs, and the isolation excess, observed minus expected). The
        last three are None at position 0."""
        kept = 1.0 - self.sparsity
        for t in range(kept.shape[1]):
            for l, lid in enumerate(self.layers):
                if t == 0:
                    yield t, lid, float(kept[l, t]), None, None, None
                    continue
                prior = float(np.mean(self.jaccard[l, t, :t]))
                expected = float(np.mean(expected_jaccard(kept[l, t], kept[l, :t])))
                yield t, lid, float(kept[l, t]), prior, expected, prior - expected

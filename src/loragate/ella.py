"""Coordinate-overlap penalty against updates accumulated from past tasks.

The past is a plain ``dict`` from adapted-layer id to the running sum of the
final updates merged into that layer so far. They are summed unscaled: the
weights take ``alpha / rank`` times each update, but the penalty is quadratic
in the past, so the penalty weight absorbs that factor squared.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, frobenius_sq, mul, scale
from .errors import ShapeError, StateError


def ella_penalty(update: Tensor, past: np.ndarray, weight: float) -> Tensor:
    """weight * ||update (*) past||_F^2, differentiable through the update's
    graph, including the gate's straight-through rules.

    The caller passes the update it penalises: the dense one, or for a gated
    method the sparse one once the gate exists. The weight comes from a
    validated config, so it is nonnegative.
    """
    return scale(frobenius_sq(mul(update, Tensor(past))), weight)


def update_past(past: dict[str, np.ndarray], dw_final: np.ndarray, layer_id: str) -> None:
    """Accumulate a task's final update into the layer's running sum."""
    if layer_id not in past:
        raise StateError(f"unknown layer id {layer_id!r}")
    current = past[layer_id]
    if current.shape != dw_final.shape:
        raise ShapeError(f"past shapes differ: {current.shape} vs {dw_final.shape}")
    past[layer_id] = current + dw_final

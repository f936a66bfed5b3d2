"""Coordinate-overlap penalty against updates accumulated from past tasks."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, frobenius_sq, mul, scale
from .errors import ConfigError, ShapeError, StateError


class EllaVariant(enum.Enum):
    SPARSE = "sparse"
    INTERPOLATED = "interpolated"


@dataclass
class EllaState:
    """Accumulated past updates per adapted layer."""

    past: dict[str, np.ndarray]


def make_ella_state(layer_shapes: dict[str, tuple], dtype=np.float32) -> EllaState:
    past = {lid: np.zeros(shape, dtype=dtype) for lid, shape in layer_shapes.items()}
    return EllaState(past=past)


def ella_penalty(
    dense: Tensor,
    gated: Tensor | None,
    past: np.ndarray,
    weight: float,
    step: int,
    start_step: int,
) -> Tensor:
    """weight * ||u (*) past||_F^2 where u switches from the dense update to
    the gated one once the threshold exists (step >= start_step).

    Callers pass the gated update that matches their configured variant (the
    sparse update or the interpolated one), or None while no gate is active.
    The result is differentiable through u's graph, including the gate's
    straight-through rules.
    """
    if weight < 0:
        raise ConfigError(f"penalty weight must be nonnegative, got {weight}")
    u = dense if (gated is None or step < start_step) else gated
    if u.shape != past.shape:
        raise ShapeError(f"penalty shapes differ: {u.shape} vs {past.shape}")
    return scale(frobenius_sq(mul(u, Tensor(past))), weight)


def update_past(state: EllaState, dw_final: np.ndarray, layer_id: str) -> EllaState:
    """Accumulate a task's final sparse update into the layer's running sum."""
    if layer_id not in state.past:
        raise StateError(f"unknown layer id {layer_id!r}")
    current = state.past[layer_id]
    dw = dw_final.data if isinstance(dw_final, Tensor) else np.asarray(dw_final)
    if current.shape != dw.shape:
        raise ShapeError(f"past shapes differ: {current.shape} vs {dw.shape}")
    state.past[layer_id] = current + dw
    return state


"""Low-rank adapter lifecycle: init, gated update construction, merge.

An adapter is a pair of factors (down: [d_in, r], up: [r, d_out]) whose
product is the weight update for one base matrix. A task trains a bank: its
layers' adapters stacked on a leading axis, so every function below builds
all their updates at once. A gated task has one jump gate over its bank: one
learnable threshold that zeroes every update entry whose magnitude falls
below it. A gate exists only once ``init_gate`` has set its threshold. The
interpolation factor ``gamma`` ramps the update from the dense product to the
gated one over a window of steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, jump_mask, jumprelu, lerp, matmul
from .errors import ConfigError, ShapeError, StateError

THRESHOLD_FLOOR = np.float32(1e-8)  # in the gate threshold's dtype


@dataclass
class Adapter:
    down: Tensor  # [d_in, r], or [layers, d_in, r] in a bank
    up: Tensor    # [r, d_out], or [layers, r, d_out] in a bank

    def budget(self) -> int:
        """Trainable parameter count of the factor pair."""
        return self.down.data.size + self.up.data.size


@dataclass
class JumpGate:
    threshold: Tensor  # scalar, learnable
    bandwidth: float


def init_adapter(
    d_in: int,
    d_out: int,
    rank: int,
    seed: int,
    dtype=np.float32,
) -> Adapter:
    """Fresh adapter: down factor Kaiming-uniform over fan-in, up factor zero.

    The uniform bound is sqrt(6 / d_in), pinned so two builds with the same
    seed are bit-identical.
    """
    if d_in < 1 or d_out < 1 or rank < 1:
        raise ConfigError(f"dimensions must be positive, got ({d_in}, {d_out}, {rank})")
    if rank > min(d_in, d_out):
        warnings.warn(
            f"rank {rank} exceeds min(d_in, d_out) = {min(d_in, d_out)}; "
            "the update is no longer low-rank",
            stacklevel=2,
        )
    bound = float(np.sqrt(6.0 / d_in))
    rng = np.random.default_rng(seed)
    down = rng.uniform(-bound, bound, size=(d_in, rank)).astype(dtype)
    up = np.zeros((rank, d_out), dtype=dtype)
    return Adapter(down=Tensor(down, requires_grad=True), up=Tensor(up, requires_grad=True))


def dense_update(adapter: Adapter) -> Tensor:
    """The unscaled update: product of the two factors."""
    return matmul(adapter.down, adapter.up)


def jump_update(dw: Tensor, gate: JumpGate) -> Tensor:
    """Magnitude-gated update ``dw * H(|dw| - threshold)``: one ``jumprelu``.

    It equals ``dw * (|dw| > threshold)``, so a threshold of zero or below
    keeps every entry. Gradient reaches the factors through active entries
    and the threshold through the straight-through kernel at +/-threshold.
    """
    return jumprelu(dw, gate.threshold, gate.bandwidth)


def ramp(total_steps: int, start_frac: float, end_frac: float) -> tuple[int, int]:
    """The (start, final) steps of the interpolation ramp, from a validated
    config's fractions of the epoch's steps (e.g. 0.2 and 0.8), rounded down."""
    return math.floor(start_frac * total_steps), math.floor(end_frac * total_steps)


def gamma(step: int, start: int, final: int) -> float:
    """Interpolation factor at a 0-based optimizer step: 0 up to ``start``,
    linear to 1 at ``final``, clipped to [0, 1]. An empty window is a step
    function at ``start`` (the limit of the linear ramp)."""
    span = final - start
    if span == 0:
        return 0.0 if step < start else 1.0
    return min(1.0, max(0.0, (step - start) / span))


def interpolate_update(dw: Tensor, dw_jump: Tensor, gamma: float) -> Tensor:
    """Convex combination (1 - gamma) * dw + gamma * dw_jump. ``gamma`` comes
    from ``gamma()`` over a validated config's ramp, so it lies in [0, 1]."""
    if gamma == 0.0:
        return dw
    if gamma == 1.0:
        return dw_jump
    return lerp(dw, dw_jump, gamma)


def init_threshold(updates: np.ndarray, budget: int) -> float:
    """Threshold such that at most ``budget`` entries of ``updates`` exceed it.

    Pools |entries| over the whole array, a bank's updates of every layer,
    and returns the (budget+1)-th largest magnitude, so the strictly-above
    count equals the budget in the absence of ties. Saturated budgets and
    all-zero pools fall back to the positive floor, with a warning.
    """
    pooled = np.abs(updates).reshape(-1)
    n = pooled.size
    if n == 0:
        raise StateError("threshold init needs a non-empty update pool")
    if not pooled.any():
        warnings.warn("all update entries are zero at threshold init; using floor")
        return THRESHOLD_FLOOR
    if budget >= n:
        warnings.warn("gate budget covers every entry in its scope; "
                      "the gate keeps everything")
        return THRESHOLD_FLOOR
    order_stat = float(np.partition(pooled, n - 1 - budget)[n - 1 - budget])
    return max(order_stat, THRESHOLD_FLOOR)


def init_gate(threshold: Tensor, bandwidth: float, bank: Adapter) -> JumpGate:
    """The gate over ``bank``: ``threshold``, set in place from the bank's
    current updates, pooled over every layer, with the bank's factor budget,
    and ``bandwidth`` from a validated config."""
    value = init_threshold(bank.down.data @ bank.up.data, bank.budget())
    threshold.data = np.asarray(value, dtype=threshold.dtype)
    return JumpGate(threshold=threshold, bandwidth=bandwidth)


def final_sparse_update(adapter: Adapter, gate: JumpGate | None) -> np.ndarray:
    """A task's final updates, outside the autodiff graph: the factor product of
    each layer, hard-thresholded at the gate's threshold where there is a gate."""
    dw = adapter.down.data @ adapter.up.data
    return dw if gate is None else dw * jump_mask(dw, gate.threshold.item())


def merge(w_base: Tensor, dw_final: np.ndarray, scaling: float) -> Tensor:
    """Merged base weight w_base + scaling * dw_final (no gradient tracking)."""
    if w_base.data.shape != dw_final.shape:
        raise ShapeError(f"merge shapes differ: {w_base.data.shape} vs {dw_final.shape}")
    return Tensor(w_base.data + float(scaling) * dw_final)


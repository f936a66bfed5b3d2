"""Tiny pre-norm transformer encoder classifier with adapters on Q/V.

Every base weight is frozen; during a task only the adapter factors (and the
gate thresholds) train. Adapted layers are the query and value projections of
each attention block, addressed as ``blk{i}.q`` and ``blk{i}.v``.

The residual stream stays flat, ``[batch * seq, d_model]``, from the
embedding to the final norm; it is reshaped once, for the mean pool. Each
block is a handful of fused primitives: ``linear`` for the Q/K/V/O
projections (``x @ (W + s * dW)`` on the adapted ones), ``attention`` and
``mlp``, around two adds. The layer norms have no gain or bias: a frozen
affine of ones and zeros would change nothing.

Block locals are scoped. The attention half of a block runs in its own
method, ``_attend``, so that its locals (the normed input and q, k, v, each a
``[batch * seq, d_model]`` array) are dropped when it returns, before the
MLP's four-times-wider hidden array exists; the normed input is dropped even
before attention runs. Under a tape a record keeps only what its backward
reads (see ``autodiff``); without one, as in evaluation, nothing else keeps
them, so their lifetime sets the forward's memory peak.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .autodiff import (
    Tensor,
    add,
    attention,
    embed,
    layer_norm,
    linear,
    matmul,
    mean,
    mlp,
    reshape,
)
from .errors import ConfigError
from .rng import named_rng

MLP_RATIO = 4
# the fewest positional rows ``build_model`` draws: a fixed floor keeps the
# draw order, and so the base model, the same for every seq_len up to it
POSITIONS = 32


class TinyTransformer:
    """Frozen-base encoder: embeddings, attention blocks, mean-pool head."""

    def __init__(self, n_heads: int, n_blocks: int, params: dict[str, Tensor]):
        self.n_heads = n_heads
        self.n_blocks = n_blocks
        self.params = params

    @property
    def adapted_layers(self) -> list[str]:
        return [f"blk{i}.{m}" for i in range(self.n_blocks) for m in ("q", "v")]

    def layer_shape(self, layer_id: str) -> tuple:
        return self.params[layer_id].shape

    def block_of(self, layer_id: str) -> int:
        return int(layer_id.split(".")[0][3:])

    def clone(self) -> "TinyTransformer":
        params = {k: Tensor(v.data.copy()) for k, v in self.params.items()}
        return TinyTransformer(self.n_heads, self.n_blocks, params)

    def forward(
        self,
        tokens: np.ndarray,
        updates: Optional[dict[str, Tensor]] = None,
        scaling: float = 0.0,
    ) -> Tensor:
        """Class logits for a token batch [batch, seq].

        ``updates`` maps adapted layer ids to their current (interpolated)
        weight updates; the effective projection is base + scaling * update.
        """
        tokens = np.asarray(tokens)
        p = self.params
        updates = updates or {}
        x = embed(tokens, p["tok_emb"], p["pos_emb"])
        batch, seq, d = x.shape
        x = reshape(x, (batch * seq, d))
        for i in range(self.n_blocks):
            b = f"blk{i}."
            x = add(x, self._attend(x, b, updates, scaling, batch))
            x = add(x, mlp(layer_norm(x), p[b + "mlp1"], p[b + "mlp2"]))
        pooled = mean(reshape(layer_norm(x), (batch, seq, d)), axis=1)
        return matmul(pooled, p["head"])

    def _attend(self, x: Tensor, b: str, updates: dict[str, Tensor],
                scaling: float, batch: int) -> Tensor:
        """The attention branch of block ``b``: the O projection of attention
        over the normed residual ``x``."""
        p = self.params
        pre = layer_norm(x)
        # recorded q, k, v: their gradients reach ``pre`` as v, k, q
        q = linear(pre, p[b + "q"], updates.get(b + "q"), scaling)
        k = linear(pre, p[b + "k"])
        v = linear(pre, p[b + "v"], updates.get(b + "v"), scaling)
        del pre  # attention reads only q, k and v
        return linear(attention(q, k, v, batch, self.n_heads), p[b + "o"])


def build_model(
    vocab_size: int = 64,
    d_model: int = 64,
    n_heads: int = 4,
    n_blocks: int = 4,
    seq_len: int = 16,
    num_classes: int = 12,
    seed: int = 0,
    dtype=np.float32,
) -> TinyTransformer:
    """Deterministic random frozen base model for the given seed, for
    sequences of up to ``max(POSITIONS, seq_len)`` tokens."""
    if d_model % n_heads != 0:
        raise ConfigError(f"d_model {d_model} not divisible by n_heads {n_heads}")
    if min(vocab_size, d_model, n_heads, n_blocks, seq_len, num_classes) < 1:
        raise ConfigError("model dimensions must be positive")
    rng = named_rng(seed, "model-init")

    def xavier(fan_in, fan_out):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)

    positions = max(POSITIONS, seq_len)
    params: dict[str, Tensor] = {
        "tok_emb": Tensor(rng.normal(0.0, 1.0, size=(vocab_size, d_model)).astype(dtype)),
        "pos_emb": Tensor(rng.normal(0.0, 1.0, size=(positions, d_model)).astype(dtype)),
    }
    hidden = MLP_RATIO * d_model
    for i in range(n_blocks):
        for m in ("q", "k", "v", "o"):
            params[f"blk{i}.{m}"] = Tensor(xavier(d_model, d_model))
        params[f"blk{i}.mlp1"] = Tensor(xavier(d_model, hidden))
        params[f"blk{i}.mlp2"] = Tensor(xavier(hidden, d_model))
    # quiet head: initial class margins stay small, so the task signal must be
    # carried by adapter updates of non-negligible magnitude (as with a
    # pretrained backbone whose task head starts near zero)
    params["head"] = Tensor(0.1 * xavier(d_model, num_classes))
    return TinyTransformer(n_heads, n_blocks, params)


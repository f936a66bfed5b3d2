"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is deliberately small: strict shapes (no broadcasting beyond
scalars), an explicit gradient tape, and hand-written backward rules for the
primitives the rest of the package needs. The jump gate's threshold receives a
straight-through gradient estimated with a rectangular kernel of configurable
bandwidth; everything else is exact.

The transformer block runs on three fused primitives, ``linear``,
``attention`` and ``mlp``, each one tape record with a closed-form backward.
Each evaluates the same numpy expressions on the same operand views as the
chain of small primitives it replaces, so its results are bit for bit those
of that chain.

Gradients: after ``Tape.backward`` a leaf tensor (one no recorded operation
produced, such as a parameter) holds its gradient until the caller clears it,
while every tensor a recorded operation produced holds none. Each backward
rule takes its output's gradient and frees it once propagated to the inputs;
the gradient is complete by then, because a tensor's producer is recorded
before all of its consumers and so runs after them. The step's memory peak
then holds the gradients still to be propagated, not every one computed.

Saved state: a record never holds a ``Tensor``. It holds the gradient slots
of its output and of the inputs that need a gradient (``Tensor.grad`` reads
and writes its slot), plus the arrays its formula reads, and an operand only
where a gradient reads it: ``linear`` keeps its input only for the weight
gradient, ``mlp`` its input only for ``w1``'s. So an intermediate array that
no rule reads, such as a residual-stream array or a frozen projection's
input, is freed as soon as the forward drops it, not when the tape is; and
``Tape.backward`` drops each record once it has run, with the arrays only it
read.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, StateError

__all__ = [
    "Tensor",
    "Tape",
    "add",
    "lerp",
    "matmul",
    "linear",
    "attention",
    "mlp",
    "reshape",
    "unstack",
    "layer_norm",
    "mean",
    "embed",
    "cross_entropy",
    "jumprelu",
    "frobenius_sq",
    "threshold_pseudograd",
]

# the tapes entered and not yet exited, innermost last
_tapes: list["Tape"] = []


class GradSlot:
    """Where a tensor's gradient lives. A backward rule holds the slots of
    its output and inputs, so it reaches their gradients without keeping
    their data alive."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: Optional[np.ndarray] = None


class Tensor:
    """Dense float array plus gradient bookkeeping.

    ``data`` is always a numpy floating array; python lists and integer arrays
    are converted to float32 (the training precision), while explicit float
    arrays keep their dtype so oracles can run in float64.
    """

    __slots__ = ("data", "requires_grad", "slot")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.slot = GradSlot()

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.slot.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        self.slot.grad = g

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


class Tape:
    """Ordered record of the differentiable operations of one forward pass.

    Backward replays the records newest-first, which is a valid reverse
    topological order because every operation runs after its inputs exist.
    A tape can be backpropagated once; re-running the forward pass builds a
    fresh tape.
    """

    def __init__(self):
        self._records: list[Callable[[], None]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _tapes.pop()
        return False

    @staticmethod
    def active() -> Optional["Tape"]:
        return _tapes[-1] if _tapes else None

    def record(self, fn: Callable[[], None]) -> None:
        self._records.append(fn)

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, root: Tensor) -> None:
        """Seed d(root)/d(root) = 1 and propagate to every recorded input.

        Leaf gradients accumulate and stay; the gradient of every tensor a
        record produced, ``root``'s included, is freed once propagated. Saved
        state goes the same way: each record is dropped once it has run, and
        with it the arrays only its rule read, so the tape is empty after
        backward (see the module docstring)."""
        if self._spent:
            raise StateError("tape already backpropagated; rerun the forward pass")
        if root.data.size != 1:
            raise ShapeError(f"backward root must be a scalar, got shape {root.shape}")
        self._spent = True
        root.grad = np.ones_like(root.data)
        records = self._records
        while records:
            records.pop()()


def _tracked(inputs: Sequence[Tensor]) -> bool:
    return Tape.active() is not None and any(t.requires_grad for t in inputs)


def _record(y: Tensor, inputs: Sequence[Tensor], rule: Callable[..., None]) -> None:
    """Put ``y``'s backward on the active tape: ``rule(g, *slots)`` gets
    ``y``'s gradient, taken from its slot, and one gradient slot per input,
    None where that input needs no gradient. The record holds the slots and
    ``rule``, never a tensor; each rule names its slot parameters after the
    inputs, so it cannot reach an input tensor by name."""
    out = y.slot
    slots = tuple(t.slot if t.requires_grad else None for t in inputs)

    def backward():
        g, out.grad = out.grad, None
        if g is not None:
            rule(g, *slots)
    Tape.active().record(backward)


def _accumulate(slot: GradSlot, g: np.ndarray) -> None:
    slot.grad = g if slot.grad is None else slot.grad + g


def _keys_first(a: np.ndarray) -> np.ndarray:
    """A C-order copy of ``a`` with its last axis, the key axis, moved first."""
    n = a.shape[-1]
    out = np.empty(a.shape[-1:] + a.shape[:-1], a.dtype)
    np.copyto(out.reshape(n, -1), a.reshape(-1, n).T)
    return out


def _softmax_keys(e: np.ndarray) -> np.ndarray:
    """Softmax over axis 0, the key axis, of ``_keys_first``'s copy, which it
    overwrites; returns the probabilities with the key axis moved back last,
    in a fresh C-order array. The scores are shifted by their key maximum, so
    large ones stay finite. Both reductions run over the outer axis, one key
    at a time and in key order, vectorised across every row at once; a lone
    row (every other axis of size 1) gets numpy's pairwise sum instead."""
    e -= np.maximum.reduce(e, axis=0)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=0)
    n = e.shape[0]
    p = np.empty(e.shape[1:] + (n,), e.dtype)
    np.copyto(p.reshape(-1, n), e.reshape(n, -1).T)
    return p


def _key_dot(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``(g * p).sum(axis=-1, keepdims=True)``, summed over keys as
    ``_softmax_keys`` sums."""
    return np.add.reduce(_keys_first(g * p), axis=0)[..., None]


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data, requires_grad=_tracked((a, b)))
    if out.requires_grad:
        def rule(g, a, b):
            if a is not None:
                _accumulate(a, g)
            if b is not None:
                _accumulate(b, g)
        _record(out, (a, b), rule)
    return out


def lerp(a: Tensor, b: Tensor, t: float) -> Tensor:
    """``add(scale(a, 1 - t), scale(b, t))`` in one record, rounding as that chain does."""
    _same_shape(a, b, "lerp")
    t, s = float(t), float(1 - t)
    out = Tensor(a.data * s + b.data * t, requires_grad=_tracked((a, b)))
    if out.requires_grad:
        def rule(g, a, b):
            for slot, c in ((b, t), (a, s)):  # b first, as the chain's records ran
                if slot is not None:
                    _accumulate(slot, g * c)
        _record(out, (a, b), rule)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data, requires_grad=_tracked((a, b)))
    if out.requires_grad:
        def rule(g, a, b):
            if a is not None:
                _accumulate(a, g)
            if b is not None:
                _accumulate(b, -g)
        _record(out, (a, b), rule)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shaped tensors."""
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data, requires_grad=_tracked((a, b)))
    if out.requires_grad:
        # each operand only where the other's gradient reads it
        a_data = a.data if b.requires_grad else None
        b_data = b.data if a.requires_grad else None
        def rule(g, a, b):
            if a is not None:
                _accumulate(a, g * b_data)
            if b is not None:
                _accumulate(b, g * a_data)
        _record(out, (a, b), rule)
    return out


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (the only sanctioned broadcast)."""
    s = float(s)
    out = Tensor(x.data * s, requires_grad=_tracked((x,)))
    if out.requires_grad:
        def rule(g, x):
            _accumulate(x, g * s)
        _record(out, (x,), rule)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: strict 2-D, or stacked with identical leading dims."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(
            f"matmul: leading dims {a.data.shape[:-2]} and {b.data.shape[:-2]} differ"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: inner dims {a.data.shape[-1]} and {b.data.shape[-2]} differ"
        )
    out = Tensor(a.data @ b.data, requires_grad=_tracked((a, b)))
    if out.requires_grad:
        a_data = a.data if b.requires_grad else None
        b_data = b.data if a.requires_grad else None
        def rule(g, a, b):
            if a is not None:
                _accumulate(a, g @ np.swapaxes(b_data, -1, -2))
            if b is not None:
                _accumulate(b, np.swapaxes(a_data, -1, -2) @ g)
        _record(out, (a, b), rule)
    return out


def linear(x: Tensor, w: Tensor, dw: Optional[Tensor] = None, s: float = 0.0) -> Tensor:
    """``x @ (w + s * dw)`` for a 2-D ``x``: a projection plus its scaled
    update in one record; without ``dw`` it is ``x @ w``."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: cannot multiply {x.data.shape} by {w.data.shape}")
    if dw is None:
        w_eff, inputs = w.data, (x, w)
    else:
        _same_shape(w, dw, "linear")
        s = float(s)
        w_eff, inputs = w.data + dw.data * s, (x, w, dw)
    out = Tensor(x.data @ w_eff, requires_grad=_tracked(inputs))
    if out.requires_grad:
        # the input only for the weight gradient (none behind a frozen
        # weight), the effective weight only for the input's
        x_data = x.data if any(t.requires_grad for t in inputs[1:]) else None
        w_data = w_eff if x.requires_grad else None
        def rule(g, x, w, dw=None):
            if x is not None:
                _accumulate(x, g @ w_data.T)
            if w is not None or dw is not None:
                gw = x_data.T @ g
                if w is not None:
                    _accumulate(w, gw)
                if dw is not None:
                    _accumulate(dw, gw * s)
        _record(out, inputs, rule)
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, batch: int, heads: int) -> Tensor:
    """Scaled dot-product softmax attention over flat ``[batch * seq, d]``
    projections, split into ``heads`` heads of ``d / heads``; returns the
    context flat again.

    Per head: ``softmax(q @ k^T / sqrt(hd)) @ v``. The products take the
    permuted views of ``q``, ``k`` and ``v``, as the chain of reshape, permute
    and matmul records did, with no C-order copies.
    """
    _same_shape(q, k, "attention")
    _same_shape(q, v, "attention")
    if q.data.ndim != 2:
        raise ShapeError(f"attention expects flat [batch * seq, d], got {q.data.shape}")
    n, d = q.data.shape
    if batch < 1 or heads < 1 or n % batch or d % heads:
        raise ShapeError(f"attention: {q.data.shape} does not split into "
                         f"{batch} sequences of {heads} heads")
    seq, hd = n // batch, d // heads

    def split(a):  # [batch, heads, seq, hd] view
        return a.reshape(batch, seq, heads, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    c = 1.0 / math.sqrt(hd)
    # the scaled scores copied once, key axis outermost, and reduced there as
    # in ``softmax``; ``p`` comes back [batch, heads, query, key] in C order
    pk = _keys_first(qh @ kh.transpose(0, 1, 3, 2))
    pk *= c
    p = _softmax_keys(pk)
    del pk  # the product below holds p and not also the scores
    ctx = p @ vh
    out = Tensor(ctx.transpose(0, 2, 1, 3).reshape(n, d),
                 requires_grad=_tracked((q, k, v)))
    if out.requires_grad:
        # the score gradient reads v; q's gradient reads k, and k's reads q
        scores_grad = q.requires_grad or k.requires_grad
        q_heads = qh if k.requires_grad else None
        k_heads = kh if q.requires_grad else None
        v_heads = vh if scores_grad else None
        def rule(g, q, k, v):
            gc = split(g)
            if v is not None:
                gv = np.swapaxes(p, -1, -2) @ gc
                _accumulate(v, gv.transpose(0, 2, 1, 3).reshape(n, d))
            if not scores_grad:
                return
            gs = gc @ np.swapaxes(v_heads, -1, -2)
            gs -= _key_dot(gs, p)
            gs *= p
            gs *= c
            if q is not None:
                gq = gs @ k_heads
                _accumulate(q, gq.transpose(0, 2, 1, 3).reshape(n, d))
            if k is not None:
                gk = np.swapaxes(q_heads, -1, -2) @ gs  # [batch, heads, hd, seq]
                _accumulate(k, gk.transpose(0, 3, 1, 2).reshape(n, d))
        _record(out, (q, k, v), rule)
    return out


def mlp(x: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """``relu(x @ w1) @ w2`` for a 2-D ``x``, in one record."""
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or x.data.shape[1] != w1.data.shape[0] or w1.data.shape[1] != w2.data.shape[0]):
        raise ShapeError(f"mlp: cannot chain {x.data.shape} @ {w1.data.shape} "
                         f"@ {w2.data.shape}")
    h = x.data @ w1.data
    np.maximum(h, 0, out=h)  # relu in place on the fresh hidden array
    out = Tensor(h @ w2.data, requires_grad=_tracked((x, w1, w2)))
    if out.requires_grad:
        # x's and w1's gradients need only where the hidden array is positive
        # (relu(z) > 0 exactly where z > 0): a bool mask, a quarter its size;
        # the array itself is kept only for w2's gradient, and x only for w1's
        hidden_grad = x.requires_grad or w1.requires_grad
        hidden = h if w2.requires_grad else None
        active = h > 0 if hidden_grad else None
        x_data = x.data if w1.requires_grad else None
        w1_data = w1.data if x.requires_grad else None
        w2_data = w2.data if hidden_grad else None
        def rule(g, x, w1, w2):
            if w2 is not None:
                _accumulate(w2, hidden.T @ g)
            if hidden_grad:
                gh = g @ w2_data.T
                gh *= active
                if x is not None:
                    _accumulate(x, gh @ w1_data.T)
                if w1 is not None:
                    _accumulate(w1, x_data.T @ gh)
        _record(out, (x, w1, w2), rule)
    return out


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = Tensor(x.data.reshape(shape), requires_grad=_tracked((x,)))
    if out.requires_grad:
        orig = x.data.shape
        def rule(g, x):
            _accumulate(x, g.reshape(orig))
        _record(out, (x,), rule)
    return out


def unstack(x: Tensor) -> list[Tensor]:
    """The slices of ``x`` along its first axis as tensors of their own, in one
    record that stacks their gradients into ``x``'s (zeros where one got none)."""
    outs = [Tensor(part, requires_grad=_tracked((x,))) for part in x.data]
    if _tracked((x,)):
        slot, parts, zero = x.slot, [t.slot for t in outs], np.zeros_like(x.data[0])
        def backward():
            grads = [part.grad for part in parts]
            for part in parts:
                part.grad = None
            if any(g is not None for g in grads):
                _accumulate(slot, np.stack([zero if g is None else g for g in grads]))
        Tape.active().record(backward)
    return outs


def permute(x: Tensor, axes: tuple) -> Tensor:
    out = Tensor(np.transpose(x.data, axes), requires_grad=_tracked((x,)))
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))
        def rule(g, x):
            _accumulate(x, np.transpose(g, inverse))
        _record(out, (x,), rule)
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0), requires_grad=_tracked((x,)))
    if out.requires_grad:
        mask = (x.data > 0).astype(x.data.dtype)
        def rule(g, x):
            _accumulate(x, g * mask)
        _record(out, (x,), rule)
    return out


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, reduced key-major as in ``attention``."""
    y = _softmax_keys(_keys_first(x.data))
    out = Tensor(y, requires_grad=_tracked((x,)))
    if out.requires_grad:
        def rule(g, x):
            gx = g - _key_dot(g, y)
            gx *= y
            _accumulate(x, gx)
        _record(out, (x,), rule)
    return out


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance (no affine).

    The row mean and variance are BLAS products ``flat @ avg`` with a column
    of ``1/d``, taken over the 2-D ``[rows, d]`` view whatever ``x``'s rank,
    so a 3-D input rounds as its flattened 2-D form does. A row's statistics
    can differ in the last bit with the row's place in the batch (the BLAS
    kernel's blocking), not with the BLAS thread count."""
    shape, d = x.data.shape, x.data.shape[-1]
    avg = np.full((d, 1), 1.0 / d, dtype=x.data.dtype)
    flat = x.data.reshape(-1, d)
    xhat = flat - flat @ avg
    inv = 1.0 / np.sqrt((xhat * xhat) @ avg + eps)
    xhat *= inv
    out = Tensor(xhat.reshape(shape), requires_grad=_tracked((x,)))
    if out.requires_grad:
        def rule(g, x):
            g = g.reshape(-1, d)
            m1 = g @ avg
            tmp = g * xhat
            m2 = tmp @ avg
            np.multiply(xhat, m2, out=tmp)
            gx = g - m1
            gx -= tmp
            gx *= inv
            _accumulate(x, gx.reshape(shape))
        _record(out, (x,), rule)
    return out


def mean(x: Tensor, axis: Optional[int] = None) -> Tensor:
    """Mean over all entries (axis=None) or over a single axis."""
    out = Tensor(x.data.mean(axis=axis), requires_grad=_tracked((x,)))
    if out.requires_grad:
        shape = x.data.shape
        n = x.data.size if axis is None else shape[axis]
        def rule(g, x):
            if axis is None:
                _accumulate(x, np.full(shape, 1.0 / n, dtype=g.dtype) * g)
            else:
                _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), shape) / n)
        _record(out, (x,), rule)
    return out


def embed(tokens: np.ndarray, table: Tensor, positions: Tensor) -> Tensor:
    """Token embedding lookup plus positional embedding.

    ``tokens`` is an integer array [batch, seq]; the output row for position t
    is ``table[tokens[b, t]] + positions[t]``. The embeddings are frozen, so
    the lookup records nothing on the tape, and a table that requires a
    gradient is refused instead of silently getting none.
    """
    if table.requires_grad or positions.requires_grad:
        raise StateError("embed has no backward rule; its tables must not require a gradient")
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"embed expects [batch, seq] tokens, got shape {tokens.shape}")
    seq = tokens.shape[1]
    if seq > positions.data.shape[0]:
        raise ValueError(
            f"sequence length {seq} exceeds maximum {positions.data.shape[0]}"
        )
    if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= table.data.shape[0]:
        raise ValueError("token id out of vocabulary range")
    return Tensor(table.data[tokens] + positions.data[:seq])


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise ShapeError(
            f"cross_entropy expects logits [n, c] and labels [n]; got "
            f"{logits.data.shape} and {labels.shape}"
        )
    n = logits.data.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(n), labels]
    out = Tensor(np.asarray((lse - picked).mean(), dtype=logits.dtype),
                 requires_grad=_tracked((logits,)))
    if out.requires_grad:
        probs = np.exp(shifted - lse[:, None])
        def rule(g, logits):
            gl = probs.copy()
            gl[np.arange(n), labels] -= 1.0
            _accumulate(logits, gl * (g / n))
        _record(out, (logits,), rule)
    return out


def _step(v: np.ndarray) -> np.ndarray:
    # unit step with the x <= 0 branch mapped to 0
    return (v > 0).astype(v.dtype)


def threshold_pseudograd(x: np.ndarray, threshold: float, bandwidth: float) -> np.ndarray:
    """Straight-through estimate of d(x * H(x - threshold)) / d threshold.

    A rectangular kernel of width ``bandwidth`` around the threshold: the
    estimate is -threshold/bandwidth where (x - threshold)/bandwidth falls in
    (-1/2, 1/2] and zero everywhere else. This is one side of the gate;
    ``jumprelu`` applies it at x and at -x.
    """
    u = (x - threshold) / bandwidth
    return -(threshold / bandwidth) * (_step(u + 0.5) - _step(u - 0.5))


def jump_mask(x: np.ndarray, threshold: float) -> np.ndarray:
    """The jump gate's rule H(|x| - threshold), as 0/1 in ``x``'s dtype."""
    return _step(np.abs(x) - threshold)


def jumprelu(x: Tensor, threshold: Tensor, bandwidth: float) -> Tensor:
    """Magnitude gate at a learnable threshold: x * H(|x| - threshold).

    Backward passes the incoming gradient through active entries only. The
    threshold gets the straight-through kernel (``threshold_pseudograd``) of
    each side, -g * psi(-x) then g * psi(x), as two sums over entries: where
    the bands overlap (threshold < bandwidth / 2) one sum would round differently.
    """
    if bandwidth <= 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
    t = threshold.item()  # a ShapeError unless the threshold is a scalar
    active = jump_mask(x.data, t)
    out = Tensor(x.data * active, requires_grad=_tracked((x, threshold)))
    if out.requires_grad:
        mask = active if x.requires_grad else None
        x_data = x.data if threshold.requires_grad else None
        t_dtype, t_shape = threshold.dtype, threshold.data.shape
        def rule(g, x, threshold):
            if x is not None:
                _accumulate(x, g * mask)
            if threshold is not None:
                for side in (((-g) * threshold_pseudograd(-x_data, t, bandwidth)).sum(),
                             (g * threshold_pseudograd(x_data, t, bandwidth)).sum()):
                    _accumulate(threshold, np.asarray(side, dtype=t_dtype).reshape(t_shape))
        _record(out, (x, threshold), rule)
    return out


def frobenius_sq(x: Tensor, mask: Optional[np.ndarray] = None, weight: float = 1.0) -> Tensor:
    """``weight * ||x * mask||_F^2`` for a same-shaped ``mask`` (none by default),
    in one record that rounds as ``scale(frobenius_sq(mul(x, mask)), weight)`` does."""
    if mask is not None and mask.shape != x.data.shape:
        raise ShapeError(f"frobenius_sq: shapes {x.data.shape} and {mask.shape} differ")
    xm = x.data if mask is None else x.data * mask
    w = float(weight)
    out = Tensor(np.asarray((xm * xm).sum(), dtype=xm.dtype) * w,
                 requires_grad=_tracked((x,)))
    if out.requires_grad:
        def rule(g, x):
            gx = (2.0 * xm) * (g * w)
            _accumulate(x, gx if mask is None else gx * mask)
        _record(out, (x,), rule)
    return out

"""Adam with bias correction and linear warmup."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor

# Adam's moment decay rates and denominator offset
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class AdamW:
    """First/second-moment adaptive update; no weight decay.

    The learning rate ramps as ``lr * (t + 1) / warmup_steps`` over the first
    ``warmup_steps`` steps. A parameter whose ``grad`` is None is skipped,
    moments included. The name is kept because the benchmark's instrumentation
    patches ``AdamW.step`` and ``AdamW.zero_grad`` by name.
    """

    def __init__(self, params: Sequence[Tensor], lr: float, warmup_steps: int = 0):
        self.params = list(params)
        self.lr = float(lr)
        self.warmup_steps = int(warmup_steps)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def current_lr(self) -> float:
        if self.warmup_steps > 0 and self._t < self.warmup_steps:
            return self.lr * (self._t + 1) / self.warmup_steps
        return self.lr

    def step(self) -> None:
        lr_t = self.current_lr()
        self._t += 1
        bc1 = 1.0 - BETA1 ** self._t
        bc2 = 1.0 - BETA2 ** self._t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self._m[i] = BETA1 * self._m[i] + (1.0 - BETA1) * g
            self._v[i] = BETA2 * self._v[i] + (1.0 - BETA2) * (g * g)
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.data = p.data - lr_t * (m_hat / (np.sqrt(v_hat) + EPS))

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

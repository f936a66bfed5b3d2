import numpy as np

from loragate.autodiff import Tensor
from loragate.optim import AdamW


def reference_adam(x, grads, lr, warmup_steps):
    """Adam with bias correction and a linear warmup, written out in float64.

    ``grads[k]`` is the gradient at step k + 1, or None for a step without
    one; returns the value after every step."""
    x = np.array(x, dtype=np.float64)
    m, v, out = np.zeros_like(x), np.zeros_like(x), []
    for t, g in enumerate(grads, start=1):
        if g is not None:
            lr_t = lr * min(t, warmup_steps) / warmup_steps
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            x = x - lr_t * m_hat / (np.sqrt(v_hat) + 1e-8)
        out.append(x.copy())
    return out


def test_matches_hand_written_adam_with_warmup():
    x0 = np.array([[0.5, -1.0], [2.0, 0.0]])
    grads = [np.array([[0.3, -0.2], [1.5, 0.01]]),
             np.array([[-0.1, -0.4], [0.5, 0.02]]),
             np.array([[0.2, 0.3], [-2.0, 0.0]])]
    p = Tensor(x0.copy(), requires_grad=True)
    opt = AdamW([p], lr=0.1, warmup_steps=2)
    lrs, values = [], []
    for g in grads:
        lrs.append(opt.current_lr())
        p.grad = g
        opt.step()
        opt.zero_grad()
        values.append(p.data.copy())
    assert lrs == [0.05, 0.1, 0.1]  # (t + 1) / warmup, then flat
    assert p.data.dtype == np.float64
    # a first Adam step moves every entry by the step's rate against its gradient
    np.testing.assert_allclose(values[0], x0 - 0.05 * np.sign(grads[0]), rtol=0, atol=1e-6)
    for got, want in zip(values, reference_adam(x0, grads, lr=0.1, warmup_steps=2)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_parameter_without_grad_keeps_value_and_moments():
    # a gate threshold has no gradient before its init step
    a0, b0 = np.array([1.0, -2.0]), np.array([0.25])
    ga = [np.array([0.5, 0.1]), np.array([-0.3, 0.2]), np.array([0.1, 0.1])]
    gb = [np.array([0.4]), None, np.array([-0.7])]
    a, b = Tensor(a0.copy()), Tensor(b0.copy())
    opt = AdamW([a, b], lr=0.01, warmup_steps=2)
    values = []
    for g_a, g_b in zip(ga, gb):
        a.grad, b.grad = g_a, g_b
        opt.step()
        opt.zero_grad()
        values.append(b.data.copy())
    np.testing.assert_array_equal(values[1], values[0])
    # had step 2 decayed b's moments, step 3 would move it differently
    for got, want in zip(values, reference_adam(b0, gb, lr=0.01, warmup_steps=2)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    np.testing.assert_allclose(a.data, reference_adam(a0, ga, lr=0.01, warmup_steps=2)[-1],
                               rtol=1e-13, atol=0)


def test_zero_grad_clears_every_gradient():
    params = [Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(()))]
    for p in params:
        p.grad = np.ones_like(p.data)
    opt = AdamW(params, lr=0.1)
    opt.zero_grad()
    assert all(p.grad is None for p in params)

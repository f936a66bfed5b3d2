"""Central finite-difference oracles and the gradient-check suite built on them.

Every check runs in float64; finite differences are unreliable in single
precision. The oracle only ever evaluates the forward function, so it stays
independent of the backward rules it validates.

``run_gradcheck`` (the ``loragate gradcheck`` command) checks each nontrivial
primitive the package calls against these oracles, the threshold pseudo-gradient
case by case against its closed-form kernel value, and the adapter-factor and
overlap-penalty gradients through a small model; it prints PASS or FAIL per check.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from .adapter import init_adapter
from .autodiff import (
    Tape,
    Tensor,
    attention,
    cross_entropy,
    frobenius_sq,
    jumprelu,
    layer_norm,
    lerp,
    linear,
    matmul,
    mean,
    mlp,
    unstack,
)
from .ella import ella_penalty
from .model import build_model

DEFAULT_STEP = 1e-6


def numeric_grad(
    f: Callable[..., float],
    arrays: Sequence[np.ndarray],
    index: int,
    step: float = DEFAULT_STEP,
) -> np.ndarray:
    """Central finite differences of scalar-valued ``f`` w.r.t. ``arrays[index]``."""
    work = [np.array(a, dtype=np.float64) for a in arrays]
    target = work[index]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f(*work))
        flat[i] = orig - step
        fm = float(f(*work))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute deviation normalized by the largest gradient magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(
        float(np.abs(analytic).max(initial=0.0)),
        float(np.abs(numeric).max(initial=0.0)),
        1e-12,
    )
    return float(np.abs(analytic - numeric).max(initial=0.0)) / denom


def _check(results, name, builder, arrays, wrt, tol=1e-4) -> None:
    """Append (name, max relative error, tol) for the taped gradient of the
    scalar ``builder(*tensors)`` against finite differences, worst over the
    argument indices in ``wrt``; all in float64."""
    worst = 0.0
    for i in wrt:
        tensors = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
        with Tape() as tape:
            tape.backward(builder(*tensors))

        def forward(*arr):
            return builder(*[Tensor(a, dtype=np.float64) for a in arr]).item()
        worst = max(worst, rel_error(tensors[i].grad, numeric_grad(forward, arrays, i)))
    results.append((name, worst, tol))


def _fd_checks() -> list[tuple[str, float, float]]:
    """Finite-difference suite over each nontrivial primitive the package calls.

    Returns (name, max relative error, tolerance) per check; all oracles run
    in float64 with the inputs kept away from non-smooth points.
    """
    rng = np.random.default_rng(20240901)
    results = []
    run = partial(_check, results)

    a, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4))
    run("matmul", lambda x, y: mean(matmul(x, y)), [a, b], (0, 1), tol=1e-6)
    run("frobenius_sq", lambda x: frobenius_sq(x), [rng.normal(size=(4, 4))], (0,), tol=1e-6)
    run("lerp", lambda x, y: frobenius_sq(lerp(x, y, 0.3)), [a, 1 - 2 * a], (0, 1), tol=1e-6)
    r = rng.normal(size=(4, 6))
    run("frobenius_sq_masked", lambda x: frobenius_sq(x, r, 2.5), [1 - r], (0,), tol=1e-6)
    # masked, since the squared norm of a normalized row hardly moves
    run("layer_norm", lambda x: frobenius_sq(layer_norm(x), r),
        [rng.normal(size=(4, 6))], (0,))
    w = rng.normal(size=(6, 5))
    run("linear", lambda x, y: frobenius_sq(linear(x, y)),
        [rng.normal(size=(4, 6)), w], (0, 1), tol=1e-6)
    run("linear_update", lambda x, y, z: frobenius_sq(linear(x, y, z, 0.7)),
        [rng.normal(size=(4, 6)), w, rng.normal(size=(6, 5))], (0, 1, 2), tol=1e-6)
    # 2 sequences of 3 positions, 2 heads of width 2
    run("attention", lambda q, k, v: frobenius_sq(attention(q, k, v, 2, 2)),
        [rng.normal(size=(6, 4)) for _ in range(3)], (0, 1, 2))
    x, w1 = rng.normal(size=(5, 4)), rng.normal(size=(4, 7))
    while np.abs(x @ w1).min() < 0.05:  # keep the hidden units off the relu kink
        x, w1 = rng.normal(size=(5, 4)), rng.normal(size=(4, 7))
    run("mlp", lambda a, b, c: frobenius_sq(mlp(a, b, c)),
        [x, w1, rng.normal(size=(7, 3))], (0, 1, 2))
    run("mean_axis", lambda x: frobenius_sq(mean(x, axis=1)),
        [rng.normal(size=(3, 5, 4))], (0,))

    labels = rng.integers(0, 5, size=8)
    run("cross_entropy", lambda x: cross_entropy(x, labels),
        [rng.normal(size=(8, 5))], (0,))

    # jump gate input gradient, sampled off the kernel band
    eps = 1e-3
    tau = 0.5
    x = rng.normal(size=(6, 6))
    x = np.where(np.abs(np.abs(x) - tau) < 10 * eps, x + 0.2, x)
    run("jumprelu_input",
        lambda t, th: frobenius_sq(jumprelu(t, th, eps)),
        [x, np.asarray(tau)], (0,))
    return results


def _psi_casewise_check(points: int = 10_000) -> tuple[str, float, float]:
    """Compare the implemented threshold gradient against the closed-form
    kernel value on a grid: -threshold/bandwidth where (x - threshold)/bandwidth
    lies in (-1/2, 1/2], +threshold/bandwidth where (-x - threshold)/bandwidth
    does (the bands are disjoint here), else 0."""
    eps = 1e-3
    rng = np.random.default_rng(7)
    side = int(np.sqrt(points))
    taus = rng.uniform(0.05, 1.5, size=side)
    worst = 0.0
    for tau in taus:
        x = np.concatenate([
            rng.uniform(-2, 2, size=side - 2 * (side // 3)),
            tau + eps * rng.uniform(-1.0, 1.0, size=side // 3),  # stress both bands
            -tau + eps * rng.uniform(-1.0, 1.0, size=side // 3),
        ])
        got = np.empty_like(x)
        for i, xi in enumerate(x):
            th = Tensor(np.asarray(tau), requires_grad=True)
            with Tape() as tape:
                out = jumprelu(Tensor(np.asarray([xi])), th, eps)
                tape.backward(mean(out))
            got[i] = 0.0 if th.grad is None else float(th.grad)
        u = np.stack([x - tau, -x - tau]) / eps
        inside = (u > -0.5) & (u <= 0.5)
        want = np.where(inside[0], -(tau / eps), np.where(inside[1], tau / eps, 0.0))
        err = np.abs(got - want).max(initial=0.0)
        ulp = np.spacing(np.abs(want).max(initial=1.0))
        worst = max(worst, err / ulp)
    return ("threshold_pseudograd_casewise", worst, 1.0)


def _model_gradient_checks() -> list[tuple[str, float, float]]:
    """End-to-end factor and penalty gradients through a small model's bank
    of two adapters; the penalty reads one of its slices (``unstack``)."""
    rng = np.random.default_rng(3)
    model = build_model(vocab_size=16, d_model=16, n_heads=2, n_blocks=1,
                        seq_len=6, num_classes=3, seed=5, dtype=np.float64)
    tokens = rng.integers(0, 16, size=(4, 6))
    labels = rng.integers(0, 3, size=4)
    factors = [np.stack([init_adapter(16, 16, 2, seed=s, dtype=np.float64).down.data
                         for s in (11, 12)]), rng.normal(scale=0.2, size=(2, 2, 16))]
    results = []

    def task_loss(down, up):
        updates = dict(zip(model.adapted_layers, unstack(matmul(down, up))))
        return cross_entropy(model.forward(tokens, updates, 4.0), labels)
    _check(results, "model_down_factor", task_loss, factors, (0,))
    _check(results, "model_up_factor", task_loss, factors, (1,))
    past = rng.normal(size=(16, 16))
    _check(results, "overlap_penalty",
           lambda down, up: ella_penalty(unstack(matmul(down, up))[1], past, 2.0),
           factors, (1,))
    return results


def run_gradcheck() -> int:
    checks = _fd_checks() + [_psi_casewise_check()] + _model_gradient_checks()
    failed = 0
    for name, err, tol in checks:
        ok = err < tol
        failed += 0 if ok else 1
        unit = "ulp" if name.endswith("casewise") else "rel_err"
        print(f"{'PASS' if ok else 'FAIL'}  {name:32s} max_{unit}={err:.3e}  tol={tol:.0e}")
    print(f"{len(checks) - failed}/{len(checks)} gradient checks passed")
    return 0 if failed == 0 else 1

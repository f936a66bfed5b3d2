import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loragate.autodiff import (
    Tape,
    Tensor,
    add,
    attention,
    cross_entropy,
    embed,
    frobenius_sq,
    jumprelu,
    layer_norm,
    lerp,
    linear,
    matmul,
    mean,
    mlp,
    mul,
    permute,
    relu,
    reshape,
    scale,
    softmax,
    sub,
    threshold_pseudograd,
    unstack,
)
from loragate.errors import ConfigError, ShapeError, StateError

from conftest import fd_grad, rel_err

# every record a test here builds keeps gradient slots and arrays only
pytestmark = pytest.mark.usefixtures("records_hold_no_tensor")


def t64(a, grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


class TestTensor:
    def test_lists_become_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_float64_arrays_keep_dtype(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    @pytest.mark.parametrize("data", [7, np.arange(3), np.array([True, False]),
                                      [[True], [False]]])
    def test_ints_and_bools_become_float32(self, data):
        assert Tensor(data).dtype == np.float32

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestTape:
    def test_backward_twice_is_an_error(self):
        x = t64([[1.0, 2.0]], grad=True)
        with Tape() as tape:
            out = frobenius_sq(x)
        tape.backward(out)
        with pytest.raises(StateError):
            tape.backward(out)

    def test_backward_needs_scalar_root(self):
        x = t64([[1.0, 2.0]], grad=True)
        with Tape() as tape:
            out = scale(x, 2.0)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_no_recording_outside_tape(self):
        x = t64([[1.0, 2.0]], grad=True)
        out = frobenius_sq(x)
        assert not out.requires_grad

    def test_backward_drops_each_record_once_run(self):
        x = t64([[1.0, 2.0, 3.0]], grad=True)
        with Tape() as tape:
            y = softmax(x)
            saved = weakref.ref(y.data)  # read by both rules below
            loss = frobenius_sq(y)
            del y
            assert saved() is not None and len(tape) == 2
            tape.backward(loss)
        assert len(tape) == 0 and saved() is None
        assert x.grad is not None

    def test_operands_no_gradient_reads_are_not_kept(self):
        w, frozen = t64(np.eye(3), grad=True), t64(np.eye(3))
        with Tape() as tape:
            a = linear(t64(np.ones((2, 3))), w)
            b = add(a, a)
            c = mlp(b, frozen, frozen)
            y = add(linear(b, w), linear(c, frozen))
            arrays = [weakref.ref(t.data) for t in (a, b, c)]
            del a, b, c
            # of the three, only w's gradient reads one: b, its product's input
            assert [r() is not None for r in arrays] == [False, True, False]
            tape.backward(frobenius_sq(y))
        assert w.grad is not None

    def test_gradients_accumulate_across_uses(self):
        x = t64([2.0], grad=True)
        with Tape() as tape:
            out = mean(add(x, x))
            tape.backward(out)
        assert x.grad == pytest.approx([2.0])


class TestMatmul:
    def test_identity(self, rng):
        m = rng.normal(size=(2, 2))
        out = matmul(t64(np.eye(2)), t64(m))
        np.testing.assert_array_equal(out.data, m)

    def test_hand_arithmetic(self):
        out = matmul(t64([[1, 2], [3, 4]]), t64([[0], [1]]))
        np.testing.assert_array_equal(out.data, [[2], [4]])

    def test_gradients_match_finite_differences(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(3, 4))
        ta, tb = t64(a, grad=True), t64(b, grad=True)
        with Tape() as tape:
            tape.backward(mean(matmul(ta, tb)))

        def f(x, y):
            return matmul(Tensor(x), Tensor(y)).data.mean()

        assert rel_err(ta.grad, fd_grad(f, [a, b], 0)) < 1e-6
        assert rel_err(tb.grad, fd_grad(f, [a, b], 1)) < 1e-6

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_batch_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((3, 4, 5))))

    def test_stacked_batches(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        np.testing.assert_allclose(matmul(t64(a), t64(b)).data, a @ b)


class TestElementwise:
    def test_add_sub_mul_shapes_must_match(self):
        x, y = t64(np.zeros((2, 2))), t64(np.zeros((2, 3)))
        for op in (add, sub, mul):
            with pytest.raises(ShapeError):
                op(x, y)

    def test_mul_gradients(self, rng):
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        ta, tb = t64(a, grad=True), t64(b, grad=True)
        with Tape() as tape:
            tape.backward(frobenius_sq(mul(ta, tb)))

        def f(x, y):
            return float(((x * y) ** 2).sum())

        assert rel_err(ta.grad, fd_grad(f, [a, b], 0)) < 1e-6
        assert rel_err(tb.grad, fd_grad(f, [a, b], 1)) < 1e-6


class TestJumpRelu:
    def test_casewise_values(self):
        th = t64(1.0)
        assert jumprelu(t64([2.0]), th, 1e-3).data[0] == 2.0
        assert jumprelu(t64([0.5]), th, 1e-3).data[0] == 0.0
        assert jumprelu(t64([-0.5]), th, 1e-3).data[0] == 0.0
        assert jumprelu(t64([-2.0]), th, 1e-3).data[0] == -2.0

    def test_threshold_kernel_spot_values(self):
        # inside the kernel band: -tau/eps; far outside: exactly zero
        assert threshold_pseudograd(np.asarray(1.0002), 1.0, 1e-3) == -1000.0
        assert threshold_pseudograd(np.asarray(2.0), 1.0, 1e-3) == 0.0

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ConfigError):
            jumprelu(t64([1.0]), t64(1.0), 0.0)
        with pytest.raises(ConfigError):
            jumprelu(t64([1.0]), t64(1.0), -1e-3)

    def test_matches_masked_identity(self, rng):
        x = rng.normal(size=(17, 13))
        tau = 0.4
        got = jumprelu(t64(x), t64(tau), 1e-3).data
        want = x * (np.abs(x) > tau)
        np.testing.assert_array_equal(got, want)

    def test_input_gradient_matches_fd_away_from_jump(self, rng):
        eps = 1e-3
        tau = 0.5
        x = rng.normal(size=(8, 8))
        x = np.where(np.abs(np.abs(x) - tau) < 10 * eps, x + 0.5, x)
        tx = t64(x, grad=True)
        with Tape() as tape:
            tape.backward(frobenius_sq(jumprelu(tx, t64(tau), eps)))

        def f(arr):
            return float((jumprelu(Tensor(arr), Tensor(np.float64(tau)), eps).data ** 2).sum())

        assert rel_err(tx.grad, fd_grad(f, [x], 0)) < 1e-6

    def test_threshold_gradient_band(self, rng):
        # nonzero exactly where (x - tau)/eps lies in (-1/2, 1/2], value -tau/eps
        eps = 1e-3
        tau = 0.8
        u = np.concatenate([rng.uniform(-3, 3, size=400),
                            rng.uniform(-1.5, 1.5, size=400)])
        x = tau + u * eps
        kernel = threshold_pseudograd(x, tau, eps)
        inside = (u > -0.5) & (u <= 0.5)
        np.testing.assert_array_equal(kernel[inside], np.full(inside.sum(), -tau / eps))
        np.testing.assert_array_equal(kernel[~inside], np.zeros((~inside).sum()))

    def test_threshold_gradient_band_edges(self):
        # power-of-two bandwidth keeps tau +/- eps/2 exactly representable
        eps = 2.0 ** -10
        tau = 1.0
        # u = +1/2 is inside the band, u = -1/2 is outside
        assert threshold_pseudograd(np.asarray(tau + eps / 2), tau, eps) == -tau / eps
        assert threshold_pseudograd(np.asarray(tau - eps / 2), tau, eps) == 0.0

    def test_threshold_gradient_wiring(self, rng):
        eps = 1e-3
        for _ in range(20):
            tau = float(rng.uniform(0.1, 1.0))
            xi = float(rng.uniform(tau - 2 * eps, tau + 2 * eps))
            th = t64(tau, grad=True)
            with Tape() as tape:
                out = jumprelu(t64([xi]), th, eps)
                tape.backward(mean(out))
            got = 0.0 if th.grad is None else float(th.grad)
            assert got == float(threshold_pseudograd(np.asarray(xi), tau, eps))

    def test_threshold_gradient_wiring_negative_side(self, rng):
        # near -tau the gate's negative side contributes -psi(-x) = +tau/eps
        eps = 1e-3
        for _ in range(20):
            tau = float(rng.uniform(0.1, 1.0))
            xi = float(rng.uniform(-tau - 2 * eps, -tau + 2 * eps))
            th = t64(tau, grad=True)
            with Tape() as tape:
                tape.backward(mean(jumprelu(t64([xi]), th, eps)))
            assert float(th.grad) == -float(threshold_pseudograd(np.asarray(-xi), tau, eps))

    @pytest.mark.parametrize("tau", [0.2, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_gradient_estimates_the_smoothed_loss(self, tau, seed):
        # For a linear loss L(θ) = Σ w·x·H(|x| − θ), the loss smoothed over θ
        # by the rectangular kernel has the exact gradient
        # (L(θ + ε/2) − L(θ − ε/2)) / ε = −Σ_band w·x / ε, and the rule gives
        # −Σ_band w·sign(x)·θ / ε. A band entry's |x| lies within ε/2 of θ, so
        # the two differ by at most ½·Σ_band |w|.
        eps = 0.1
        rng = np.random.default_rng(seed)
        # (|x| − θ) / ε: 16 entries inside the band and 16 outside, both away
        # from its edges; every other entry negative, so both sides are hit
        u = np.concatenate([rng.uniform(-0.45, 0.45, 16),
                            rng.choice([-1.0, 1.0], 16) * rng.uniform(0.55, 1.5, 16)])
        x = (tau + u * eps) * np.tile([1.0, -1.0], 16)
        w = rng.normal(size=x.size)
        th = t64(tau, grad=True)
        with Tape() as tape:
            out = jumprelu(t64(x), th, eps)
            tape.backward(matmul(reshape(out, (1, x.size)), t64(w.reshape(-1, 1))))

        def loss(t):
            return float((w * x * (np.abs(x) > t)).sum())

        smoothed = (loss(tau + eps / 2) - loss(tau - eps / 2)) / eps
        band = np.abs(np.abs(x) - tau) <= eps / 2
        assert band[x > 0].any() and band[x < 0].any()
        rounding = 1e-9 * (tau / eps) * np.abs(w).sum()
        assert abs(float(th.grad) - smoothed) <= 0.5 * np.abs(w[band]).sum() + rounding

    def test_backward_is_deterministic(self, rng):
        x = rng.normal(size=(6, 6))
        grads = []
        for _ in range(2):
            tx = t64(x.copy(), grad=True)
            th = t64(0.3, grad=True)
            with Tape() as tape:
                tape.backward(frobenius_sq(jumprelu(tx, th, 1e-3)))
            grads.append((tx.grad.copy(), np.copy(th.grad)))
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_array_equal(grads[0][1], grads[1][1])


class TestFrobenius:
    def test_hand_arithmetic(self):
        assert frobenius_sq(t64([[1.0, 2.0], [3.0, 0.0]])).item() == 14.0

    def test_zero_tensor(self):
        assert frobenius_sq(t64(np.zeros((3, 3)))).item() == 0.0

    def test_gradient_matches_fd(self, rng):
        x = rng.normal(size=(4, 4))
        tx = t64(x, grad=True)
        with Tape() as tape:
            tape.backward(frobenius_sq(tx))

        def f(arr):
            return float((arr ** 2).sum())

        assert rel_err(tx.grad, fd_grad(f, [x], 0)) < 1e-6


class TestNetworkOps:
    def test_softmax_gradient(self, rng):
        x = rng.normal(size=(4, 6))
        tx = t64(x, grad=True)
        with Tape() as tape:
            tape.backward(frobenius_sq(softmax(tx)))

        def f(arr):
            e = np.exp(arr - arr.max(axis=-1, keepdims=True))
            y = e / e.sum(axis=-1, keepdims=True)
            return float((y ** 2).sum())

        assert rel_err(tx.grad, fd_grad(f, [x], 0)) < 1e-4

    def test_layer_norm_gradient(self, rng):
        x = rng.normal(size=(3, 5))
        tx = t64(x, grad=True)
        with Tape() as tape:
            tape.backward(frobenius_sq(layer_norm(tx)))

        def f(ax):
            mu = ax.mean(axis=-1, keepdims=True)
            var = ax.var(axis=-1, keepdims=True)
            return float((((ax - mu) / np.sqrt(var + 1e-5)) ** 2).sum())

        assert rel_err(tx.grad, fd_grad(f, [x], 0)) < 1e-4

    def test_relu_gradient_away_from_kink(self, rng):
        x = rng.normal(size=(5, 5))
        x = np.where(np.abs(x) < 0.05, 0.3, x)
        tx = t64(x, grad=True)
        with Tape() as tape:
            tape.backward(frobenius_sq(relu(tx)))

        def f(arr):
            return float((np.maximum(arr, 0) ** 2).sum())

        assert rel_err(tx.grad, fd_grad(f, [x], 0)) < 1e-6

    def test_mean_axis_gradient(self, rng):
        x = rng.normal(size=(2, 4, 3))
        tx = t64(x, grad=True)
        with Tape() as tape:
            tape.backward(frobenius_sq(mean(tx, axis=1)))

        def f(arr):
            return float((arr.mean(axis=1) ** 2).sum())

        assert rel_err(tx.grad, fd_grad(f, [x], 0)) < 1e-6

    def test_cross_entropy_gradient(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        tl = t64(logits, grad=True)
        with Tape() as tape:
            tape.backward(cross_entropy(tl, labels))

        def f(arr):
            shifted = arr - arr.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1))
            return float((lse - shifted[np.arange(6), labels]).mean())

        assert rel_err(tl.grad, fd_grad(f, [logits], 0)) < 1e-4

    def test_cross_entropy_value(self):
        logits = t64([[100.0, 0.0], [0.0, 100.0]])
        assert cross_entropy(logits, np.array([0, 1])).item() == pytest.approx(0.0, abs=1e-6)

    def test_embed_lookup_and_bounds(self, rng):
        table = t64(rng.normal(size=(10, 4)))
        pos = t64(rng.normal(size=(8, 4)))
        tokens = np.array([[0, 3], [9, 1]])
        out = embed(tokens, table, pos)
        np.testing.assert_allclose(out.data, table.data[tokens] + pos.data[:2])
        with pytest.raises(ValueError):
            embed(np.array([[10, 0]]), table, pos)
        with pytest.raises(ValueError):
            embed(np.zeros((1, 9), dtype=int), table, pos)
        # frozen tables only: a gradient asked of them would silently stay None
        with pytest.raises(StateError):
            embed(tokens, t64(table.data, grad=True), pos)
        with pytest.raises(StateError):
            embed(tokens, table, t64(pos.data, grad=True))

    def test_reshape_permute_roundtrip_gradient(self, rng):
        x = rng.normal(size=(2, 3, 4))
        tx = t64(x, grad=True)
        with Tape() as tape:
            y = permute(reshape(tx, (6, 4)), (1, 0))
            tape.backward(frobenius_sq(y))
        np.testing.assert_allclose(tx.grad, 2 * x)


# The kernels below compute what the plain numpy formulas compute, bit for bit:
# each test compares against those formulas with ``np.array_equal``.
EXACT = settings(max_examples=80, deadline=None)
DTYPES = st.sampled_from([np.float32, np.float64])
SEEDS = st.integers(0, 2**32 - 1)
# leading dims, then a last axis that is often odd or 1
SHAPES = st.lists(st.integers(1, 5), min_size=0, max_size=3).flatmap(
    lambda lead: st.integers(1, 17).map(lambda last: (*lead, last)))


def sample(seed, shape, dtype, spread=4.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=spread, size=shape)
    # repeated entries, so ties in the row maximum occur
    x.reshape(-1)[::3] = np.round(x.reshape(-1)[::3])
    return x.astype(dtype)


class TestExactKernels:
    @EXACT
    @given(seed=SEEDS, shape=SHAPES, dtype=DTYPES)
    def test_softmax_matches_max_reduction(self, seed, shape, dtype):
        # the last axis moved outermost in a C-order copy, reduced there: a
        # maximum, and a sum taken one key at a time (pairwise on a lone row)
        x = sample(seed, shape, dtype)
        xk = np.ascontiguousarray(np.moveaxis(x, -1, 0))
        e = np.exp(xk - np.maximum.reduce(xk, axis=0))
        ref = np.moveaxis(e / np.add.reduce(e, axis=0), 0, -1)
        assert np.array_equal(softmax(Tensor(x)).data, ref)

    @EXACT
    @given(seed=SEEDS, shape=SHAPES, dtype=DTYPES)
    def test_layer_norm_matches_var_formula(self, seed, shape, dtype):
        x = sample(seed, shape, dtype)
        tx = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = layer_norm(tx)
            tape.backward(frobenius_sq(out))

        # row means as products of the flat [rows, d] view with a 1/d column
        d = shape[-1]
        avg = np.full((d, 1), 1.0 / d, dtype=dtype)
        flat = x.reshape(-1, d)
        centred = flat - flat @ avg
        inv = 1.0 / np.sqrt((centred * centred) @ avg + 1e-5)
        ref = centred * inv
        g = 2.0 * ref
        m1 = g @ avg
        m2 = (g * ref) @ avg
        assert np.array_equal(out.data, ref.reshape(shape))
        assert np.array_equal(tx.grad, ((g - m1 - ref * m2) * inv).reshape(shape))


class TestLargeScores:
    """Scores of about ±1e3 overflow an unshifted exp in float32 and in float64
    (exp(710) is inf in both): only the shift by the key maximum keeps the
    softmax of ``softmax`` and of ``attention`` finite."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_rows_stay_finite_and_sum_to_one(self, dtype):
        x = np.random.default_rng(0).uniform(-1e3, 1e3, size=(3, 5, 16)).astype(dtype)
        assert x.max() > 710 and x.min() < -710
        tx = Tensor(x, requires_grad=True)
        with Tape() as tape:
            y = softmax(tx)
            tape.backward(frobenius_sq(y))
        assert np.isfinite(y.data).all() and np.isfinite(tx.grad).all()
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, rtol=16 * np.finfo(dtype).eps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_rows_stay_finite_and_sum_to_one(self, dtype):
        # with every value 1, each context entry is the sum of a softmax row
        batch, seq, heads, hd = 2, 16, 2, 4
        rng = np.random.default_rng(1)
        q, k = (rng.normal(scale=32.0, size=(batch * seq, heads * hd)).astype(dtype)
                for _ in range(2))
        v = np.ones((batch * seq, heads * hd), dtype)
        qh, kh = (a.reshape(batch, seq, heads, hd).transpose(0, 2, 1, 3) for a in (q, k))
        scores = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(hd)
        assert scores.max() > 710 and scores.min() < -710
        out, grads = backprop(lambda a, b, c: attention(a, b, c, batch, heads),
                              (q, k, v), (True, True, True))
        assert all(np.isfinite(a).all() for a in [out, *grads])
        np.testing.assert_allclose(out, 1.0, rtol=16 * np.finfo(dtype).eps)


# The fused block primitives against the numpy of the chain of records they
# replace: the forward of each record, then each backward in reverse order.
# With ``frobenius_sq`` as the loss the upstream gradient is exactly 2 * out.
SIZES = st.integers(1, 5)
# widths on both sides of numpy's 8-accumulator pairwise sum, 16 the default's
WIDTHS = st.sampled_from([1, 2, 3, 5, 8, 9, 16, 17])
NEEDS = st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any)


def backprop(fn, arrays, needs):
    tensors = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs)]
    with Tape() as tape:
        out = fn(*tensors)
        tape.backward(frobenius_sq(out))
    return out.data, [t.grad for t in tensors]


def assert_grads_equal(got, want, needs):
    for g, w, r in zip(got, want, needs):
        if r:
            assert np.array_equal(g, w)
        else:
            assert g is None


def key_by_key(op, a):
    """``op`` folded over the last axis one key at a time, in key order."""
    acc = a[..., 0]
    for j in range(1, a.shape[-1]):
        acc = op(acc, a[..., j])
    return acc[..., None]


def attention_chain(q, k, v, batch, heads):
    """reshape/permute per head, q @ k^T, scale, softmax, @ v, permute, reshape."""
    n, d = q.shape
    seq, hd = n // batch, d // heads

    def split(a):
        return np.transpose(a.reshape(batch, seq, heads, hd), (0, 2, 1, 3))

    def merge(a):
        return np.transpose(a, (0, 2, 1, 3)).reshape(n, d)

    qh, kh, vh = split(q), split(k), split(v)
    kt = np.transpose(kh, (0, 1, 3, 2))
    c = 1.0 / math.sqrt(hd)
    scores = (qh @ kt) * c
    e = np.exp(scores - key_by_key(np.maximum, scores))
    p = e / key_by_key(np.add, e)
    out = merge(p @ vh)
    gc = np.transpose((2.0 * out).reshape(batch, seq, heads, hd), (0, 2, 1, 3))
    gp = gc @ np.swapaxes(vh, -1, -2)
    gvh = np.swapaxes(p, -1, -2) @ gc
    gscores = (gp - key_by_key(np.add, gp * p)) * p * c
    gqh = gscores @ np.swapaxes(kt, -1, -2)
    gkh = np.transpose(np.swapaxes(qh, -1, -2) @ gscores, (0, 1, 3, 2))
    return out, [merge(gqh), merge(gkh), merge(gvh)]


class TestFusedKernels:
    @EXACT
    @given(seed=SEEDS, batch=SIZES, seq=WIDTHS, heads=st.integers(1, 3), hd=WIDTHS,
           dtype=DTYPES, needs=NEEDS)
    def test_attention_matches_chain(self, seed, batch, seq, heads, hd, dtype, needs):
        shape = (batch * seq, heads * hd)
        q, k, v = (sample(seed + i, shape, dtype) for i in range(3))
        out, grads = backprop(lambda a, b, c: attention(a, b, c, batch, heads),
                              (q, k, v), needs)
        ref, ref_grads = attention_chain(q, k, v, batch, heads)
        assert out.dtype == dtype and np.array_equal(out, ref)
        assert_grads_equal(grads, ref_grads, needs)

    @EXACT
    @given(seed=SEEDS, rows=st.integers(1, 9), inner=st.integers(1, 9),
           cols=st.integers(1, 9), dtype=DTYPES, needs=NEEDS,
           update=st.booleans(), s=st.sampled_from([0.0, 0.5, 4.0, -3.0]))
    def test_linear_matches_chain(self, seed, rows, inner, cols, dtype, needs, update, s):
        """matmul(x, add(w, scale(dw, s))), or matmul(x, w) without an update."""
        assume(update or any(needs[:2]))
        x, w, dw = (sample(seed + i, shape, dtype) for i, shape in
                    enumerate([(rows, inner), (inner, cols), (inner, cols)]))
        if update:
            out, grads = backprop(lambda a, b, c: linear(a, b, c, s), (x, w, dw), needs)
            w_eff = w + dw * s
        else:
            needs = needs[:2]
            out, grads = backprop(linear, (x, w), needs)
            w_eff = w
        ref = x @ w_eff
        g = 2.0 * ref
        gw = np.swapaxes(x, -1, -2) @ g
        assert out.dtype == dtype and np.array_equal(out, ref)
        assert_grads_equal(grads, [g @ np.swapaxes(w_eff, -1, -2), gw, gw * s], needs)

    @EXACT
    @given(seed=SEEDS, rows=st.integers(1, 9), d=st.integers(1, 9),
           hidden=st.integers(1, 9), dtype=DTYPES, needs=NEEDS)
    def test_mlp_matches_chain(self, seed, rows, d, hidden, dtype, needs):
        """matmul(relu(matmul(x, w1)), w2)."""
        x, w1, w2 = (sample(seed + i, shape, dtype) for i, shape in
                     enumerate([(rows, d), (d, hidden), (hidden, d)]))
        out, grads = backprop(mlp, (x, w1, w2), needs)
        pre = x @ w1
        h = np.maximum(pre, 0)
        ref = h @ w2
        g = 2.0 * ref
        gpre = (g @ np.swapaxes(w2, -1, -2)) * (pre > 0).astype(dtype)
        want = [gpre @ np.swapaxes(w1, -1, -2), np.swapaxes(x, -1, -2) @ gpre,
                np.swapaxes(h, -1, -2) @ g]
        assert out.dtype == dtype and np.array_equal(out, ref)
        assert_grads_equal(grads, want, needs)

    @EXACT
    @given(seed=SEEDS, shape=SHAPES, dtype=DTYPES, needs=NEEDS, t=st.floats(0.0, 1.0))
    def test_lerp_matches_chain(self, seed, shape, dtype, needs, t):
        """add(scale(a, 1 - t), scale(b, t))."""
        needs = needs[:2]
        assume(any(needs))
        a, b = (sample(seed + i, shape, dtype) for i in range(2))
        out, grads = backprop(lambda x, y: lerp(x, y, t), (a, b), needs)
        ref = a * float(1 - t) + b * t
        g = 2.0 * ref
        assert out.dtype == dtype and np.array_equal(out, ref)
        assert_grads_equal(grads, [g * float(1 - t), g * t], needs)

    @EXACT
    @given(seed=SEEDS, shape=SHAPES, dtype=DTYPES, masked=st.booleans(),
           w=st.sampled_from([1.0, 0.3, 2.5, 0.0]))
    def test_masked_frobenius_sq_matches_chain(self, seed, shape, dtype, masked, w):
        """scale(frobenius_sq(mul(x, m)), w), or scale(frobenius_sq(x), w)."""
        x, m = sample(seed, shape, dtype), sample(seed + 1, shape, dtype)
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = frobenius_sq(t, m if masked else None, w)
            tape.backward(out)
        xm = x * m if masked else x
        ref = np.asarray((xm * xm).sum(), dtype=dtype) * w
        g = np.ones((), dtype=dtype) * w
        gx = 2.0 * xm * g
        assert out.dtype == dtype and np.array_equal(out.data, ref)
        assert t.grad.dtype == dtype
        assert np.array_equal(t.grad, gx * m if masked else gx)

    def test_shapes_checked(self):
        a = Tensor(np.zeros((6, 4)))
        with pytest.raises(ShapeError):
            lerp(a, Tensor(np.zeros((4, 6))), 0.5)
        with pytest.raises(ShapeError):
            frobenius_sq(a, np.zeros((4, 6)))
        with pytest.raises(ShapeError):
            attention(a, a, Tensor(np.zeros((6, 2))), 2, 2)
        with pytest.raises(ShapeError):
            attention(a, a, a, 4, 2)  # 6 rows are not 4 sequences
        with pytest.raises(ShapeError):
            attention(a, a, a, 2, 3)  # width 4 is not 3 heads
        with pytest.raises(ShapeError):
            linear(a, Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            linear(a, Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 4))), 1.0)
        with pytest.raises(ShapeError):
            mlp(a, Tensor(np.zeros((4, 5))), Tensor(np.zeros((4, 4))))


# slice shapes down to a scalar, as ``unstack`` cuts them from a 1-D array
SLICES = st.one_of(st.just(()), SHAPES)


class TestUnstack:
    @EXACT
    @given(seed=SEEDS, n=st.integers(1, 4), shape=SLICES, dtype=DTYPES,
           used=st.lists(st.booleans(), min_size=4, max_size=4))
    def test_slices_and_their_stacked_gradient(self, seed, n, shape, dtype, used):
        x = sample(seed, (n, *shape), dtype)
        tx = Tensor(x, requires_grad=True)
        other = Tensor(sample(seed + 1, shape, dtype), requires_grad=True)
        with Tape() as tape:
            parts = unstack(tx)
            assert len(tape) == 1
            # a weight of its own per slice, so a misordered slice shows
            loss = frobenius_sq(other)
            for i, part in enumerate(parts):
                if used[i]:
                    loss = add(loss, frobenius_sq(part, weight=i + 1))
            tape.backward(loss)
        assert len(parts) == n
        for i, part in enumerate(parts):
            assert part.requires_grad and part.dtype == dtype
            assert np.array_equal(part.data, x[i])
            assert part.grad is None
        # each used slice's gradient as a leaf of its own, zeros for the rest
        want = np.zeros_like(x)
        for i in range(n):
            if used[i]:
                leaf = Tensor(x[i], requires_grad=True)
                with Tape() as tape:
                    tape.backward(frobenius_sq(leaf, weight=i + 1))
                want[i] = leaf.grad
        if any(used[:n]):
            assert tx.grad.dtype == dtype and np.array_equal(tx.grad, want)
        else:
            assert tx.grad is None

    @EXACT
    @given(seed=SEEDS, n=st.integers(1, 4), shape=SLICES, dtype=DTYPES)
    def test_no_record_when_nothing_needs_a_gradient(self, seed, n, shape, dtype):
        x = sample(seed, (n, *shape), dtype)
        with Tape() as tape:
            frozen = unstack(Tensor(x))
            assert len(tape) == 0
        untaped = unstack(Tensor(x, requires_grad=True))
        for parts in (frozen, untaped):
            assert len(parts) == n
            for i, part in enumerate(parts):
                assert not part.requires_grad and np.array_equal(part.data, x[i])

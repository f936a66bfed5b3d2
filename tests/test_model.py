import dataclasses
import math

import numpy as np
import pytest

from loragate import autodiff, harness
from loragate.adapter import (
    JumpGate,
    dense_update,
    init_adapter,
    interpolate_update,
    jump_update,
    make_gate,
)
from loragate.autodiff import (
    Tape,
    Tensor,
    add,
    cross_entropy,
    embed,
    layer_norm,
    matmul,
    mean,
    permute,
    relu,
    reshape,
    scale,
    softmax,
)
from loragate.config import ExperimentConfig, Method
from loragate.data import generate_task_stream
from loragate.ella import ella_penalty
from loragate.errors import ConfigError
from loragate.harness import inject_adapters, train_task
from loragate.model import POSITIONS, build_model

SMALL = dict(vocab_size=24, d_model=16, n_heads=2, n_blocks=2, num_classes=4)


def small_model(seed=0):
    return build_model(seed=seed, **SMALL)


class TestBuild:
    def test_same_seed_bit_identical(self):
        m1, m2 = small_model(7), small_model(7)
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k].data, m2.params[k].data)

    def test_different_seed_differs(self):
        m1, m2 = small_model(7), small_model(8)
        assert not np.array_equal(m1.params["head"].data, m2.params["head"].data)

    def test_default_shape_has_eight_adapted_layers(self):
        model = build_model(seed=0)
        assert len(model.adapted_layers) == 8
        assert model.adapted_layers[0] == "blk0.q"
        assert model.adapted_layers[-1] == "blk3.v"

    def test_same_base_for_every_seq_len_up_to_the_floor(self):
        short, full = (build_model(seed=7, seq_len=n, **SMALL) for n in (2, POSITIONS))
        for k in full.params:
            np.testing.assert_array_equal(short.params[k].data, full.params[k].data)

    def test_runs_sequences_longer_than_the_floor(self, rng):
        model = build_model(seed=0, seq_len=40, **SMALL)
        assert model.forward(rng.integers(0, 24, size=(3, 40))).shape == (3, 4)

    def test_head_count_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            build_model(d_model=30, n_heads=4, seed=0)

    def test_base_weights_are_frozen(self):
        model = small_model()
        assert not any(p.requires_grad for p in model.params.values())


class TestForward:
    def test_fresh_adapters_do_not_change_logits(self, rng):
        model = small_model(3)
        tokens = rng.integers(0, 24, size=(5, 8))
        base = model.forward(tokens).data
        updates = {}
        for lid in model.adapted_layers:
            ad = init_adapter(16, 16, 4, seed=11)
            updates[lid] = dense_update(ad)  # up factor is zero, so update is zero
        with_adapters = model.forward(tokens, updates, scaling=2.0).data
        np.testing.assert_array_equal(base, with_adapters)

    def test_scaling_and_update_trade_off(self, rng):
        model = small_model(3)
        tokens = rng.integers(0, 24, size=(4, 8))
        dw = rng.normal(scale=0.1, size=(16, 16)).astype(np.float32)
        one = model.forward(tokens, {"blk0.q": Tensor(dw)}, scaling=2.0).data
        other = model.forward(tokens, {"blk0.q": Tensor(0.5 * dw)}, scaling=4.0).data
        np.testing.assert_allclose(one, other, atol=1e-6)

    def test_sequence_length_capped(self, rng):
        model = small_model()
        with pytest.raises(ValueError):
            model.forward(rng.integers(0, 24, size=(2, POSITIONS + 1)))

    def test_token_range_checked(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.forward(np.full((1, 4), 24))

    def test_batch_permutation_equivariance(self, rng):
        model = small_model(5)
        tokens = rng.integers(0, 24, size=(6, 8))
        perm = rng.permutation(6)
        out = model.forward(tokens).data
        out_perm = model.forward(tokens[perm]).data
        np.testing.assert_array_equal(out[perm], out_perm)

    def test_logit_shape(self, rng):
        model = small_model()
        out = model.forward(rng.integers(0, 24, size=(3, 7)))
        assert out.shape == (3, 4)


class TestTrainingInvariants:
    def stream_and_config(self):
        cfg = ExperimentConfig(vocab_size=24, d_model=16, n_heads=2, n_blocks=2,
                               n_tasks=2, classes_per_task=2,
                               samples_per_class=48, seq_len=8,
                               method=Method.JUMP_INCLORA)
        stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                      cfg.difficulty, cfg.classes_per_task,
                                      cfg.seq_len, cfg.vocab_size)
        return cfg, stream

    def test_frozen_base_bit_identical_after_training(self):
        cfg, stream = self.stream_and_config()
        model = build_model(cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_blocks,
                            cfg.seq_len, stream.num_classes, seed=42)
        before = {k: v.data.copy() for k, v in model.params.items()}
        train_task(model, stream, 0, cfg, run_seed=42)
        for k in model.params:
            np.testing.assert_array_equal(model.params[k].data, before[k])

    def test_one_gate_per_gated_task(self):
        cfg, stream = self.stream_and_config()
        model = build_model(cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_blocks,
                            cfg.seq_len, stream.num_classes, seed=42)
        adapters, gate = inject_adapters(model, cfg, 42, 0)
        assert list(adapters) == model.adapted_layers
        assert isinstance(gate, JumpGate) and not gate.initialized
        assert gate.threshold.requires_grad and gate.bandwidth == cfg.bandwidth

        cfg = dataclasses.replace(cfg, method=Method.INCLORA)
        adapters, gate = inject_adapters(model, cfg, 42, 0)
        assert list(adapters) == model.adapted_layers and gate is None


def chain_forward(model, tokens, updates, scaling):
    """The forward pass as it was before the block was fused: a [batch, seq, d]
    residual, and attention, projections and MLP as chains of small records."""
    p = model.params
    x = embed(tokens, p["tok_emb"], p["pos_emb"])
    batch, seq = tokens.shape
    d, h = p["tok_emb"].shape[1], model.n_heads
    hd = d // h

    def effective(lid):
        return add(p[lid], scale(updates[lid], scaling)) if lid in updates else p[lid]

    def heads(t):
        return permute(reshape(t, (batch, seq, h, hd)), (0, 2, 1, 3))

    for i in range(model.n_blocks):
        flat = reshape(layer_norm(x), (batch * seq, d))
        q = matmul(flat, effective(f"blk{i}.q"))
        k = matmul(flat, p[f"blk{i}.k"])
        v = matmul(flat, effective(f"blk{i}.v"))
        q, k, v = heads(q), heads(k), heads(v)
        scores = scale(matmul(q, permute(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
        ctx = reshape(permute(matmul(softmax(scores), v), (0, 2, 1, 3)), (batch * seq, d))
        x = add(x, reshape(matmul(ctx, p[f"blk{i}.o"]), (batch, seq, d)))
        hidden = relu(matmul(reshape(layer_norm(x), (batch * seq, d)), p[f"blk{i}.mlp1"]))
        x = add(x, reshape(matmul(hidden, p[f"blk{i}.mlp2"]), (batch, seq, d)))
    return matmul(mean(layer_norm(x), axis=1), p["head"])


class TestFusedBlock:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, batch, seq", [
        (SMALL, 5, 7),
        (dict(SMALL, n_heads=1, n_blocks=1), 1, 1),
        ({}, 32, 16),  # the default model and batch
    ])
    def test_matches_chain_of_small_primitives(self, dtype, shape, batch, seq):
        model = build_model(seed=4, dtype=dtype, **shape)
        rng = np.random.default_rng(9)
        vocab_size, d = model.params["tok_emb"].shape
        tokens = rng.integers(0, vocab_size, size=(batch, seq))
        labels = rng.integers(0, model.params["head"].shape[1], size=batch)
        # every adapted layer but the last, so one projection runs without update
        lids = model.adapted_layers[:-1]
        factors = {lid: (Tensor(rng.normal(scale=0.3, size=(d, 4)).astype(dtype), True),
                         Tensor(rng.normal(scale=0.3, size=(4, d)).astype(dtype), True))
                   for lid in lids}
        results = []
        for forward in (model.forward, lambda *a: chain_forward(model, *a)):
            with Tape() as tape:
                updates = {lid: matmul(a, b) for lid, (a, b) in factors.items()}
                logits = forward(tokens, updates, 4.0)
                tape.backward(cross_entropy(logits, labels))
            results.append((logits.data, [t.grad for f in factors.values() for t in f]))
            for a, b in factors.values():
                a.grad = b.grad = None
        (fused, fused_grads), (chain, chain_grads) = results
        assert fused.dtype == dtype and np.array_equal(fused, chain)
        for got, want in zip(fused_grads, chain_grads):
            assert np.array_equal(got, want)

    def test_forward_records(self, rng):
        model = build_model(seed=0)
        updates = {lid: Tensor(np.zeros((64, 64), np.float32), True)
                   for lid in model.adapted_layers}
        with Tape() as tape:
            model.forward(rng.integers(0, 64, size=(2, 5)), updates, 1.0)
        # block 0 (its input needs no gradient, so its norm and the key
        # projection are not recorded): q, v, attention, o, add, norm, mlp,
        # add; every later block adds the norm and k; then norm, reshape,
        # mean and head
        assert len(tape) == 8 + 10 * (model.n_blocks - 1) + 4

    def test_training_step_records(self, monkeypatch):
        lengths = []
        backward = autodiff.Tape.backward

        def counting(tape, root):
            lengths.append(len(tape))
            backward(tape, root)

        monkeypatch.setattr(autodiff.Tape, "backward", counting)
        cfg = ExperimentConfig(method=Method.JUMP_ELLA, ella_lambda=[1.0], n_tasks=2,
                               samples_per_class=32)
        stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                      cfg.difficulty, cfg.classes_per_task,
                                      cfg.seq_len, cfg.vocab_size)
        harness.run_stream(stream, cfg, 42)
        # a gated, penalised step of the default model: 42 forward records,
        # 1 loss, 8 dense updates, 32 gate and interpolation records and
        # 32 penalty records (198 while the block was a chain of small records)
        assert max(lengths) == 115


def record_outputs(monkeypatch, outputs, keep):
    """Wrap ``Tape.record`` to collect the tensor each record produces. With
    ``keep``, each record puts back the gradient its rule took, so every
    gradient stays on its tensor until the tape is dropped."""
    record = autodiff.Tape.record

    def wrapper(tape, fn):
        out = fn.__closure__[fn.__code__.co_freevars.index("out")].cell_contents
        outputs.append(out)
        if not keep:
            return record(tape, fn)

        def keeping():
            g = out.grad
            fn()
            out.grad = g
        return record(tape, keeping)

    monkeypatch.setattr(autodiff.Tape, "record", wrapper)


class TestGradientLifetime:
    def gated_step(self, monkeypatch, keep):
        """One gated, penalised training step of a small model: the tensors
        the records produced, and the factor and threshold gradients."""
        model = small_model(3)
        rng = np.random.default_rng(5)
        d = SMALL["d_model"]
        tokens = rng.integers(0, SMALL["vocab_size"], size=(6, 8))
        labels = rng.integers(0, SMALL["num_classes"], size=6)
        gate = make_gate(0.05)
        gate.threshold.data = np.asarray(0.1, np.float32)
        gate.initialized = True
        adapters = {lid: init_adapter(d, d, 4, seed=i)
                    for i, lid in enumerate(model.adapted_layers)}
        for ad in adapters.values():
            ad.up.data = rng.normal(scale=0.1, size=ad.up.shape).astype(np.float32)
        past = rng.normal(size=(d, d)).astype(np.float32)
        outputs = []
        with monkeypatch.context() as patch, Tape() as tape:
            record_outputs(patch, outputs, keep)
            updates, dense = {}, {}
            for lid, ad in adapters.items():
                dense[lid] = dense_update(ad)
                updates[lid] = interpolate_update(dense[lid], jump_update(dense[lid], gate),
                                                  0.5)
            loss = cross_entropy(model.forward(tokens, updates, 2.0), labels)
            for lid in model.adapted_layers:
                loss = add(loss, ella_penalty(updates[lid], past, 0.3))
            tape.backward(loss)
        grads = [t.grad for ad in adapters.values() for t in (ad.down, ad.up)]
        return outputs, grads + [gate.threshold.grad]

    def test_backward_frees_non_leaf_gradients_with_the_same_bits(self, monkeypatch):
        outputs, grads = self.gated_step(monkeypatch, keep=False)
        assert outputs and all(t.grad is None for t in outputs)
        kept_outputs, kept = self.gated_step(monkeypatch, keep=True)
        assert all(t.grad is not None for t in kept_outputs)
        for got, want in zip(grads, kept, strict=True):
            assert got is not None and got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestSavedState:
    def test_records_of_a_gated_penalised_step_hold_no_tensor(
            self, records_hold_no_tensor, monkeypatch):
        TestGradientLifetime().gated_step(monkeypatch, keep=False)

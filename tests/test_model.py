import dataclasses
import math

import numpy as np
import pytest

from loragate import autodiff, harness
from loragate.adapter import (
    Adapter,
    JumpGate,
    THRESHOLD_FLOOR,
    dense_update,
    init_adapter,
    interpolate_update,
    jump_update,
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
    unstack,
)
from loragate.config import ExperimentConfig, Method
from loragate.data import generate_task_stream
from loragate.ella import ella_penalty
from loragate.errors import ConfigError
from loragate.harness import inject_adapters, train_task
from loragate.model import POSITIONS, build_model
from loragate.rng import named_seed

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

    def test_one_gate_per_gated_task(self, monkeypatch):
        # inject_adapters makes a bank of every adapted layer and no gate;
        # train_task makes a gated task's one gate through init_gate, and an
        # ungated task none
        cfg, stream = self.stream_and_config()
        model = build_model(cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_blocks,
                            cfg.seq_len, stream.num_classes, seed=42)
        bank = inject_adapters(model, cfg, 42, 0)
        layers, d = len(model.adapted_layers), cfg.d_model
        assert bank.down.shape == (layers, d, cfg.rank)
        assert bank.up.shape == (layers, cfg.rank, d)
        init_gate, gates = harness.init_gate, []

        def recording(threshold, bandwidth, bank):
            gates.append((bandwidth, init_gate(threshold, bandwidth, bank)))
            return gates[-1][1]

        monkeypatch.setattr(harness, "init_gate", recording)
        for method in Method:
            gates.clear()
            method_cfg = dataclasses.replace(cfg, method=method, ella_lambda=[1.0])
            log = train_task(model, stream, 0, method_cfg, run_seed=42)
            if method.gated:
                ((bandwidth, gate),) = gates
                assert bandwidth == cfg.bandwidth, method
                assert gate.threshold.requires_grad, method
                assert isinstance(log.threshold, float), method
                assert log.threshold == float(gate.threshold.data) >= THRESHOLD_FLOOR, method
            else:
                assert gates == [] and log.threshold is None, method


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
        # 6 steps a task: one dense step before the ramp starts at step 1
        cfg = ExperimentConfig(method=Method.JUMP_ELLA, ella_lambda=[1.0], n_tasks=2,
                               samples_per_class=64)
        stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                      cfg.difficulty, cfg.classes_per_task,
                                      cfg.seq_len, cfg.vocab_size)
        harness.run_stream(stream, cfg, 42)
        # the default model's forward and loss are 43 records; the adapter
        # bank adds 1 for its dense update and 1 to unstack the update the
        # forward reads; a gated step adds 1 for the gate and, inside the
        # ramp, 1 for the interpolation; a penalised step adds 1 to unstack
        # the update the penalty reads and 2 per layer of the default 8 (the
        # penalty and its add to the loss). Dense 45, penalised 62; gated 46,
        # penalised 63; ramp 47, penalised 64 (83 while each layer had its
        # own dense, gate and interpolation records, 115 while the
        # interpolation and the penalty were chains of small records)
        assert sorted(set(lengths)) == [45, 46, 47, 62, 63, 64]


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


def gated_penalised_step(bank):
    """One gated, penalised training step of a small model: its loss, the
    factor gradients and the threshold gradient. Each adapted layer has an
    adapter of its own, and its gradients are a (down, up) pair per layer;
    with ``bank`` the same factors are stacked into one adapter bank, whose
    update ``unstack`` cuts into the layers' updates, as in ``train_task``,
    and the gradients are the bank's (down, up)."""
    model = small_model(3)
    rng = np.random.default_rng(5)
    d = SMALL["d_model"]
    tokens = rng.integers(0, SMALL["vocab_size"], size=(6, 8))
    labels = rng.integers(0, SMALL["num_classes"], size=6)
    gate = JumpGate(Tensor(np.asarray(0.1, np.float32), requires_grad=True), 0.05)
    adapters = {lid: init_adapter(d, d, 4, seed=i)
                for i, lid in enumerate(model.adapted_layers)}
    for ad in adapters.values():
        ad.up.data = rng.normal(scale=0.1, size=ad.up.shape).astype(np.float32)
    past = rng.normal(size=(d, d)).astype(np.float32)
    if bank:
        stacked = Adapter(Tensor(np.stack([ad.down.data for ad in adapters.values()]), True),
                          Tensor(np.stack([ad.up.data for ad in adapters.values()]), True))
        leaves = [stacked.down, stacked.up]
    else:
        leaves = [t for ad in adapters.values() for t in (ad.down, ad.up)]
    with Tape() as tape:
        if bank:
            dense = dense_update(stacked)
            update = interpolate_update(dense, jump_update(dense, gate), 0.5)
            updates = dict(zip(model.adapted_layers, unstack(update)))
        else:
            updates = {}
            for lid, ad in adapters.items():
                dense = dense_update(ad)
                updates[lid] = interpolate_update(dense, jump_update(dense, gate), 0.5)
        loss = cross_entropy(model.forward(tokens, updates, 2.0), labels)
        for lid in model.adapted_layers:
            loss = add(loss, ella_penalty(updates[lid], past, 0.3))
        tape.backward(loss)
    return loss.data, [t.grad for t in leaves], gate.threshold.grad


class TestGradientLifetime:
    def gated_step(self, monkeypatch, keep):
        """The per-layer ``gated_penalised_step``: the tensors the records
        produced, and the factor and threshold gradients."""
        outputs = []
        with monkeypatch.context() as patch:
            record_outputs(patch, outputs, keep)
            _, grads, threshold_grad = gated_penalised_step(bank=False)
        return outputs, grads + [threshold_grad]

    def test_backward_frees_non_leaf_gradients_with_the_same_bits(self, monkeypatch):
        outputs, grads = self.gated_step(monkeypatch, keep=False)
        assert outputs and all(t.grad is None for t in outputs)
        kept_outputs, kept = self.gated_step(monkeypatch, keep=True)
        assert all(t.grad is not None for t in kept_outputs)
        for got, want in zip(grads, kept, strict=True):
            assert got is not None and got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestAdapterBank:
    def test_bank_step_equals_the_per_layer_step(self):
        loss, grads, threshold_grad = gated_penalised_step(bank=False)
        bank_loss, (down, up), bank_threshold_grad = gated_penalised_step(bank=True)
        assert np.array_equal(bank_loss, loss)
        # layer i's factor gradients are slice i of the bank's
        assert np.array_equal(down, np.stack(grads[0::2]))
        assert np.array_equal(up, np.stack(grads[1::2]))
        # the threshold's two sides are each one sum over the bank, not one
        # per layer, so they round differently
        assert bank_threshold_grad.dtype == threshold_grad.dtype == np.float32
        np.testing.assert_allclose(bank_threshold_grad, threshold_grad, rtol=1e-5, atol=1e-6)

    def test_bank_stacks_each_layers_seeded_adapter(self):
        cfg = ExperimentConfig(vocab_size=24, d_model=16, n_heads=2, n_blocks=2, rank=4)
        model = build_model(cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_blocks,
                            seed=42)
        bank = inject_adapters(model, cfg, 42, 3)
        assert bank.down.requires_grad and bank.up.requires_grad
        assert len(bank.down.data) == len(bank.up.data) == len(model.adapted_layers)
        for i, lid in enumerate(model.adapted_layers):
            ad = init_adapter(16, 16, 4, seed=named_seed(42, f"adapter/task3/{lid}"))
            assert np.array_equal(bank.down.data[i], ad.down.data)
            assert np.array_equal(bank.up.data[i], ad.up.data)

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_optimizer_steps_the_bank_and_a_gated_threshold(self, monkeypatch, method):
        cfg = ExperimentConfig(vocab_size=24, d_model=16, n_heads=2, n_blocks=2,
                               n_tasks=2, classes_per_task=2, samples_per_class=16,
                               seq_len=8, method=method, ella_lambda=[1.0])
        stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                      cfg.difficulty, cfg.classes_per_task,
                                      cfg.seq_len, cfg.vocab_size)
        model = build_model(cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_blocks,
                            cfg.seq_len, stream.num_classes, seed=42)
        banks, optimizers = [], []
        inject, adamw = harness.inject_adapters, harness.AdamW

        def injecting(*args):
            banks.append(inject(*args))
            return banks[-1]

        def making(params, **kwargs):
            optimizers.append(adamw(params, **kwargs))
            return optimizers[-1]

        monkeypatch.setattr(harness, "inject_adapters", injecting)
        monkeypatch.setattr(harness, "AdamW", making)
        train_task(model, stream, 0, cfg, run_seed=42)
        ((bank,), (opt,)) = banks, optimizers
        assert opt.params[:2] == [bank.down, bank.up]
        if method.gated:
            (threshold,) = opt.params[2:]
            assert threshold.shape == () and threshold.requires_grad
        else:
            assert len(opt.params) == 2


class TestSavedState:
    def test_records_of_a_gated_penalised_step_hold_no_tensor(
            self, records_hold_no_tensor, monkeypatch):
        TestGradientLifetime().gated_step(monkeypatch, keep=False)

    def test_records_of_a_bank_step_hold_no_tensor(self, records_hold_no_tensor):
        gated_penalised_step(bank=True)

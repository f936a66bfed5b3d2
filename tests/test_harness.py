import dataclasses
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

import loragate.harness as harness
from loragate.adapter import GateScope, final_sparse_update
from loragate.config import ExperimentConfig, Method
from loragate.data import generate_task_stream
from loragate.ella import EllaVariant
from loragate.errors import ConfigError, StateError
from loragate.harness import TaskLog, evaluate, resolve_orders, run_stream, train_task
from loragate.metrics import backward_transfer
from loragate.model import build_model


def tiny_config(**overrides):
    # rank 2 at d_model 16 leaves the gate a budget below its scope's size
    # (at rank 8, 2·r·d >= d² and θ sits at the floor), and batch 8 gives the
    # ramp steps enough to start before the last one
    base = dict(vocab_size=24, d_model=16, n_heads=2, n_blocks=2,
                n_tasks=2, classes_per_task=2, samples_per_class=32, seq_len=8,
                batch_size=8, rank=2, warmup_steps=2, method=Method.JUMP_INCLORA)
    base.update(overrides)
    return ExperimentConfig(**base)


def stream_for(cfg):
    return generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                cfg.difficulty, cfg.classes_per_task,
                                cfg.seq_len, cfg.vocab_size)


def record_fetches(monkeypatch, stream) -> list:
    """The (task id, split) of every later ``stream.fetch``, in call order."""
    fetched, fetch = [], stream.fetch

    def recording(task_id, split):
        fetched.append((task_id, split))
        return fetch(task_id, split)

    monkeypatch.setattr(stream, "fetch", recording)
    return fetched


def fresh_model(cfg, stream, seed):
    return build_model(cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_blocks,
                       cfg.seq_len, stream.num_classes, seed=seed)


def record_merges(monkeypatch) -> list:
    """The (model, updates) of every later ``_merge_updates`` call, in call
    order."""
    merges, merge_updates = [], harness._merge_updates

    def keeping(model, merged, *args):
        merges.append((model, merged))
        merge_updates(model, merged, *args)

    monkeypatch.setattr(harness, "_merge_updates", keeping)
    return merges


def assert_zero_weight_trains_twin(method, twin):
    """``train_task`` under ``method`` at penalty weight 0 against a non-zero
    past trains as ``twin`` does without a past, bit for bit; weight 1 bites."""
    cfg = tiny_config(method=method, ella_lambda=[1.0])
    stream = stream_for(cfg)
    model = fresh_model(cfg, stream, 42)
    rng = np.random.default_rng(0)
    past = {lid: rng.normal(size=model.layer_shape(lid)).astype(np.float32)
            for lid in model.adapted_layers}
    zero = train_task(model, stream, 1, cfg, penalty_weight=0.0, past=past, run_seed=42)
    plain = train_task(model, stream, 1, dataclasses.replace(cfg, method=twin),
                       run_seed=42)
    np.testing.assert_array_equal(zero.losses, plain.losses)
    assert zero.merged.keys() == plain.merged.keys()
    for lid, dw in plain.merged.items():
        np.testing.assert_array_equal(zero.merged[lid], dw)
    bitten = train_task(model, stream, 1, cfg, penalty_weight=1.0, past=past, run_seed=42)
    assert not np.array_equal(bitten.losses, plain.losses)


def no_training(*args, **kwargs):
    raise AssertionError("trained before the stream and order were checked")


def stream_model(merges):
    """The model merged into more than once: every solo run merges one task
    into a model of its own, the stream merges every position into one."""
    (model,) = {id(m): m for m, _ in merges
                if sum(other is m for other, _ in merges) > 1}.values()
    return model


class TestTrainTask:
    def test_tiny_gate_drops_entries(self, monkeypatch):
        # the fixture's gate must gate: at rank 8 and batch 16 it zeroed no
        # non-zero entry on any step, initialised on the all-zero first update
        dropped = []
        jump = harness.jump_update

        def counting(dw, gate):
            out = jump(dw, gate)
            dropped.append(np.count_nonzero(dw.data) - np.count_nonzero(out.data))
            return out

        monkeypatch.setattr(harness, "jump_update", counting)
        cfg = tiny_config()
        run_stream(stream_for(cfg), cfg, seed=42)
        assert max(dropped) > 0

    def test_gamma_trajectory_and_threshold_event(self):
        cfg = tiny_config(samples_per_class=48, batch_size=8)  # 12 steps
        stream = stream_for(cfg)
        model = fresh_model(cfg, stream, 42)
        log = train_task(model, stream, 0, cfg, run_seed=42)
        total = len(log.losses)
        assert total == 12
        assert log.gammas[0] == 0.0
        assert log.threshold_init_step == int(0.2 * total)
        final_step = int(0.8 * total)
        assert all(g == 1.0 for g in log.gammas[final_step:])
        assert all(0.0 <= g <= 1.0 for g in log.gammas)
        assert all(b >= a for a, b in zip(log.gammas, log.gammas[1:]))

    def test_zero_penalty_matches_unpenalized_bitwise(self):
        assert_zero_weight_trains_twin(Method.JUMP_ELLA, Method.JUMP_INCLORA)

    def test_rehearsal_free_data_access(self, monkeypatch):
        cfg = tiny_config()
        stream = stream_for(cfg)
        model = fresh_model(cfg, stream, 42)
        accessed = record_fetches(monkeypatch, stream)
        train_task(model, stream, 1, cfg, run_seed=42)
        assert accessed == [(1, "train")]

    def test_empty_task_rejected(self):
        cfg = tiny_config()
        stream = stream_for(cfg)
        empty = (np.zeros((0, cfg.seq_len), dtype=np.int64), np.zeros(0, dtype=np.int64))
        stream.tasks[0].splits["train"] = empty
        model = fresh_model(cfg, stream, 42)
        with pytest.raises(ConfigError):
            train_task(model, stream, 0, cfg, run_seed=42)

    def test_nonfinite_loss_raises_naming_task_and_step(self):
        cfg = tiny_config()
        stream = stream_for(cfg)
        model = fresh_model(cfg, stream, 42)
        model.params["head"].data[0, 0] = np.nan
        with pytest.raises(StateError, match=r"task 1: non-finite loss nan at step 0"):
            train_task(model, stream, 1, cfg, run_seed=42)


    def test_traced_memory_peak_of_a_default_task(self):
        # one task of the default gated, penalised config, the past non-zero
        # so that every per-step record runs: ~5.3 MiB above entry while a
        # record keeps only the arrays its backward reads and is dropped once
        # run, ~8.7 MiB while the records held their tensors, ~13.5 MiB while
        # every gradient and each MLP's hidden array lived until the next step
        cfg = ExperimentConfig(method=Method.JUMP_ELLA, ella_lambda=[1.0])
        stream = stream_for(cfg)
        model = fresh_model(cfg, stream, 42)
        rng = np.random.default_rng(0)
        past = {lid: rng.normal(size=model.layer_shape(lid)).astype(np.float32)
                for lid in model.adapted_layers}
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_task(model, stream, 1, cfg, penalty_weight=1.0, past=past,
                       run_seed=42)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 7.5 * 2**20

    @pytest.mark.parametrize("variant", list(EllaVariant))
    @pytest.mark.parametrize("start_frac", [0.2, 1.0])
    def test_penalty_receives_the_update_its_variant_names(self, monkeypatch,
                                                           variant, start_frac):
        # the dense update before the thresholds exist, then the sparse or the
        # interpolated one; with start_frac = 1 they exist only after the epoch
        made = {"dense": [], "jump": [], "interp": []}
        penalised = []

        def keeping(name, fn):
            def wrapper(*args, **kwargs):
                made[name].append(fn(*args, **kwargs))
                return made[name][-1]
            return wrapper

        for name, fn in (("dense", "dense_update"), ("jump", "jump_update"),
                         ("interp", "interpolate_update")):
            monkeypatch.setattr(harness, fn, keeping(name, getattr(harness, fn)))
        penalty = harness.ella_penalty

        def recording_penalty(update, past, weight):
            penalised.append(update)
            return penalty(update, past, weight)

        monkeypatch.setattr(harness, "ella_penalty", recording_penalty)
        cfg = tiny_config(method=Method.JUMP_ELLA, ella_lambda=[50.0], ella_variant=variant,
                          samples_per_class=48, batch_size=8, start_frac=start_frac,
                          end_frac=max(start_frac, 0.8))
        stream = stream_for(cfg)
        model = fresh_model(cfg, stream, 42)
        rng = np.random.default_rng(0)
        past = {lid: rng.normal(size=model.layer_shape(lid)).astype(np.float32)
                for lid in model.adapted_layers}
        log = train_task(model, stream, 1, cfg, penalty_weight=50.0, past=past,
                         run_seed=42)

        # 12 steps: the init falls at step 2, or after the last step
        assert log.threshold_init_step == (2 if start_frac < 1.0 else len(log.losses))
        layers = len(model.adapted_layers)
        before_init = layers * log.threshold_init_step
        assert len(penalised) == len(made["dense"]) == layers * len(log.losses)
        assert len(made["jump"]) == len(made["interp"]) == len(penalised) - before_init
        gated = made["jump"] if variant is EllaVariant.SPARSE else made["interp"]
        expected = made["dense"][:before_init] + gated
        assert all(got is want for got, want in zip(penalised, expected, strict=True))


class TestEvaluate:
    def test_chance_level_on_random_model(self):
        # a single random model maps classes consistently, so chance level
        # only emerges in expectation over model seeds
        cfg = tiny_config(n_tasks=1, classes_per_task=4, samples_per_class=256)
        stream = stream_for(cfg)
        accs = [evaluate(fresh_model(cfg, stream, seed), stream, 0)
                for seed in range(20)]
        se = np.std(accs) / np.sqrt(len(accs))
        assert abs(np.mean(accs) - 0.25) < 4 * max(se, 0.01)

    def test_single_class_task_is_perfect(self):
        cfg = tiny_config(n_tasks=1, classes_per_task=1)
        stream = stream_for(cfg)
        model = fresh_model(cfg, stream, 42)
        assert evaluate(model, stream, 0) == 1.0

    def test_deterministic(self):
        cfg = tiny_config()
        stream = stream_for(cfg)
        model = fresh_model(cfg, stream, 42)
        assert evaluate(model, stream, 0) == evaluate(model, stream, 0)

    def test_traced_memory_peak_on_the_default_test_split(self):
        # one 192-sample chunk: ~5.3 MiB above entry while each block's normed
        # input is dropped before attention and q, k and v before the MLP,
        # ~6.0 MiB while the normed input lives through attention, ~8.3 MiB
        # while all four lived through the MLP
        cfg = ExperimentConfig()
        stream = stream_for(cfg)
        model = fresh_model(cfg, stream, 42)
        assert len(stream.fetch(0, "test")[1]) == 192
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evaluate(model, stream, 0)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 5.75 * 2**20

    def test_empty_test_split_rejected(self):
        cfg = tiny_config()
        stream = stream_for(cfg)
        empty = (np.zeros((0, cfg.seq_len), dtype=np.int64), np.zeros(0, dtype=np.int64))
        stream.tasks[1].splits["test"] = empty
        with pytest.raises(ConfigError, match="task 1 has no test data"):
            evaluate(fresh_model(cfg, stream, 42), stream, 1)


class TestRunStream:
    def test_structure_and_masks(self):
        cfg = tiny_config()
        stream = stream_for(cfg)
        result = run_stream(stream, cfg, seed=42)
        model = fresh_model(cfg, stream, 42)
        assert len(result.logs) == 2
        for log in result.logs:
            assert list(log.merged) == model.adapted_layers
            for lid, update in log.merged.items():
                assert update.dtype == np.float32
                assert update.shape == model.layer_shape(lid)
        assert result.matrix.grid.shape == (3, 2)
        assert not np.isnan(result.matrix.final_row()).any()

    def test_mask_equals_final_update_support(self, monkeypatch):
        cfg = tiny_config()
        stream = stream_for(cfg)
        result = run_stream(stream, cfg, seed=42)
        # reconstruct task 0 exactly: same model seed, adapter seeds, data
        # order; keep the adapters and gates that train_task injects
        injected = []
        inject = harness.inject_adapters

        def keeping(*args):
            injected.append(inject(*args))
            return injected[-1]

        monkeypatch.setattr(harness, "inject_adapters", keeping)
        model = fresh_model(cfg, stream, 42)
        log = train_task(model, stream, 0, cfg, run_seed=42)
        ((adapters, (gate,)),) = injected  # the default scope is global
        for lid in model.adapted_layers:
            dwf = final_sparse_update(adapters[lid], gate)
            np.testing.assert_array_equal(log.merged[lid], dwf)
            np.testing.assert_array_equal(result.logs[0].merged[lid], dwf)

    def test_single_task_bwt_not_applicable(self):
        cfg = tiny_config(n_tasks=1, ella_lambda=[0.0])
        stream = stream_for(cfg)
        result = run_stream(stream, cfg, seed=42)
        assert backward_transfer(result.matrix) is None

    def test_isolated_row_matches_first_position(self):
        # row 0 and stream position 0 share order[0]'s solo run; training
        # that task alone by hand must agree
        cfg = tiny_config(method=Method.JUMP_ELLA, ella_lambda=[50.0])
        stream = stream_for(cfg)
        order = [1, 0]
        result = run_stream(stream, cfg, seed=42, order=order)
        iso = fresh_model(cfg, stream, 42)
        log = train_task(iso, stream, order[0], cfg, run_seed=42)
        harness._merge_updates(iso, log.merged, cfg, None)
        assert result.matrix.grid[0, 0] == evaluate(iso, stream, order[0])

    def test_deterministic_matrix_and_hash(self):
        cfg = tiny_config()
        r1 = run_stream(stream_for(cfg), cfg, seed=42)
        r2 = run_stream(stream_for(cfg), cfg, seed=42)
        np.testing.assert_array_equal(r1.matrix.grid, r2.matrix.grid)
        assert r1.trace_hash == r2.trace_hash
        assert len(r1.logs) == len(r2.logs)
        for log1, log2 in zip(r1.logs, r2.logs):
            assert log1.merged.keys() == log2.merged.keys()
            for lid, dw1 in log1.merged.items():
                np.testing.assert_array_equal(dw1, log2.merged[lid])

    def test_seed_changes_run(self):
        cfg = tiny_config()
        r1 = run_stream(stream_for(cfg), cfg, seed=42)
        r2 = run_stream(stream_for(cfg), cfg, seed=43)
        assert r1.trace_hash != r2.trace_hash

    def test_first_stream_task_trained_once_others_twice(self, monkeypatch):
        # stream position 0 doubles as its task's isolated run; every other task
        # trains in the stream and alone; no other task's train data is read
        cfg = tiny_config()
        stream = stream_for(cfg)
        accesses = record_fetches(monkeypatch, stream)
        run_stream(stream, cfg, seed=42, order=[1, 0])
        train_counts = {}
        for tid, split in accesses:
            if split == "train":
                train_counts[tid] = train_counts.get(tid, 0) + 1
        assert train_counts == {1: 1, 0: 2}

    def test_shared_isolated_accuracies_are_exact(self, monkeypatch):
        trained = []
        train = harness.train_task

        def counting_train_task(model, stream, task_id, *args, **kwargs):
            trained.append(task_id)
            return train(model, stream, task_id, *args, **kwargs)

        cfg = tiny_config(n_tasks=3)
        alone = [run_stream(stream_for(cfg), cfg, seed=42, order=order)
                 for order in ([0, 1, 2], [2, 0, 1])]
        monkeypatch.setattr(harness, "train_task", counting_train_task)
        isolated = {}
        shared = [run_stream(stream_for(cfg), cfg, seed=42, order=order,
                             isolated=isolated)
                  for order in ([0, 1, 2], [2, 0, 1])]
        # the first order trains tasks 1 and 2 alone; the second replays task 2
        # at position 0 and trains no task alone
        assert trained == [0, 1, 2, 1, 2] + [0, 1]
        assert sorted(isolated) == [0, 1, 2]
        for a, b in zip(alone, shared):
            np.testing.assert_array_equal(a.matrix.grid, b.matrix.grid)
            assert a.trace_hash == b.trace_hash

    def test_unshared_solo_runs_are_freed_once_replayed(self, monkeypatch):
        # without a caller's dict no solo run outlives its use: order[0]'s is
        # gone once position 0 has replayed it, every other one once trained
        runs, alive_at_training = [], []
        train_solo, train_task = harness._train_solo, harness.train_task

        def tracked_train_solo(*args):
            run = train_solo(*args)
            runs.append(weakref.ref(run))
            return run

        def counting_train_task(*args, **kwargs):
            alive_at_training.append(sum(ref() is not None for ref in runs))
            return train_task(*args, **kwargs)

        monkeypatch.setattr(harness, "_train_solo", tracked_train_solo)
        monkeypatch.setattr(harness, "train_task", counting_train_task)
        cfg = tiny_config(n_tasks=3)
        result = run_stream(stream_for(cfg), cfg, seed=42, order=[2, 0, 1])
        # order[0] alone, stream positions 1 and 2, then tasks 0 and 1 alone
        assert alive_at_training == [0, 0, 0, 0, 0]
        assert len(runs) == 3 and all(ref() is None for ref in runs)
        assert not np.isnan(result.matrix.grid[0]).any()

    def test_replayed_first_position_equals_trained(self, monkeypatch):
        cfg = tiny_config(method=Method.JUMP_ELLA, ella_lambda=[800.0],
                          gate_scope=GateScope.PER_BLOCK)
        stream = stream_for(cfg)
        order = [1, 0]
        isolated = {}
        run_stream(stream, cfg, seed=42, order=[0, 1], isolated=isolated)
        merges = record_merges(monkeypatch)
        shared = run_stream(stream, cfg, seed=42, order=order, isolated=isolated)
        shared_model = stream_model(merges)
        merges.clear()
        fresh = run_stream(stream, cfg, seed=42, order=order)
        fresh_stream_model = stream_model(merges)
        monkeypatch.undo()

        # the same order trained in the stream by hand, position 0 included,
        # with the overlap penalty on from the first task
        model = fresh_model(cfg, stream, 42)
        past = {lid: np.zeros(model.layer_shape(lid), dtype=np.float32)
                for lid in model.adapted_layers}
        logs, rows = [], []
        for pos, tid in enumerate(order):
            logs.append(train_task(model, stream, tid, cfg, penalty_weight=800.0,
                                   past=past, run_seed=42))
            harness._merge_updates(model, logs[-1].merged, cfg, past)
            rows.append([evaluate(model, stream, t) for t in order[:pos + 1]])

        for result, result_model in ((shared, shared_model), (fresh, fresh_stream_model)):
            assert len(result.logs) == len(logs) == 2
            for r, t in zip(result.logs, logs):
                for f in dataclasses.fields(TaskLog):
                    rv, tv = getattr(r, f.name), getattr(t, f.name)
                    if isinstance(tv, np.ndarray):
                        assert rv.dtype == tv.dtype
                        np.testing.assert_array_equal(rv, tv)
                    elif f.name == "merged":
                        assert rv.keys() == tv.keys()
                        for lid, dw in tv.items():
                            assert rv[lid].dtype == dw.dtype
                            np.testing.assert_array_equal(rv[lid], dw)
                    else:
                        assert rv == tv, f.name
            assert result_model.params.keys() == model.params.keys()
            for name, param in model.params.items():
                np.testing.assert_array_equal(result_model.params[name].data,
                                              param.data)
            for pos, row in enumerate(rows):
                assert list(result.matrix.grid[pos + 1, :pos + 1]) == row
        np.testing.assert_array_equal(shared.matrix.grid, fresh.matrix.grid)
        assert shared.trace_hash == fresh.trace_hash
        # position 1 trained against the past that position 0 fed
        unpenalized = tiny_config(method=Method.JUMP_INCLORA,
                                  gate_scope=GateScope.PER_BLOCK)
        plain = run_stream(stream, unpenalized, seed=42, order=order)
        assert not np.array_equal(plain.logs[1].losses, shared.logs[1].losses)

        # the stored run is read-only; what a run returns is the caller's
        lid = model.adapted_layers[0]
        stored = isolated[1]
        assert not stored.log.losses.flags.writeable
        with pytest.raises(ValueError):
            stored.log.merged[lid][0, 0] = 1
        assert shared.logs[0].losses.flags.writeable
        assert shared.logs[0].merged[lid].flags.writeable

    @pytest.mark.parametrize("order", [[0, 0], [0], [0, 1, 0]])
    def test_order_must_be_a_permutation(self, order, monkeypatch):
        monkeypatch.setattr(harness, "train_task", no_training)
        cfg = tiny_config()
        with pytest.raises(ConfigError, match="not a permutation"):
            run_stream(stream_for(cfg), cfg, seed=42, order=order)

    @pytest.mark.parametrize("method", list(Method))
    def test_stream_must_be_the_configs(self, method, monkeypatch):
        monkeypatch.setattr(harness, "train_task", no_training)
        cfg = tiny_config(n_tasks=3, method=method, ella_lambda=[1.0])
        stream = stream_for(dataclasses.replace(cfg, n_tasks=2))
        with pytest.raises(ConfigError, match="stream has 2 tasks, config n_tasks=3"):
            run_stream(stream, cfg, seed=42)

    def test_merges_applied_per_task(self, monkeypatch):
        cfg = tiny_config()
        stream = stream_for(cfg)
        base = fresh_model(cfg, stream, 42)
        merges = record_merges(monkeypatch)
        run_stream(stream, cfg, seed=42)
        model = stream_model(merges)
        for lid in base.adapted_layers:
            assert not np.array_equal(model.params[lid].data, base.params[lid].data)
        # non-adapted weights never move
        for k in base.params:
            if k not in base.adapted_layers:
                np.testing.assert_array_equal(model.params[k].data, base.params[k].data)


class TestDegenerateModes:
    def test_gating_off_zero_penalty_is_inclora(self):
        assert_zero_weight_trains_twin(Method.ELLA, Method.INCLORA)

    def test_penalty_applies_only_to_stream_tasks_after_the_first(self, monkeypatch):
        logs = []
        train = harness.train_task

        def recording_train_task(*args, **kwargs):
            logs.append(train(*args, **kwargs))
            return logs[-1]

        monkeypatch.setattr(harness, "train_task", recording_train_task)
        losses = {}
        for method, lam in ((Method.ELLA, 50.0), (Method.INCLORA, 0.0)):
            cfg = tiny_config(method=method, ella_lambda=[lam])
            logs.clear()
            run_stream(stream_for(cfg), cfg, seed=42)
            losses[method] = [log.losses for log in logs]  # 2 stream, then 1 isolated
        ella, base = losses[Method.ELLA], losses[Method.INCLORA]
        np.testing.assert_array_equal(ella[0], base[0])  # the past is still empty
        assert not np.array_equal(ella[1], base[1])
        for e, b in zip(ella[2:], base[2:]):  # isolated runs start from an empty past
            np.testing.assert_array_equal(e, b)

    def test_gated_methods_diverge_only_after_gamma_turns_on(self):
        cfg_inc = tiny_config(method=Method.INCLORA, samples_per_class=48)
        cfg_jump = tiny_config(method=Method.JUMP_INCLORA, samples_per_class=48)
        r_inc = run_stream(stream_for(cfg_inc), cfg_inc, seed=42)
        r_jump = run_stream(stream_for(cfg_jump), cfg_jump, seed=42)
        gammas = r_jump.logs[0].gammas
        first_active = next(i for i, g in enumerate(gammas) if g > 0)
        l_inc, l_jump = r_inc.logs[0].losses, r_jump.logs[0].losses
        np.testing.assert_array_equal(l_inc[:first_active], l_jump[:first_active])
        assert np.abs(l_inc - l_jump).max() > 1e-5  # well above rounding


class TestOrders:
    def test_identity_order(self):
        assert resolve_orders(4, 1, 7) == [[0, 1, 2, 3]]

    def test_permuted_orders_deterministic(self):
        o1 = resolve_orders(5, 3, 7)
        o2 = resolve_orders(5, 3, 7)
        assert o1 == o2
        assert all(sorted(o) == [0, 1, 2, 3, 4] for o in o1)

    def test_orders_are_distinct(self):
        # drawn independently, orders 1..5 of three tasks repeat two permutations
        orders = resolve_orders(3, 6, 7)
        assert orders[0] == [0, 1, 2]
        assert sorted(map(tuple, orders)) == sorted(itertools.permutations(range(3)))

    @pytest.mark.parametrize("n_tasks,n_orders", [(2, 3), (3, 7), (3, 0)])
    def test_orders_outside_the_permutation_count_rejected(self, n_tasks, n_orders):
        # 3 orders of 2 tasks once redrew forever
        with pytest.raises(ConfigError, match="n_orders"):
            resolve_orders(n_tasks, n_orders, 7)

    def test_distinct_draws_keep_their_order(self):
        # a prefix of orders that were already distinct is unchanged
        assert resolve_orders(4, 4, 7) == [[0, 1, 2, 3], [3, 1, 2, 0],
                                           [2, 0, 1, 3], [1, 0, 2, 3]]
        assert resolve_orders(3, 2, 7) == resolve_orders(3, 6, 7)[:2]

    def test_run_with_permuted_order(self):
        cfg = tiny_config()
        stream = stream_for(cfg)
        result = run_stream(stream, cfg, seed=42, order=[1, 0])
        assert not np.isnan(result.matrix.final_row()).any()


# seed-42 trace hashes of the default config at 64 samples per class; a change
# to any of them is a change to the numerics, made on purpose or not at all
PINNED_HASHES = {
    "inclora": (dict(method=Method.INCLORA),
                "99b2ad18f1598c6633c331eb73ee7e9f154a8361c8d941329ac5cbcfc2ac35d1"),
    "jump-inclora": (dict(method=Method.JUMP_INCLORA),
                     "f244c823a7ac176f631e01aeff7bc7228a8ed7be448092c17241cb94443a79d1"),
    "ella": (dict(method=Method.ELLA, ella_lambda=[1.0]),
             "9ca15a8692f07a7ee5e5286f3892044a2b10d88736a75b7a167b13412b989d43"),
    "jump-ella": (dict(method=Method.JUMP_ELLA, ella_lambda=[1.0]),
                  "3bd74ed8d50a498969eff29f6ef51dd7b6f640ef98061330c21cf3076b70f174"),
    "jump-ella-interpolated-per-block": (
        dict(method=Method.JUMP_ELLA, ella_lambda=[16.0],
             ella_variant=EllaVariant.INTERPOLATED, gate_scope=GateScope.PER_BLOCK),
        "e472a749d88f9b80dae10b67024e9449b82c7634e33e77d09de0183fc6b1e05d"),
}


@pytest.mark.parametrize("name", list(PINNED_HASHES))
def test_pinned_trace_hash(name):
    overrides, expected = PINNED_HASHES[name]
    cfg = ExperimentConfig(samples_per_class=64, **overrides)
    assert run_stream(stream_for(cfg), cfg, seed=42).trace_hash == expected
